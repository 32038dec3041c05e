// Fixed-rate lossy compression: the second data-reduction operator the
// paper's application layer can select ("appropriately selecting the
// parameters of the data reduction module (e.g., down-sample factor,
// compression rate, etc.)", §3).
//
// The codec is a block transform in the spirit of ISABELA/ZFP-class
// in-situ compressors, kept dependency-free: values are processed in fixed
// blocks; each block stores a linear predictor (offset + slope along the
// fastest axis) and quantized residuals at a configurable bit width. The
// rate is therefore known a priori — exactly what eq. 1-3's memory
// constraint needs — and decompression error is bounded by the residual
// quantization step.
#pragma once

#include <cstdint>
#include <vector>

#include "mesh/fab.hpp"

namespace xl::analysis {

struct CompressConfig {
  int residual_bits = 8;   ///< quantized bits per value (1..16).
  int block = 64;          ///< values per block (along the flattened stream).
};

/// Compressed stream: self-describing header + per-block payloads.
struct CompressedField {
  CompressConfig config;
  mesh::Box box;
  int ncomp = 1;
  std::vector<std::uint8_t> payload;

  std::size_t bytes() const noexcept {
    return payload.size() + sizeof(CompressConfig) + sizeof(mesh::Box) + sizeof(int);
  }
};

/// Compress all components of `fab`.
CompressedField compress(const mesh::Fab& fab, const CompressConfig& config = {});

/// Reconstruct the field. The result covers the original box exactly.
mesh::Fab decompress(const CompressedField& field);

}  // namespace xl::analysis
