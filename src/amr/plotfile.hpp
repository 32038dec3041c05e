// Plotfile I/O: serialize an AMR hierarchy snapshot to a self-describing
// binary file and read it back — the role Chombo's HDF5 plotfiles play in
// the paper's workflow (the traditional post-processing path the in-situ /
// in-transit pipeline replaces, and the fallback output the visualization
// service can consume offline).
//
// Format (host-endian, version 1):
//   magic "XLPF" | u32 version | i32 step | f64 time | i32 ncomp
//   i32 ref_ratio | u32 num_levels
//   per level: Box domain | u32 nboxes
//     per box: Box | i32 rank | payload (valid cells, Fortran order, ncomp)
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "amr/hierarchy.hpp"

namespace xl::amr {

struct PlotLevel {
  Box domain;
  std::vector<Box> boxes;
  std::vector<int> ranks;
  std::vector<mesh::Fab> data;  ///< one fab per box, valid region only.
};

struct PlotFileData {
  int step = 0;
  double time = 0.0;
  int ncomp = 1;
  int ref_ratio = 2;
  std::vector<PlotLevel> levels;

  std::int64_t total_cells() const noexcept;
};

/// Write the hierarchy's valid data to `os` / `path`. Both throw ContractError
/// when the output fails; the path overload's errors name the path
/// (xl::write_file).
void write_plotfile(std::ostream& os, const AmrHierarchy& hierarchy, int step,
                    double time);
void write_plotfile(const std::string& path, const AmrHierarchy& hierarchy, int step,
                    double time);

/// Read a plotfile back. The plotfile must be the whole stream. Throws
/// ContractError on malformed input, and on bytes after the last level.
PlotFileData read_plotfile(std::istream& is);
PlotFileData read_plotfile(const std::string& path);

}  // namespace xl::amr
