// Per-rank peak-memory model: what Chombo's embedded performance tools report
// to the paper's Monitor. Peak memory on a rank is modeled as
//
//   base_runtime + sum over owned boxes of
//       ghosted_cells * ncomp * 8B * (1 + solver_overhead)
//
// where solver_overhead accounts for the unsplit Godunov temporaries (old/new
// state, per-dimension flux fabs, reconstruction scratch). The model is
// deliberately layout-driven: dynamic refinement concentrates fine boxes on a
// few ranks, which is exactly the erratic, imbalanced profile of the paper's
// Fig. 1.
#pragma once

#include <cstddef>
#include <vector>

#include "mesh/layout.hpp"

namespace xl::amr {

struct MemoryModelConfig {
  int ncomp = 5;
  int nghost = 2;
  /// Multiplier on state bytes for solver temporaries. The unsplit update
  /// holds old+new state (2x) plus one flux fab per dimension (3x) and
  /// reconstruction scratch; 3.0 extra is representative of Chombo's
  /// PolytropicGas footprint.
  double solver_overhead = 3.0;
  /// Fixed per-rank footprint (binary, MPI buffers, Chombo metadata).
  std::size_t base_runtime_bytes = std::size_t{16} << 20;
  /// Extra per-cell bytes while an in-situ analysis kernel is resident.
  double analysis_bytes_per_cell = 0.0;
};

/// The per-rank sums of per_rank_peak_bytes after the runtime footprint and
/// `level0`'s boxes, before any finer level. A static base level is priced
/// once this way and continued step by step with the overload below.
std::vector<double> per_rank_base_bytes(const mesh::BoxLayout& level0,
                                        const MemoryModelConfig& config);

/// Continues `base`, which per_rank_base_bytes computed from `levels[0]`
/// under the same config, with the boxes of `levels[1..]`, and returns the
/// peak bytes per rank. The additions are per_rank_peak_bytes' own, in its
/// order, so the bytes are the same.
std::vector<std::size_t> per_rank_peak_bytes(std::vector<double> base,
                                             const std::vector<mesh::BoxLayout>& levels,
                                             const MemoryModelConfig& config);

/// Peak bytes per rank for one hierarchy snapshot given its level layouts.
/// Works on geometry only, so it scales to thousands of virtual ranks.
std::vector<std::size_t> per_rank_peak_bytes(const std::vector<mesh::BoxLayout>& levels,
                                             const MemoryModelConfig& config);

}  // namespace xl::amr
