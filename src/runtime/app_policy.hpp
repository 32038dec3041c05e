// Application-layer adaptation policy (paper §4.1, eqs. 1-3): choose the
// down-sampling factor X for this step's output.
//
// Intent per the paper's §5.2.1 narrative: keep the *highest* spatial
// resolution (smallest X) whose reduction can be performed within the
// available memory; under memory pressure walk up the acceptable-factor
// ladder. Two selectors: the user-defined range-based one (memory-driven)
// and the entropy-based one (information-driven, eq. 11) which picks a factor
// per data block.
#pragma once

#include <cstddef>
#include <vector>

#include "analysis/downsample.hpp"
#include "runtime/state.hpp"

namespace xl::runtime {

struct AppPolicyConfig {
  analysis::DownsampleMethod method = analysis::DownsampleMethod::Stride;
  /// Fraction of the reported available memory the reduction may use (leave
  /// headroom for the solver's own transients).
  double memory_headroom = 0.9;
};

struct AppDecision {
  int factor = 1;
  std::size_t reduced_bytes = 0;      ///< f_data_reduce(S_data, X).
  std::size_t scratch_bytes = 0;      ///< Mem_data_reduce(S_data, X).
  bool memory_constrained = false;    ///< true when a larger X was forced.
};

/// Range-based selector. `acceptable` must be sorted ascending (the paper's
/// user hint, e.g. {2,4} or {2,4,8,16}).
/// Picks the smallest X with Mem_data_reduce(S, X) <= headroom * available;
/// if none fits, returns the largest acceptable X (flagged constrained).
AppDecision select_downsample_factor(const std::vector<int>& acceptable,
                                     std::size_t raw_cells, int ncomp,
                                     std::size_t mem_available_bytes,
                                     const AppPolicyConfig& config = {});

/// Entropy-based selector: maps a measured block entropy to a factor using
/// the hint thresholds (ascending) and the acceptable factor ladder. The
/// rung is analysis::entropy_rung, clamped to the ladder's length, and memory
/// then clamps the factor exactly like the range-based selector.
AppDecision select_factor_by_entropy(double block_entropy,
                                     const std::vector<double>& thresholds,
                                     const std::vector<int>& acceptable,
                                     std::size_t raw_cells, int ncomp,
                                     std::size_t mem_available_bytes,
                                     const AppPolicyConfig& config = {});

}  // namespace xl::runtime
