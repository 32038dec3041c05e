// Information-theoretic block entropy (paper eq. 11): the automatic selector
// for the application-layer adaptation. Each data block's value distribution
// is histogrammed and H(X) = -sum p log2 p computed; blocks with entropy
// below a threshold can be aggressively down-sampled without losing
// structure, blocks above keep full resolution (paper Fig. 6).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mesh/fab.hpp"

namespace xl::analysis {

struct EntropyConfig {
  int bins = 256;       ///< histogram resolution.
  int comp = 0;         ///< component to measure.
  /// Optional fixed value range; when lo >= hi the block's own min/max is used.
  double range_lo = 0.0;
  double range_hi = 0.0;
};

/// Entropy in bits of the value distribution of `fab` over `region`.
double block_entropy(const mesh::Fab& fab, const mesh::Box& region,
                     const EntropyConfig& config = {});

/// Shannon entropy in bits of a discrete weight distribution (negative and
/// zero weights are ignored). Used by the trigger layer as a cheap structure
/// signal: the entropy of the cells-per-level occupancy shifts whenever the
/// refinement hierarchy reshapes, without reading any field data. 0 for an
/// empty or single-outcome distribution.
double distribution_entropy(const std::vector<std::int64_t>& weights);

/// The entropy bucket walk of the paper's application-layer selector (§4.1):
/// thresholds sorted ascending (ContractError otherwise); entropy >=
/// thresholds.back() is rung 0 (keep most), and each threshold the entropy
/// falls below moves one rung up, to at most thresholds.size().
std::size_t entropy_rung(double entropy, const std::vector<double>& thresholds);

/// Map an entropy value to a down-sampling factor given thresholds sorted
/// ascending: factors[entropy_rung(entropy, thresholds)], so entropy >=
/// thresholds.back() -> factors.front() (keep most), lower entropy -> larger
/// factor. factors.size() == thresholds.size() + 1.
int factor_for_entropy(double entropy, const std::vector<double>& thresholds,
                       const std::vector<int>& factors);

/// Per-block decision record for Fig. 6-style reports.
struct BlockDecision {
  mesh::Box block;
  double entropy = 0.0;
  int factor = 1;
};

/// Chop `fab`'s box into `block_size`-sided blocks, compute each block's
/// entropy, and pick its factor.
std::vector<BlockDecision> entropy_downsample_plan(const mesh::Fab& fab, int block_size,
                                                   const std::vector<double>& thresholds,
                                                   const std::vector<int>& factors,
                                                   const EntropyConfig& config = {});

}  // namespace xl::analysis
