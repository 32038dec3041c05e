#include "analysis/entropy.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "mesh/layout.hpp"

namespace xl::analysis {

using mesh::Box;
using mesh::BoxIterator;
using mesh::Fab;

namespace {

/// Fold [r, r+n) into the running min/max with std::min/std::max selection
/// semantics (NaN inputs leave the accumulators untouched). Four independent
/// min/max pairs split the loop-carried compare chain (a single chain made
/// block_entropy about 25% slower); min/max of a set is order-independent,
/// so the folded VALUE matches a left-to-right scan bit for bit. This is the
/// one reduction that may run out of order (DESIGN.md §3.10).
void minmax_scan(const double* r, std::size_t n, double& l, double& h) {
  std::size_t i = 0;
  if (n >= 4) {
    double lo[4] = {l, l, l, l};
    double hi[4] = {h, h, h, h};
    for (; i + 4 <= n; i += 4) {
      for (std::size_t k = 0; k < 4; ++k) {
        lo[k] = std::min(lo[k], r[i + k]);
        hi[k] = std::max(hi[k], r[i + k]);
      }
    }
    for (std::size_t k = 1; k < 4; ++k) {
      lo[0] = std::min(lo[0], lo[k]);
      hi[0] = std::max(hi[0], hi[k]);
    }
    l = std::min(l, lo[0]);
    h = std::max(h, hi[0]);
  }
  for (; i < n; ++i) {
    l = std::min(l, r[i]);
    h = std::max(h, r[i]);
  }
}

}  // namespace

double block_entropy(const Fab& fab, const Box& region, const EntropyConfig& config) {
  XL_REQUIRE(config.bins >= 2, "entropy needs at least two bins");
  XL_REQUIRE(config.comp >= 0 && config.comp < fab.ncomp(), "component out of range");
  const Box scan = fab.box() & region;
  XL_REQUIRE(!scan.empty(), "entropy of empty region");

  ThreadPool& pool = ThreadPool::global();
  const auto nz = static_cast<std::size_t>(scan.size()[2]);

  double lo = config.range_lo, hi = config.range_hi;
  if (lo >= hi) {
    const std::size_t nchunks = parallel_chunk_count(pool, nz);
    // Per-slab reductions: parallel_for_chunks guarantees every chunk index
    // in [0, nchunks) runs, so each slot is written before the merge reads it.
    std::vector<double> slab_lo(nchunks);
    std::vector<double> slab_hi(nchunks);
    const std::size_t xoff =
        static_cast<std::size_t>(scan.lo()[0] - fab.box().lo()[0]);
    const auto nx = static_cast<std::size_t>(scan.size()[0]);
    parallel_for_chunks(pool, 0, nz,
                        [&](std::size_t c, std::size_t zb, std::size_t ze) {
      double l = std::numeric_limits<double>::infinity();
      double h = -std::numeric_limits<double>::infinity();
      mesh::for_each_row(mesh::z_slab(scan, zb, ze), [&](int j, int k) {
        minmax_scan(fab.row(config.comp, j, k) + xoff, nx, l, h);
      });
      slab_lo[c] = l;
      slab_hi[c] = h;
    });
    lo = std::numeric_limits<double>::infinity();
    hi = -lo;
    for (std::size_t c = 0; c < nchunks; ++c) {
      lo = std::min(lo, slab_lo[c]);
      hi = std::max(hi, slab_hi[c]);
    }
    if (hi <= lo) return 0.0;  // constant block carries no information
  }

  const auto bins = static_cast<std::size_t>(config.bins);
  const double scale = static_cast<double>(config.bins) / (hi - lo);
  const double last_bin = static_cast<double>(config.bins - 1);
  const std::size_t nchunks = parallel_chunk_count(pool, nz);
  // One flat zeroed histogram buffer (nchunks x bins) instead of a vector of
  // per-slab vectors: a single allocation and contiguous rows, one per chunk.
  std::vector<std::size_t> slab_counts(nchunks * bins);
  std::vector<std::size_t> slab_total(nchunks);
  const std::size_t xoff =
      static_cast<std::size_t>(scan.lo()[0] - fab.box().lo()[0]);
  const auto nx = static_cast<std::size_t>(scan.size()[0]);
  parallel_for_chunks(pool, 0, nz,
                      [&](std::size_t c, std::size_t zb, std::size_t ze) {
    std::size_t* counts = slab_counts.data() + c * bins;
    std::size_t total = 0;
    // Binning stays scalar by contract (the counts feed byte-compared
    // output); the row walk removes the per-cell index arithmetic.
    mesh::for_each_row(mesh::z_slab(scan, zb, ze), [&](int j, int k) {
      const double* r = fab.row(config.comp, j, k) + xoff;
      for (std::size_t i = 0; i < nx; ++i) {
        // Guard the bin cast: NaN (and inf-range artifacts) poison the
        // float->int conversion with UB. NaN cells carry no bin and are
        // dropped; ±inf clamps to the edge bins in floating point first.
        const double idx = (r[i] - lo) * scale;
        if (std::isnan(idx)) continue;
        // xl-lint: allow(float-cast): NaN dropped and range clamped above; per-cell hot loop.
        ++counts[static_cast<std::size_t>(std::clamp(idx, 0.0, last_bin))];
        ++total;
      }
    });
    slab_total[c] = total;
  });

  // Integer merges: bit-identical for any slab partition, thread count included.
  std::vector<std::size_t> counts(bins);
  std::size_t total = 0;
  for (std::size_t c = 0; c < nchunks; ++c) {
    for (std::size_t b = 0; b < bins; ++b) counts[b] += slab_counts[c * bins + b];
    total += slab_total[c];
  }
  if (total == 0) return 0.0;  // every cell was NaN

  double entropy = 0.0;
  for (std::size_t b = 0; b < bins; ++b) {
    if (counts[b] == 0) continue;
    const double p = static_cast<double>(counts[b]) / static_cast<double>(total);
    entropy -= p * std::log2(p);
  }
  return entropy;
}

double distribution_entropy(const std::vector<std::int64_t>& weights) {
  double total = 0.0;
  for (std::int64_t w : weights) {
    if (w > 0) total += static_cast<double>(w);
  }
  if (total <= 0.0) return 0.0;
  double entropy = 0.0;
  for (std::int64_t w : weights) {
    if (w <= 0) continue;
    const double p = static_cast<double>(w) / total;
    entropy -= p * std::log2(p);
  }
  return entropy;
}

std::size_t entropy_rung(double entropy, const std::vector<double>& thresholds) {
  XL_REQUIRE(std::is_sorted(thresholds.begin(), thresholds.end()),
             "entropy thresholds must be sorted ascending");
  std::size_t rung = 0;
  for (std::size_t t = thresholds.size(); t-- > 0;) {
    if (entropy >= thresholds[t]) break;
    ++rung;
  }
  return rung;
}

int factor_for_entropy(double entropy, const std::vector<double>& thresholds,
                       const std::vector<int>& factors) {
  XL_REQUIRE(factors.size() == thresholds.size() + 1,
             "need one more factor than thresholds");
  return factors[entropy_rung(entropy, thresholds)];
}

std::vector<BlockDecision> entropy_downsample_plan(const Fab& fab, int block_size,
                                                   const std::vector<double>& thresholds,
                                                   const std::vector<int>& factors,
                                                   const EntropyConfig& config) {
  XL_REQUIRE(block_size >= 1, "block size must be positive");
  const std::vector<Box> blocks = mesh::decompose(fab.box(), block_size);
  std::vector<BlockDecision> plan(blocks.size());
  // One independent decision per block, written by index: deterministic for
  // any thread count. block_entropy's own parallel loops run inline here
  // (nested parallelism degrades to serial on pool workers).
  parallel_for(ThreadPool::global(), 0, blocks.size(),
               [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      BlockDecision d;
      d.block = blocks[i];
      d.entropy = block_entropy(fab, blocks[i], config);
      d.factor = factor_for_entropy(d.entropy, thresholds, factors);
      plan[i] = d;
    }
  });
  return plan;
}

}  // namespace xl::analysis
