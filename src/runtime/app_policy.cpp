#include "runtime/app_policy.hpp"

#include <algorithm>

#include "analysis/entropy.hpp"
#include "common/contract.hpp"
#include "common/error.hpp"

namespace xl::runtime {

namespace {

AppDecision decision_for(int factor, std::size_t raw_cells, int ncomp,
                         const AppPolicyConfig& config) {
  AppDecision d;
  d.factor = factor;
  d.reduced_bytes = analysis::reduced_bytes(raw_cells, ncomp, factor);
  d.scratch_bytes =
      analysis::reduction_scratch_bytes(raw_cells, ncomp, factor, config.method);
  return d;
}

}  // namespace

AppDecision select_downsample_factor(const std::vector<int>& acceptable,
                                     std::size_t raw_cells, int ncomp,
                                     std::size_t mem_available_bytes,
                                     const AppPolicyConfig& config) {
  XL_REQUIRE(!acceptable.empty(), "acceptable factor set must be non-empty");
  XL_REQUIRE(std::is_sorted(acceptable.begin(), acceptable.end()),
             "acceptable factors must be sorted ascending");
  XL_REQUIRE(acceptable.front() >= 1, "factors must be >= 1");
  const auto budget = f2s(config.memory_headroom *
                          static_cast<double>(mem_available_bytes));
  // Eq. 1-3: the smallest X (highest retained resolution) whose reduction
  // fits the memory constraint (eq. 2).
  for (int factor : acceptable) {
    AppDecision d = decision_for(factor, raw_cells, ncomp, config);
    if (d.scratch_bytes <= budget) return d;
  }
  AppDecision d = decision_for(acceptable.back(), raw_cells, ncomp, config);
  d.memory_constrained = true;
  return d;
}

AppDecision select_factor_by_entropy(double block_entropy,
                                     const std::vector<double>& thresholds,
                                     const std::vector<int>& acceptable,
                                     std::size_t raw_cells, int ncomp,
                                     std::size_t mem_available_bytes,
                                     const AppPolicyConfig& config) {
  // User hints are free-form: the ladder's length need not match the
  // threshold list, so the rung is clamped to the ladder.
  XL_REQUIRE(!acceptable.empty(), "acceptable factor set must be non-empty");
  const std::size_t rung = analysis::entropy_rung(block_entropy, thresholds);
  const int wanted = acceptable[std::min(rung, acceptable.size() - 1)];
  // Memory can only push the factor further up the ladder, never down.
  std::vector<int> allowed;
  for (int f : acceptable) {
    if (f >= wanted) allowed.push_back(f);
  }
  XL_CHECK(!allowed.empty(), "factor ladder lost its own member");
  return select_downsample_factor(allowed, raw_cells, ncomp, mem_available_bytes,
                                  config);
}

}  // namespace xl::runtime
