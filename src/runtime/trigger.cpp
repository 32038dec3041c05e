#include "runtime/trigger.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace xl::runtime {

const char* trigger_policy_name(TriggerPolicy policy) noexcept {
  switch (policy) {
    case TriggerPolicy::FixedPeriod: return "fixed";
    case TriggerPolicy::Percentile: return "percentile";
    case TriggerPolicy::Hybrid: return "hybrid";
  }
  return "?";
}

TriggerPolicy parse_trigger_policy(std::string_view name, std::string_view what) {
  for (TriggerPolicy policy :
       {TriggerPolicy::FixedPeriod, TriggerPolicy::Percentile, TriggerPolicy::Hybrid}) {
    if (name == trigger_policy_name(policy)) return policy;
  }
  throw ContractError(std::string(what) + ": unknown trigger policy '" + std::string(name) +
                      "' (expected fixed|percentile|hybrid)");
}

TriggerDetector::TriggerDetector(const TriggerConfig& config) : config_(config) {
  XL_REQUIRE(config.quantile > 0.0 && config.quantile < 1.0,
             "trigger quantile must be in (0, 1)");
  XL_REQUIRE(config.window >= 2, "trigger window must hold at least 2 samples");
  XL_REQUIRE(config.sample_rate > 0.0 && config.sample_rate <= 1.0,
             "trigger sample rate must be in (0, 1]");
  XL_REQUIRE(config.max_interval >= 1, "trigger max interval must be >= 1");
}

bool TriggerDetector::sampling_draw(int step) const {
  if (config_.sample_rate >= 1.0) return true;
  // Counter-keyed stream: one fresh Rng per step, so the draw depends only on
  // (seed, step) — reruns and both substrates replay the identical window.
  Rng rng(config_.seed ^ (static_cast<std::uint64_t>(step) * 0xD1342543DE82EF95ull) ^
          0x9E3779B97F4A7C15ull);
  return rng.next_double() < config_.sample_rate;
}

double TriggerDetector::indicator_of(const TriggerInputs& inputs) const {
  // Three normalized relative-change signals; the indicator is their max so a
  // shock visible in ANY of them arms the trigger. Each is |delta| / previous
  // magnitude (clamped away from zero), so the indicator is scale-free and a
  // quiescent phase pins it at exactly 0.
  const double prev_cells =
      std::max(1.0, static_cast<double>(std::llabs(prev_.tagged_cells)));
  const double cell_growth =
      std::abs(static_cast<double>(inputs.tagged_cells - prev_.tagged_cells)) /
      prev_cells;
  const double prev_bytes = std::max(
      1.0, static_cast<double>(prev_.staged_bytes));
  const double delta_bytes =
      inputs.staged_bytes >= prev_.staged_bytes
          ? static_cast<double>(inputs.staged_bytes - prev_.staged_bytes)
          : static_cast<double>(prev_.staged_bytes - inputs.staged_bytes);
  const double bytes_slope = delta_bytes / prev_bytes;
  const double entropy_delta =
      std::abs(inputs.structure_entropy - prev_.structure_entropy);
  return std::max({cell_growth, bytes_slope, entropy_delta});
}

TriggerDecision TriggerDetector::observe(int step, const TriggerInputs& inputs) {
  TriggerDecision decision;
  decision.indicator = has_prev_ ? indicator_of(inputs) : 0.0;

  bool armed;
  if (!has_prev_ || window_.empty()) {
    // No history to justify suppression: the first step (and every step until
    // the percentile estimator holds at least one sample) fires.
    armed = true;
  } else {
    // Trailing quantile of the sampled window; strict > so an all-equal
    // quiescent window never triggers on its own noise floor.
    SampleSet trailing;
    for (double v : window_) trailing.add(v);
    decision.threshold = trailing.quantile(config_.quantile);
    armed = decision.indicator > decision.threshold;
  }
  decision.capped = config_.policy == TriggerPolicy::Hybrid && !armed &&
                    steps_since_fire_ + 1 >= config_.max_interval;
  decision.fire = armed || decision.capped;

  // The window is updated AFTER the threshold test (the current indicator
  // never competes against itself).
  decision.sampled = sampling_draw(step);
  if (decision.sampled) {
    window_.push_back(decision.indicator);
    while (window_.size() > static_cast<std::size_t>(config_.window)) {
      window_.pop_front();
    }
  }

  has_prev_ = true;
  prev_ = inputs;
  if (decision.fire) {
    ++triggers_fired_;
    steps_since_fire_ = 0;
  } else {
    ++steps_suppressed_;
    ++steps_since_fire_;
  }
  return decision;
}

}  // namespace xl::runtime
