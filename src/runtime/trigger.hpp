// Trigger-driven adaptation (Bennett et al., arXiv 1506.08258; Salloum et
// al., arXiv 1508.04731): instead of sampling operational state every fixed k
// steps, the Monitor computes cheap per-step indicator functions (refinement
// structure entropy delta, tagged-cell growth rate, staged-bytes slope) and
// fires adaptations only when the *data* changes. The threshold is a trailing
// quantile of the indicator maintained by a percentile-sampling estimator:
// each step's indicator enters the trailing window with probability
// `sample_rate`, drawn from a counter-keyed seeded stream (FaultPlan-style:
// the draw depends only on (seed, step), never on query order), so
// sub-sampled triggers are bit-identical across reruns and across the
// analytic and discrete-event substrates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string_view>
#include <vector>

namespace xl::runtime {

/// How the Monitor decides which steps are sampling steps.
enum class TriggerPolicy {
  FixedPeriod,  ///< every k-th step (the paper's Fig. 3 cadence; default).
  Percentile,   ///< indicator above the trailing-quantile threshold.
  Hybrid,       ///< Percentile OR a max-interval cap (never starve the engine).
};

const char* trigger_policy_name(TriggerPolicy policy) noexcept;
/// The policy trigger_policy_name gives `name` (fixed | percentile | hybrid);
/// anything else throws ContractError naming `what`, the key or flag.
TriggerPolicy parse_trigger_policy(std::string_view name, std::string_view what);

struct TriggerConfig {
  TriggerPolicy policy = TriggerPolicy::FixedPeriod;
  /// Trailing quantile of the sampled indicator window the current indicator
  /// must exceed to fire (strictly greater: a quiescent all-equal window
  /// never fires itself).
  double quantile = 0.9;
  /// Trailing window: the newest `window` SAMPLED indicator values.
  int window = 16;
  /// Probability a step's indicator enters the window (the percentile-
  /// sampling estimator's sub-sampling rate; 1.0 = keep every step).
  double sample_rate = 1.0;
  /// Hybrid only: force a fire once this many steps passed without one
  /// (bounds how stale the carried decisions can get on quiescent phases).
  int max_interval = 8;
  /// Seed of the counter-keyed sampling draws.
  std::uint64_t seed = 0x7219A4E5u;
};

/// Cheap per-step statistics the indicator functions consume. All three are
/// already available in the Monitor phase without touching field data.
struct TriggerInputs {
  std::int64_t tagged_cells = 0;   ///< cells the analysis would consume.
  std::size_t staged_bytes = 0;    ///< S_data this step would stage.
  double structure_entropy = 0.0;  ///< entropy of the level-occupancy distribution.
};

/// Outcome of one step's trigger evaluation.
struct TriggerDecision {
  bool fire = false;       ///< this is a sampling step.
  double indicator = 0.0;  ///< max of the normalized per-signal indicators.
  double threshold = 0.0;  ///< trailing-quantile threshold compared against.
  bool sampled = false;    ///< indicator entered the trailing window.
  bool capped = false;     ///< Hybrid: fire forced by the max-interval cap.
};

/// Percentile-sampling trigger detector. observe() must be called once per
/// step in step order; all state transitions are deterministic in
/// (config, input sequence).
class TriggerDetector {
 public:
  TriggerDetector() = default;
  explicit TriggerDetector(const TriggerConfig& config);

  const TriggerConfig& config() const noexcept { return config_; }

  /// Evaluate step `step`: compute the indicator from the delta against the
  /// previous step's inputs, test it against the trailing quantile, update
  /// the sampled window, and return the decision. The first observed step
  /// always fires (there is no history to justify suppressing it), as does
  /// every step while the sampled window is still empty.
  TriggerDecision observe(int step, const TriggerInputs& inputs);

  int triggers_fired() const noexcept { return triggers_fired_; }
  int steps_suppressed() const noexcept { return steps_suppressed_; }

 private:
  /// Does step `step`'s indicator enter the window? Counter-keyed stateless
  /// draw (same idiom as FaultPlan::transfer_attempt_fault).
  bool sampling_draw(int step) const;
  double indicator_of(const TriggerInputs& inputs) const;

  TriggerConfig config_;
  bool has_prev_ = false;
  TriggerInputs prev_;
  /// Newest `config_.window` sampled indicators, oldest first.
  std::deque<double> window_;
  int triggers_fired_ = 0;
  int steps_suppressed_ = 0;
  int steps_since_fire_ = 0;  ///< steps since the last fire (0 right after one).
};

}  // namespace xl::runtime
