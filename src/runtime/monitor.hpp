// The Monitor (paper §3): samples runtime status at the three layers every k
// simulation steps and provides the execution-time estimators the middleware
// policy's eq. 7 needs. Estimation is history-based: per-cell kernel costs
// are tracked with an EWMA (or last-value / injected-oracle for the ablation
// bench) and scaled by the current data size and core count.
#pragma once

#include <cstddef>
#include <optional>

#include "common/stats.hpp"
#include "runtime/state.hpp"
#include "runtime/trigger.hpp"

namespace xl::runtime {

/// One completed analysis observation.
struct AnalysisSample {
  int step = 0;
  Placement placement = Placement::InSitu;
  std::size_t cells = 0;
  int cores = 1;
  double seconds = 0.0;
};

enum class EstimatorKind { Ewma, LastValue, Oracle };

struct MonitorConfig {
  int sampling_period = 1;   ///< monitor every k steps (Fig. 3's cadence).
  EstimatorKind estimator = EstimatorKind::Ewma;
  double ewma_alpha = 0.5;
  /// Parallel-efficiency exponent used to normalize observations taken at
  /// different core counts: seconds ~ cells / cores^eff.
  double parallel_efficiency = 0.95;
  /// Seed estimate used before any observation exists (seconds per cell per
  /// effective core).
  double prior_cost = 1.0e-7;
  /// Sampling-step selection: fixed k-step cadence (default, byte-identical
  /// to the paper's Fig. 3 monitor) or the indicator/percentile trigger.
  TriggerConfig trigger;
};

class Monitor {
 public:
  explicit Monitor(const MonitorConfig& config = {});

  const MonitorConfig& config() const noexcept { return config_; }

  /// Arm the sampling gate for `step` from this step's cheap field
  /// statistics. FixedPeriod policy ignores the inputs and keeps the k-step
  /// cadence; Percentile/Hybrid run the TriggerDetector. Must be called in
  /// step order, once per step, before should_sample(step) is consulted.
  TriggerDecision observe_step(int step, const TriggerInputs& inputs);

  /// Is `step` a sampling step (adaptations only trigger on these)? Under
  /// the trigger policies this reads the decision observe_step armed for
  /// `step`; a step that was never observed is not a sampling step.
  bool should_sample(int step) const noexcept {
    if (config_.trigger.policy == TriggerPolicy::FixedPeriod) {
      return step % config_.sampling_period == 0;
    }
    return armed_step_ == step && armed_fire_;
  }

  const TriggerDetector& trigger() const noexcept { return trigger_; }

  /// Record a finished analysis execution.
  void record_analysis(const AnalysisSample& sample);

  /// Record a simulation step duration together with the cell count it
  /// advanced (the estimator scales by the cell ratio).
  void record_sim_step(int step, double seconds, std::size_t cells);

  /// Inject the true upcoming cost (Oracle estimator ablation only). The
  /// injected values hold until clear_oracle(): callers must clear once the
  /// step's decisions consumed them, or a one-step oracle would silently
  /// override the EWMA estimate on every later (possibly off-cadence) call.
  void set_oracle(double insitu_seconds, double intransit_seconds);

  /// Drop any injected oracle values; estimates fall back to the history-
  /// based estimator. No-op when nothing is injected.
  void clear_oracle() noexcept {
    oracle_insitu_.reset();
    oracle_intransit_.reset();
  }

  /// Estimated in-situ analysis time for `cells` on `cores` (eq. 7's
  /// T_insitu(N, S_data)).
  double estimate_analysis_seconds(Placement placement, std::size_t cells,
                                   int cores) const;

  /// Estimated next simulation step duration (resource policy eq. 9 needs
  /// T_{i+1}_sim); last observation, scaled by the cell ratio. Before the
  /// first record_sim_step observation this falls back to a prior_cost-scaled
  /// estimate (the way estimate_analysis_seconds does) instead of returning
  /// 0.0 — a zero next-step time would unbalance eq. 9 on the first sample.
  double estimate_sim_seconds(std::size_t cells) const;

 private:
  double normalized_cost(Placement placement) const;

  MonitorConfig config_;
  Ewma insitu_cost_;     ///< seconds per cell per effective core.
  Ewma intransit_cost_;
  double last_insitu_cost_ = 0.0;
  double last_intransit_cost_ = 0.0;
  bool has_insitu_ = false;
  bool has_intransit_ = false;
  std::optional<double> oracle_insitu_;
  std::optional<double> oracle_intransit_;
  double last_sim_seconds_ = 0.0;
  std::size_t last_sim_cells_ = 0;
  TriggerDetector trigger_;
  int armed_step_ = -1;      ///< step the latest observe_step evaluated.
  bool armed_fire_ = false;  ///< its decision (trigger policies only).
};

}  // namespace xl::runtime
