#include "runtime/monitor.hpp"

#include <cmath>

#include "common/error.hpp"

namespace xl::runtime {

const char* placement_name(Placement placement) noexcept {
  switch (placement) {
    case Placement::InSitu: return "in-situ";
    case Placement::InTransit: return "in-transit";
  }
  return "?";
}

Monitor::Monitor(const MonitorConfig& config)
    : config_(config),
      insitu_cost_(config.ewma_alpha),
      intransit_cost_(config.ewma_alpha),
      trigger_(config.trigger) {
  XL_REQUIRE(config.sampling_period >= 1, "sampling period must be positive");
  XL_REQUIRE(config.prior_cost > 0.0, "prior cost must be positive");
}

TriggerDecision Monitor::observe_step(int step, const TriggerInputs& inputs) {
  if (config_.trigger.policy == TriggerPolicy::FixedPeriod) {
    // The fixed cadence never consults the detector: the default path stays
    // byte-identical (and cost-identical) to the pre-trigger Monitor.
    TriggerDecision decision;
    decision.fire = should_sample(step);
    return decision;
  }
  const TriggerDecision decision = trigger_.observe(step, inputs);
  armed_step_ = step;
  armed_fire_ = decision.fire;
  return decision;
}

void Monitor::record_analysis(const AnalysisSample& sample) {
  XL_REQUIRE(sample.cells > 0, "analysis sample needs cells");
  XL_REQUIRE(sample.cores >= 1, "analysis sample needs cores");
  XL_REQUIRE(sample.seconds >= 0.0, "negative analysis time");
  const double eff_cores =
      std::pow(static_cast<double>(sample.cores), config_.parallel_efficiency);
  const double cost = sample.seconds * eff_cores / static_cast<double>(sample.cells);
  if (sample.placement == Placement::InSitu) {
    insitu_cost_.add(cost);
    last_insitu_cost_ = cost;
    has_insitu_ = true;
  } else {
    intransit_cost_.add(cost);
    last_intransit_cost_ = cost;
    has_intransit_ = true;
  }
}

void Monitor::record_sim_step(int /*step*/, double seconds, std::size_t cells) {
  last_sim_seconds_ = seconds;
  last_sim_cells_ = cells;
}

void Monitor::set_oracle(double insitu_seconds, double intransit_seconds) {
  oracle_insitu_ = insitu_seconds;
  oracle_intransit_ = intransit_seconds;
}

double Monitor::normalized_cost(Placement placement) const {
  const bool insitu = placement == Placement::InSitu;
  switch (config_.estimator) {
    case EstimatorKind::Ewma: {
      const Ewma& e = insitu ? insitu_cost_ : intransit_cost_;
      return e.empty() ? config_.prior_cost : e.value();
    }
    case EstimatorKind::LastValue: {
      const bool has = insitu ? has_insitu_ : has_intransit_;
      return has ? (insitu ? last_insitu_cost_ : last_intransit_cost_)
                 : config_.prior_cost;
    }
    case EstimatorKind::Oracle:
      // Oracle values are absolute seconds; handled in the caller. Fall back
      // to EWMA when no oracle value was injected this step.
      return (insitu ? insitu_cost_ : intransit_cost_).empty()
                 ? config_.prior_cost
                 : (insitu ? insitu_cost_ : intransit_cost_).value();
  }
  XL_UNREACHABLE("unknown estimator kind");
}

double Monitor::estimate_analysis_seconds(Placement placement, std::size_t cells,
                                          int cores) const {
  XL_REQUIRE(cores >= 1, "need at least one core");
  if (config_.estimator == EstimatorKind::Oracle) {
    if (placement == Placement::InSitu && oracle_insitu_) return *oracle_insitu_;
    if (placement == Placement::InTransit && oracle_intransit_) return *oracle_intransit_;
  }
  const double eff_cores = std::pow(static_cast<double>(cores), config_.parallel_efficiency);
  return normalized_cost(placement) * static_cast<double>(cells) / eff_cores;
}

double Monitor::estimate_sim_seconds(std::size_t cells) const {
  if (last_sim_cells_ == 0 || last_sim_seconds_ <= 0.0) {
    // No usable observation yet: a prior_cost-scaled estimate, mirroring
    // estimate_analysis_seconds' cold start, so the resource policy's eq. 9
    // balance never sees a zero next-step time on the first sampling step.
    return config_.prior_cost * static_cast<double>(cells);
  }
  return last_sim_seconds_ * static_cast<double>(cells) /
         static_cast<double>(last_sim_cells_);
}

}  // namespace xl::runtime
