#include "runtime/adaptation_engine.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/log.hpp"

namespace xl::runtime {

AdaptationEngine::AdaptationEngine(const EngineConfig& config, EngineHooks hooks)
    : config_(config), hooks_(std::move(hooks)), planner_(CrossLayerPlanner::standard()) {
  XL_REQUIRE(static_cast<bool>(hooks_.analysis_seconds), "engine needs analysis estimator");
  XL_REQUIRE(static_cast<bool>(hooks_.send_seconds), "engine needs send estimator");
  XL_REQUIRE(static_cast<bool>(hooks_.recv_seconds), "engine needs recv estimator");
  XL_REQUIRE(static_cast<bool>(hooks_.next_sim_seconds), "engine needs sim estimator");
  XL_REQUIRE(static_cast<bool>(hooks_.insitu_analysis_mem),
             "engine needs in-situ analysis memory model");
}

EngineDecisions AdaptationEngine::adapt(const OperationalState& state) const {
  EngineDecisions out;
  out.effective_bytes = state.raw_bytes;
  out.effective_cells = state.raw_cells;
  out.intransit_cores = state.intransit_cores;

  std::vector<Layer> plan = planner_.plan(config_.preferences.objective,
                                          config_.plan_order);
  for (Layer layer : plan) {
    const bool enabled = (layer == Layer::Application && config_.enable_application) ||
                         (layer == Layer::Middleware && config_.enable_middleware) ||
                         (layer == Layer::Resource && config_.enable_resource);
    if (!enabled) continue;
    switch (layer) {
      case Layer::Application: run_application(state, out); break;
      case Layer::Resource: run_resource(state, out); break;
      case Layer::Middleware: run_middleware(state, out); break;
    }
    out.executed.push_back(layer);
  }
  return out;
}

void AdaptationEngine::run_application(const OperationalState& state,
                                       EngineDecisions& out) const {
  std::vector<int> factors = config_.hints.factors_at(state.step);
  if (config_.preferences.max_acceptable_factor > 0) {
    std::erase_if(factors, [&](int f) {
      return f > config_.preferences.max_acceptable_factor;
    });
    if (factors.empty()) factors = {config_.preferences.max_acceptable_factor};
  }
  const AppDecision d = select_downsample_factor(
      factors, state.raw_cells, state.ncomp, state.insitu_mem_available,
      config_.app_policy);
  out.app = d;
  out.effective_bytes = d.reduced_bytes;
  const std::size_t f3 =
      static_cast<std::size_t>(d.factor) * d.factor * d.factor;
  out.effective_cells = (state.raw_cells + f3 - 1) / f3;
  XL_LOG_DEBUG("app layer: factor " << d.factor << " reduces "
                                    << state.raw_bytes << "B -> "
                                    << d.reduced_bytes << "B");
}

void AdaptationEngine::run_resource(const OperationalState& state,
                                    EngineDecisions& out) const {
  ResourceInputs in;
  in.data_bytes = out.effective_bytes;
  in.mem_per_core = std::max<std::size_t>(1, state.intransit_mem_per_core);
  in.next_sim_seconds = hooks_.next_sim_seconds(
      state.sim_cells > 0 ? state.sim_cells : state.raw_cells);
  in.send_seconds = hooks_.send_seconds(out.effective_bytes);
  // T_recv depends on M, so it is folded into the per-M estimator below and
  // the flat term zeroed (eq. 9: T_intransit(M) + T_recv <= T_sim + T_sd).
  in.recv_seconds = 0.0;
  in.min_cores = config_.min_intransit_cores;
  in.max_cores = config_.max_intransit_cores;
  in.cores_down = std::min(state.staging_health.servers_down,
                           config_.max_intransit_cores - config_.min_intransit_cores);
  in.slowdown = state.staging_health.slowdown;
  in.intransit_seconds = [this, &out](int cores) {
    return hooks_.analysis_seconds(Placement::InTransit, out.effective_cells, cores) +
           hooks_.recv_seconds(out.effective_bytes, cores);
  };
  const ResourceDecision d = select_intransit_cores(in);
  out.resource = d;
  out.intransit_cores = d.cores;
  XL_LOG_DEBUG("resource layer: M = " << d.cores
                                      << (d.deadline_met ? "" : " (deadline unmet)"));
}

void AdaptationEngine::run_middleware(const OperationalState& state,
                                      EngineDecisions& out) const {
  PlacementInputs in;
  in.data_bytes = out.effective_bytes;
  in.insitu_mem_needed = hooks_.insitu_analysis_mem(out.effective_bytes);
  in.insitu_mem_available = state.insitu_mem_available;
  in.intransit_mem_free = state.intransit_mem_free;
  in.intransit_backlog_seconds = state.intransit_backlog_seconds;
  in.staging_available = !state.staging_health.all_down();
  in.staging_degraded = state.staging_health.degraded();
  in.staging_recovered = state.staging_health.just_recovered;
  in.staging_repairing = state.staging_health.repairing;
  in.est_insitu_seconds =
      hooks_.analysis_seconds(Placement::InSitu, out.effective_cells, state.sim_cores);
  // A fully-down staging partition reports 0 cores; the estimate is moot then
  // (decide_placement returns StagingUnavailable first) but must not trip the
  // estimator's cores >= 1 contract.
  in.est_intransit_seconds = hooks_.analysis_seconds(
      Placement::InTransit, out.effective_cells, std::max(1, out.intransit_cores));
  const MiddlewareDecision d = decide_placement(in);
  out.middleware = d;
  XL_LOG_DEBUG("middleware layer: " << placement_name(d.placement) << " ("
                                    << reason_name(d.reason) << ")");
}

}  // namespace xl::runtime
