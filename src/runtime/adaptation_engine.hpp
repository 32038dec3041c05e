// The Adaptation Engine (paper §3, Fig. 2/3): on each monitoring sample it
// asks the cross-layer planner which mechanisms serve the user objective,
// executes them leaves-to-roots, and returns the combined decisions. The
// engine is purely functional over an OperationalState snapshot plus
// estimator hooks, so the same engine drives the in-process workflow, the
// machine-scale DES workflow, and the unit tests.
#pragma once

#include <functional>
#include <optional>

#include "runtime/app_policy.hpp"
#include "runtime/crosslayer.hpp"
#include "runtime/middleware_policy.hpp"
#include "runtime/monitor.hpp"
#include "runtime/resource_policy.hpp"
#include "runtime/state.hpp"

namespace xl::runtime {

/// Estimator callbacks the engine needs; typically bound to the Monitor and
/// the transport's transfer model.
struct EngineHooks {
  /// T_analysis(placement, cells, cores) — usually Monitor::estimate_analysis_seconds.
  std::function<double(Placement, std::size_t, int)> analysis_seconds;
  /// T_sd(bytes): send latency from simulation to staging.
  std::function<double(std::size_t)> send_seconds;
  /// T_recv(bytes, staging_cores): receive latency on the staging side; it
  /// scales with M because M staging cores span M/cores_per_node NICs.
  std::function<double(std::size_t, int)> recv_seconds;
  /// T_{i+1}_sim(cells): next simulation step estimate.
  std::function<double(std::size_t)> next_sim_seconds;
  /// Scratch memory an in-situ analysis of `bytes` of data needs.
  std::function<std::size_t(std::size_t)> insitu_analysis_mem;
};

/// Which single-layer mechanisms are enabled. The §5.2.2 "local middleware
/// adaptation" run enables only the middleware layer; the §5.2.4 "global"
/// run enables all three through the planner.
struct EngineConfig {
  UserPreferences preferences;
  UserHints hints;
  bool enable_application = true;
  bool enable_middleware = true;
  bool enable_resource = true;
  /// Root-leaf execution order (ablation knob; the paper uses LeavesThenRoots).
  PlanOrder plan_order = PlanOrder::LeavesThenRoots;
  AppPolicyConfig app_policy;
  /// Resource-layer bounds on M.
  int min_intransit_cores = 1;
  int max_intransit_cores = 1 << 20;
};

struct EngineDecisions {
  std::vector<Layer> executed;            ///< layers run, in execution order.
  std::optional<AppDecision> app;         ///< set when the application layer ran.
  std::optional<ResourceDecision> resource;
  std::optional<MiddlewareDecision> middleware;

  /// Data size/cells after the application layer (raw values when it didn't run).
  std::size_t effective_bytes = 0;
  std::size_t effective_cells = 0;
  /// In-transit cores after the resource layer (state's M when it didn't run).
  int intransit_cores = 0;
};

class AdaptationEngine {
 public:
  AdaptationEngine(const EngineConfig& config, EngineHooks hooks);

  /// Run the adaptation for one monitoring sample.
  EngineDecisions adapt(const OperationalState& state) const;

  const EngineConfig& config() const noexcept { return config_; }

 private:
  void run_application(const OperationalState& state, EngineDecisions& out) const;
  void run_resource(const OperationalState& state, EngineDecisions& out) const;
  void run_middleware(const OperationalState& state, EngineDecisions& out) const;

  EngineConfig config_;
  EngineHooks hooks_;
  CrossLayerPlanner planner_;
};

}  // namespace xl::runtime
