// Combined cross-layer adaptation (paper §4.4): the heuristic root-leaf
// policy. Mechanisms are described by the objective(s) they serve and the
// quantities they consume/produce; given a user objective the planner
//   1. marks mechanisms sharing the objective as ROOTS,
//   2. marks mechanisms producing the roots' input quantities as LEAVES
//      (transitively),
//   3. orders leaves by their data dependencies and executes leaves -> roots.
//
// The registry below encodes the paper's three mechanisms, so
//   plan(MinimizeTimeToSolution)        == [Application, Resource, Middleware]
//   plan(MaximizeResourceUtilization)   == [Application, Resource]
// exactly as §4.4 walks through. The machinery is generic: new mechanisms
// register with their objectives and data flow and the same planner orders
// them.
#pragma once

#include <string>
#include <vector>

#include "runtime/state.hpp"

namespace xl::runtime {

enum class Layer { Application, Middleware, Resource };

/// Quantities flowing between mechanisms (the S_data and M of §4.4).
/// StagingHealth and RepairBacklog are environment inputs produced by the
/// fault/monitor layer rather than by any mechanism; they gate the middleware
/// and resource policies but never reorder the plan. RepairBacklog is the
/// anti-entropy re-replication traffic queued on the staging cores — part of
/// eq. 7's remaining-time term the placement decision weighs.
enum class Quantity {
  DataSize,
  IntransitCores,
  PlacementDecision,
  StagingHealth,
  RepairBacklog,
};

struct MechanismInfo {
  Layer layer = Layer::Application;
  std::string name;
  std::vector<Objective> objectives;  ///< objectives this mechanism serves.
  std::vector<Quantity> inputs;
  std::vector<Quantity> outputs;
};

/// Execution-order variants for the ablation bench (DESIGN.md §5.4).
enum class PlanOrder { LeavesThenRoots, RootsThenLeaves, Unordered };

class CrossLayerPlanner {
 public:
  /// Planner over the paper's three mechanisms.
  static CrossLayerPlanner standard();

  /// Planner over a custom mechanism set.
  explicit CrossLayerPlanner(std::vector<MechanismInfo> mechanisms);

  /// Ordered layers to execute for `objective`. Mechanisms not reachable
  /// from the roots are excluded (paper: middleware is excluded from the
  /// utilization objective).
  std::vector<Layer> plan(Objective objective,
                          PlanOrder order = PlanOrder::LeavesThenRoots) const;

  const std::vector<MechanismInfo>& mechanisms() const noexcept { return mechanisms_; }

 private:
  std::vector<MechanismInfo> mechanisms_;
};

}  // namespace xl::runtime
