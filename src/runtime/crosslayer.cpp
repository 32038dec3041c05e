#include "runtime/crosslayer.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace xl::runtime {

CrossLayerPlanner CrossLayerPlanner::standard() {
  std::vector<MechanismInfo> mechanisms;
  mechanisms.push_back(MechanismInfo{
      Layer::Application,
      "data-resolution",
      {Objective::MinimizeDataMovement},
      {},
      {Quantity::DataSize}});
  mechanisms.push_back(MechanismInfo{
      Layer::Middleware,
      "analysis-placement",
      {Objective::MinimizeTimeToSolution},
      {Quantity::DataSize, Quantity::IntransitCores, Quantity::StagingHealth,
       Quantity::RepairBacklog},
      {Quantity::PlacementDecision}});
  mechanisms.push_back(MechanismInfo{
      Layer::Resource,
      "intransit-allocation",
      {Objective::MaximizeResourceUtilization},
      {Quantity::DataSize, Quantity::StagingHealth},
      {Quantity::IntransitCores}});
  return CrossLayerPlanner(std::move(mechanisms));
}

CrossLayerPlanner::CrossLayerPlanner(std::vector<MechanismInfo> mechanisms)
    : mechanisms_(std::move(mechanisms)) {
  XL_REQUIRE(!mechanisms_.empty(), "planner needs at least one mechanism");
}

std::vector<Layer> CrossLayerPlanner::plan(Objective objective, PlanOrder order) const {
  const std::size_t n = mechanisms_.size();

  // Step 1: roots share the cross-layer objective.
  std::vector<bool> selected(n, false);
  std::vector<std::size_t> roots;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& objs = mechanisms_[i].objectives;
    if (std::find(objs.begin(), objs.end(), objective) != objs.end()) {
      selected[i] = true;
      roots.push_back(i);
    }
  }

  // Step 2: walk the roots' inputs transitively; producers become leaves.
  std::vector<std::size_t> frontier = roots;
  while (!frontier.empty()) {
    const std::size_t cur = frontier.back();
    frontier.pop_back();
    for (Quantity needed : mechanisms_[cur].inputs) {
      for (std::size_t j = 0; j < n; ++j) {
        if (selected[j]) continue;
        const auto& outs = mechanisms_[j].outputs;
        if (std::find(outs.begin(), outs.end(), needed) != outs.end()) {
          selected[j] = true;
          frontier.push_back(j);
        }
      }
    }
  }

  // Step 3: topological order by data dependency (producer before consumer)
  // among the selected mechanisms. Kahn's algorithm; ties resolve in registry
  // order, which keeps plans deterministic.
  std::vector<std::size_t> indegree(n, 0);
  auto depends_on = [&](std::size_t consumer, std::size_t producer) {
    for (Quantity q : mechanisms_[consumer].inputs) {
      const auto& outs = mechanisms_[producer].outputs;
      if (std::find(outs.begin(), outs.end(), q) != outs.end()) return true;
    }
    return false;
  };
  for (std::size_t i = 0; i < n; ++i) {
    if (!selected[i]) continue;
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j || !selected[j]) continue;
      if (depends_on(i, j)) ++indegree[i];
    }
  }
  std::vector<Layer> plan_order;
  std::vector<bool> done(n, false);
  for (std::size_t emitted = 0;;) {
    bool progressed = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (!selected[i] || done[i] || indegree[i] != 0) continue;
      plan_order.push_back(mechanisms_[i].layer);
      done[i] = true;
      ++emitted;
      for (std::size_t k = 0; k < n; ++k) {
        if (selected[k] && !done[k] && depends_on(k, i)) --indegree[k];
      }
      progressed = true;
    }
    if (!progressed) {
      // Either everything is emitted or a dependency cycle remains.
      std::size_t selected_count = 0;
      for (std::size_t i = 0; i < n; ++i) selected_count += selected[i] ? 1 : 0;
      XL_CHECK(emitted == selected_count, "mechanism dependency cycle");
      break;
    }
  }

  switch (order) {
    case PlanOrder::LeavesThenRoots:
      return plan_order;  // topological order IS leaves -> roots.
    case PlanOrder::RootsThenLeaves:
      std::reverse(plan_order.begin(), plan_order.end());
      return plan_order;
    case PlanOrder::Unordered: {
      // Registry order, ignoring dependencies (the uncoordinated ablation).
      std::vector<Layer> unordered;
      for (std::size_t i = 0; i < n; ++i) {
        if (selected[i]) unordered.push_back(mechanisms_[i].layer);
      }
      return unordered;
    }
  }
  XL_UNREACHABLE("unknown plan order");
}

}  // namespace xl::runtime
