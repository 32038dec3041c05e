// Tests for the root-leaf cross-layer planner (§4.4): the paper's two worked
// examples, plan-order ablation variants, and generic mechanism graphs.
#include <gtest/gtest.h>

#include "runtime/crosslayer.hpp"

namespace xl::runtime {
namespace {

TEST(CrossLayerPlanner, TimeToSolutionMatchesPaperWalkthrough) {
  // §4.4: middleware is the root; application and resource are leaves;
  // application runs first because its output S_data feeds the resource
  // layer; middleware runs last.
  const CrossLayerPlanner planner = CrossLayerPlanner::standard();
  const auto plan = planner.plan(Objective::MinimizeTimeToSolution);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0], Layer::Application);
  EXPECT_EQ(plan[1], Layer::Resource);
  EXPECT_EQ(plan[2], Layer::Middleware);
}

TEST(CrossLayerPlanner, UtilizationObjectiveExcludesMiddleware) {
  // §4.4: "the middleware adaptation will not be included since it has no
  // data dependency with the root mechanism."
  const CrossLayerPlanner planner = CrossLayerPlanner::standard();
  const auto plan = planner.plan(Objective::MaximizeResourceUtilization);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0], Layer::Application);
  EXPECT_EQ(plan[1], Layer::Resource);
}

TEST(CrossLayerPlanner, DataMovementObjectiveIsApplicationOnly) {
  const CrossLayerPlanner planner = CrossLayerPlanner::standard();
  const auto plan = planner.plan(Objective::MinimizeDataMovement);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0], Layer::Application);
}

TEST(CrossLayerPlanner, RootsThenLeavesReversesOrder) {
  const CrossLayerPlanner planner = CrossLayerPlanner::standard();
  const auto plan =
      planner.plan(Objective::MinimizeTimeToSolution, PlanOrder::RootsThenLeaves);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0], Layer::Middleware);
  EXPECT_EQ(plan[2], Layer::Application);
}

TEST(CrossLayerPlanner, UnorderedUsesRegistryOrder) {
  const CrossLayerPlanner planner = CrossLayerPlanner::standard();
  const auto plan =
      planner.plan(Objective::MinimizeTimeToSolution, PlanOrder::Unordered);
  ASSERT_EQ(plan.size(), 3u);
  // Registry order: Application, Middleware, Resource.
  EXPECT_EQ(plan[0], Layer::Application);
  EXPECT_EQ(plan[1], Layer::Middleware);
  EXPECT_EQ(plan[2], Layer::Resource);
}

TEST(CrossLayerPlanner, CustomMechanismGraphChainsDependencies) {
  // A -> produces DataSize; B consumes DataSize, produces IntransitCores;
  // C (root) consumes IntransitCores only. Plan: A, B, C.
  std::vector<MechanismInfo> mechanisms;
  mechanisms.push_back({Layer::Resource, "C",
                        {Objective::MinimizeTimeToSolution},
                        {Quantity::IntransitCores},
                        {}});
  mechanisms.push_back({Layer::Middleware, "B",
                        {},
                        {Quantity::DataSize},
                        {Quantity::IntransitCores}});
  mechanisms.push_back({Layer::Application, "A", {}, {}, {Quantity::DataSize}});
  const CrossLayerPlanner planner{std::move(mechanisms)};
  const auto plan = planner.plan(Objective::MinimizeTimeToSolution);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0], Layer::Application);
  EXPECT_EQ(plan[1], Layer::Middleware);
  EXPECT_EQ(plan[2], Layer::Resource);
}

TEST(CrossLayerPlanner, UnreachableMechanismsExcluded) {
  std::vector<MechanismInfo> mechanisms;
  mechanisms.push_back({Layer::Middleware, "root",
                        {Objective::MinimizeTimeToSolution},
                        {},
                        {}});
  mechanisms.push_back({Layer::Application, "island", {}, {}, {Quantity::DataSize}});
  const CrossLayerPlanner planner{std::move(mechanisms)};
  const auto plan = planner.plan(Objective::MinimizeTimeToSolution);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0], Layer::Middleware);
}

TEST(CrossLayerPlanner, NoRootMeansEmptyPlan) {
  std::vector<MechanismInfo> mechanisms;
  mechanisms.push_back({Layer::Application, "A", {}, {}, {Quantity::DataSize}});
  const CrossLayerPlanner planner{std::move(mechanisms)};
  EXPECT_TRUE(planner.plan(Objective::MinimizeTimeToSolution).empty());
}

TEST(CrossLayerPlanner, CycleDetected) {
  std::vector<MechanismInfo> mechanisms;
  mechanisms.push_back({Layer::Application, "A",
                        {Objective::MinimizeTimeToSolution},
                        {Quantity::IntransitCores},
                        {Quantity::DataSize}});
  mechanisms.push_back({Layer::Resource, "B",
                        {Objective::MinimizeTimeToSolution},
                        {Quantity::DataSize},
                        {Quantity::IntransitCores}});
  const CrossLayerPlanner planner{std::move(mechanisms)};
  EXPECT_THROW(planner.plan(Objective::MinimizeTimeToSolution), InternalError);
}

TEST(CrossLayerPlanner, RejectsEmptyRegistry) {
  EXPECT_THROW(CrossLayerPlanner({}), ContractError);
}

TEST(CrossLayerPlanner, Names) {
  EXPECT_STREQ(placement_name(Placement::InSitu), "in-situ");
  EXPECT_STREQ(placement_name(Placement::InTransit), "in-transit");
}

}  // namespace
}  // namespace xl::runtime
