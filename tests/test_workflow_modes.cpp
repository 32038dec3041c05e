// Parameterized invariants over every workflow mode: accounting identities,
// trace consistency, and cross-mode dominance relations that must hold for
// any strategy (e.g. no strategy beats the no-analysis lower bound).
#include <gtest/gtest.h>

#include "workflow/coupled_workflow.hpp"
#include "workflow/energy.hpp"

namespace xl::workflow {
namespace {

WorkflowConfig mode_config(Mode mode) {
  WorkflowConfig c;
  c.machine = cluster::titan();
  c.sim_cores = 128;
  c.staging_cores = 8;
  c.steps = 15;
  c.mode = mode;
  c.geometry.base_domain = mesh::Box::domain({128, 64, 64});
  c.geometry.tile_size = 8;
  c.geometry.front_speed = 0.01;
  c.memory_model.ncomp = 1;
  c.hints.factor_phases = {{0, {2, 4}}};
  return c;
}

class ModeInvariants : public ::testing::TestWithParam<Mode> {};

TEST_P(ModeInvariants, AccountingHoldsForEveryMode) {
  const WorkflowResult r = CoupledWorkflow(mode_config(GetParam())).run();
  ASSERT_EQ(r.steps.size(), 15u);
  EXPECT_EQ(r.insitu_count + r.intransit_count, 15);
  EXPECT_GE(r.end_to_end_seconds, r.pure_sim_seconds);
  EXPECT_GE(r.overhead_seconds, 0.0);

  double windows = 0.0;
  std::size_t moved = 0;
  for (const StepRecord& s : r.steps) {
    EXPECT_GE(s.window_seconds, s.sim_seconds - 1e-12);
    EXPECT_GE(s.intransit_cores, 0);
    EXPECT_GE(s.factor, 1);
    EXPECT_GE(s.backlog_seconds, 0.0);
    windows += s.window_seconds;
    moved += s.moved_bytes;
  }
  EXPECT_EQ(moved, r.bytes_moved);
  // Step windows tile the full end-to-end timeline.
  EXPECT_NEAR(windows, r.end_to_end_seconds, 1e-9);
}

TEST_P(ModeInvariants, PlacementMatchesByteFlow) {
  const WorkflowResult r = CoupledWorkflow(mode_config(GetParam())).run();
  for (const StepRecord& s : r.steps) {
    if (s.placement == runtime::Placement::InSitu) {
      EXPECT_EQ(s.moved_bytes, 0u);
      EXPECT_EQ(s.intransit_analysis_seconds, 0.0);
    } else {
      EXPECT_GT(s.moved_bytes, 0u);
      EXPECT_EQ(s.insitu_analysis_seconds, 0.0);
      // Reduced data never exceeds the raw output.
      EXPECT_LE(s.moved_bytes, s.raw_bytes);
    }
  }
}

TEST_P(ModeInvariants, UtilizationWithinBounds) {
  const WorkflowResult r = CoupledWorkflow(mode_config(GetParam())).run();
  EXPECT_GE(r.utilization_efficiency, 0.0);
  EXPECT_LE(r.utilization_efficiency, 1.0 + 1e-9);
}

TEST_P(ModeInvariants, EnergyReportConsistent) {
  const WorkflowConfig cfg = mode_config(GetParam());
  const WorkflowResult r = CoupledWorkflow(cfg).run();
  const EnergyReport e = estimate_energy(r, cfg.sim_cores);
  EXPECT_GT(e.total_joules(), 0.0);
  if (r.bytes_moved == 0) {
    EXPECT_DOUBLE_EQ(e.network_joules, 0.0);
  }
  if (r.bytes_moved > 0) {
    EXPECT_GT(e.network_joules, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, ModeInvariants,
                         ::testing::Values(Mode::StaticInSitu, Mode::StaticInTransit,
                                           Mode::AdaptiveMiddleware,
                                           Mode::AdaptiveResource, Mode::Global),
                         [](const ::testing::TestParamInfo<Mode>& info) {
                           std::string name = mode_name(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(ModeRelations, HybridSplitsAcrossBothPartitions) {
  // §3: "Placements can be in-situ, in-transit or hybrid". The hybrid run
  // must (a) move some but not all of the data, and (b) charge analysis time
  // on both partitions overall.
  const WorkflowResult hybrid = CoupledWorkflow(mode_config(Mode::StaticHybrid)).run();
  const WorkflowResult fixed =
      CoupledWorkflow(mode_config(Mode::StaticInTransit)).run();
  EXPECT_GT(hybrid.bytes_moved, 0u);
  EXPECT_LE(hybrid.bytes_moved, fixed.bytes_moved);
  double insitu_s = 0.0, intransit_s = 0.0;
  for (const StepRecord& s : hybrid.steps) {
    insitu_s += s.insitu_analysis_seconds;
    intransit_s += s.intransit_analysis_seconds;
  }
  EXPECT_GT(intransit_s, 0.0);
  // Hybrid in-situ remainder only exists when staging alone cannot hide the
  // work; with the in-transit share capped at the step duration, the hidden
  // part never exceeds the full in-transit time.
  EXPECT_GE(insitu_s, 0.0);
  EXPECT_EQ(hybrid.insitu_count + hybrid.intransit_count,
            static_cast<int>(hybrid.steps.size()));
}

TEST(ModeRelations, GlobalEmploysAllThreeLayers) {
  // The paper's §5.2.4 observation: in the global run every layer's
  // mechanism executes; the local run uses only the middleware layer.
  WorkflowConfig global = mode_config(Mode::Global);
  const WorkflowResult g = CoupledWorkflow(global).run();
  EXPECT_GT(g.application_adaptations, 0);
  EXPECT_GT(g.resource_adaptations, 0);
  EXPECT_GT(g.middleware_adaptations, 0);

  const WorkflowResult local =
      CoupledWorkflow(mode_config(Mode::AdaptiveMiddleware)).run();
  EXPECT_EQ(local.application_adaptations, 0);
  EXPECT_EQ(local.resource_adaptations, 0);
  EXPECT_GT(local.middleware_adaptations, 0);

  const WorkflowResult fixed = CoupledWorkflow(mode_config(Mode::StaticInSitu)).run();
  EXPECT_EQ(fixed.application_adaptations + fixed.resource_adaptations +
                fixed.middleware_adaptations,
            0);
}

TEST(ModeRelations, PureSimIsTheLowerBound) {
  // Every strategy's end-to-end time is bounded below by the pure simulation
  // time, and they all simulate the identical workload.
  double sim_ref = -1.0;
  for (Mode mode : {Mode::StaticInSitu, Mode::StaticInTransit,
                    Mode::AdaptiveMiddleware, Mode::Global}) {
    const WorkflowResult r = CoupledWorkflow(mode_config(mode)).run();
    if (sim_ref < 0.0) sim_ref = r.pure_sim_seconds;
    EXPECT_NEAR(r.pure_sim_seconds, sim_ref, 1e-9);
    EXPECT_GE(r.end_to_end_seconds, sim_ref);
  }
}

TEST(ModeRelations, GlobalNeverMovesMoreRawBytesThanStaticInTransit) {
  const WorkflowResult fixed =
      CoupledWorkflow(mode_config(Mode::StaticInTransit)).run();
  const WorkflowResult global = CoupledWorkflow(mode_config(Mode::Global)).run();
  EXPECT_LE(global.bytes_moved, fixed.bytes_moved);
}

}  // namespace
}  // namespace xl::workflow
