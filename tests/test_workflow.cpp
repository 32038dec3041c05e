// Integration tests for the coupled workflow: the end-to-end accounting
// identities, the qualitative behaviours the paper's figures report
// (adaptive beats static placements, cross-layer reduces movement, resource
// adaptation lifts utilization), and experiment-config sanity.
#include <gtest/gtest.h>

#include "workflow/coupled_workflow.hpp"
#include "workflow/experiment.hpp"

namespace xl::workflow {
namespace {

/// A scaled-down Titan-like run that finishes in well under a second.
WorkflowConfig small_config(Mode mode) {
  WorkflowConfig c;
  c.machine = cluster::titan();
  c.sim_cores = 256;
  c.staging_cores = 16;
  c.steps = 20;
  c.mode = mode;
  c.euler = false;
  c.ncomp = 1;
  c.geometry.base_domain = mesh::Box::domain({256, 128, 128});
  c.geometry.max_levels = 3;
  c.geometry.tile_size = 8;
  c.geometry.max_box_size = 32;
  c.geometry.front_radius0 = 0.12;
  c.geometry.front_speed = 0.01;
  c.geometry.num_blobs = 2;
  c.geometry.blob_onset_step = 5;
  c.geometry.front_decay = 0.7;
  c.geometry.front_decay_onset = 16;
  c.memory_model.ncomp = 1;
  c.costs.sim_advect_flops_per_cell = 260.0;
  c.costs.mc_scan_flops_per_cell = 60.0;
  c.costs.mc_active_flops_per_cell = 900.0;
  c.active_cell_fraction = 0.05;
  c.staging_usable_fraction = 0.002;
  c.adaptation_overhead_seconds = 1.0e-5;
  return c;
}

TEST(CoupledWorkflow, AccountingIdentities) {
  WorkflowResult r = CoupledWorkflow(small_config(Mode::AdaptiveMiddleware)).run();
  ASSERT_EQ(r.steps.size(), 20u);
  EXPECT_GT(r.pure_sim_seconds, 0.0);
  EXPECT_GE(r.end_to_end_seconds, r.pure_sim_seconds);
  EXPECT_NEAR(r.overhead_seconds, r.end_to_end_seconds - r.pure_sim_seconds, 1e-9);
  EXPECT_EQ(r.insitu_count + r.intransit_count, 20);

  double sum_sim = 0.0;
  std::size_t moved = 0;
  for (const StepRecord& s : r.steps) {
    EXPECT_GT(s.sim_seconds, 0.0);
    EXPECT_GT(s.total_cells, 0u);
    EXPECT_GE(s.window_seconds, 0.0);
    sum_sim += s.sim_seconds;
    moved += s.moved_bytes;
    if (s.placement == runtime::Placement::InSitu) {
      EXPECT_EQ(s.moved_bytes, 0u);
      EXPECT_GT(s.insitu_analysis_seconds, 0.0);
    } else {
      EXPECT_GT(s.moved_bytes, 0u);
      EXPECT_GT(s.intransit_analysis_seconds, 0.0);
    }
  }
  EXPECT_NEAR(sum_sim, r.pure_sim_seconds, 1e-9);
  EXPECT_EQ(moved, r.bytes_moved);
}

TEST(CoupledWorkflow, StaticInSituMovesNothing) {
  WorkflowResult r = CoupledWorkflow(small_config(Mode::StaticInSitu)).run();
  EXPECT_EQ(r.bytes_moved, 0u);
  EXPECT_EQ(r.intransit_count, 0);
  EXPECT_EQ(r.insitu_count, 20);
  // In-situ analysis blocks the simulation: overhead equals the summed
  // analysis time.
  double analysis = 0.0;
  for (const auto& s : r.steps) analysis += s.insitu_analysis_seconds;
  EXPECT_NEAR(r.overhead_seconds, analysis, 1e-6 * analysis);
}

TEST(CoupledWorkflow, StaticInTransitMovesEveryStep) {
  WorkflowResult r = CoupledWorkflow(small_config(Mode::StaticInTransit)).run();
  EXPECT_EQ(r.intransit_count, 20);
  std::size_t expected = 0;
  for (const auto& s : r.steps) expected += s.raw_bytes;
  EXPECT_EQ(r.bytes_moved, expected);
}

TEST(CoupledWorkflow, Fig7AdaptiveBeatsBothStatics) {
  const double insitu =
      CoupledWorkflow(small_config(Mode::StaticInSitu)).run().overhead_seconds;
  const double intransit =
      CoupledWorkflow(small_config(Mode::StaticInTransit)).run().overhead_seconds;
  const double adaptive =
      CoupledWorkflow(small_config(Mode::AdaptiveMiddleware)).run().overhead_seconds;
  EXPECT_LT(adaptive, insitu);
  EXPECT_LT(adaptive, intransit);
}

TEST(CoupledWorkflow, Fig8AdaptiveMovesLessThanStaticInTransit) {
  const auto intransit = CoupledWorkflow(small_config(Mode::StaticInTransit)).run();
  const auto adaptive = CoupledWorkflow(small_config(Mode::AdaptiveMiddleware)).run();
  EXPECT_LT(adaptive.bytes_moved, intransit.bytes_moved);
  EXPECT_GT(adaptive.insitu_count, 0);    // it actually adapted...
  EXPECT_GT(adaptive.intransit_count, 0); // ...in both directions
}

TEST(CoupledWorkflow, Fig10GlobalCutsOverheadVsLocal) {
  WorkflowConfig local = small_config(Mode::AdaptiveMiddleware);
  WorkflowConfig global = small_config(Mode::Global);
  global.hints.factor_phases = {{0, {2, 4}}, {10, {2, 4, 8, 16}}};
  const auto r_local = CoupledWorkflow(local).run();
  const auto r_global = CoupledWorkflow(global).run();
  EXPECT_LT(r_global.overhead_seconds, r_local.overhead_seconds);
  // Fig. 11: reduction dominates even though more steps go in-transit.
  EXPECT_LT(r_global.bytes_moved, r_local.bytes_moved);
  // The application layer actually reduced (factor >= 2 on every step).
  for (const auto& s : r_global.steps) EXPECT_GE(s.factor, 2);
}

/// The Fig. 9 regime differs from Fig. 7's: a compute-heavy Euler workload
/// whose static staging pool is OVER-provisioned (idles ~half the time), so
/// the resource layer can shrink the allocation and lift utilization.
WorkflowConfig fig9_config(Mode mode) {
  WorkflowConfig c = small_config(mode);
  c.euler = true;
  c.ncomp = 5;
  c.memory_model.ncomp = 5;
  c.costs.sim_euler_flops_per_cell = 1800.0;
  c.costs.mc_scan_flops_per_cell = 100.0;
  c.costs.mc_active_flops_per_cell = 2500.0;
  c.active_cell_fraction = 0.04;
  c.staging_usable_fraction = 0.02;  // memory ample: no admission waits
  c.objective = runtime::Objective::MaximizeResourceUtilization;
  return c;
}

TEST(CoupledWorkflow, Fig9ResourceAdaptationLiftsUtilization) {
  WorkflowConfig adaptive = fig9_config(Mode::AdaptiveResource);
  WorkflowConfig fixed = fig9_config(Mode::StaticInTransit);
  const auto r_adaptive = CoupledWorkflow(adaptive).run();
  const auto r_fixed = CoupledWorkflow(fixed).run();
  EXPECT_GT(r_adaptive.utilization_efficiency, r_fixed.utilization_efficiency);
  // Adaptive allocation varies with the data; static stays at the pool size.
  int distinct = 0;
  int prev = -1;
  for (const auto& s : r_adaptive.steps) {
    if (s.intransit_cores != prev) ++distinct;
    prev = s.intransit_cores;
  }
  EXPECT_GT(distinct, 1);
  for (const auto& s : r_fixed.steps) EXPECT_EQ(s.intransit_cores, 16);
}

TEST(CoupledWorkflow, DeterministicAcrossRuns) {
  const auto a = CoupledWorkflow(small_config(Mode::Global)).run();
  const auto b = CoupledWorkflow(small_config(Mode::Global)).run();
  EXPECT_DOUBLE_EQ(a.end_to_end_seconds, b.end_to_end_seconds);
  EXPECT_EQ(a.bytes_moved, b.bytes_moved);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].placement, b.steps[i].placement);
    EXPECT_EQ(a.steps[i].intransit_cores, b.steps[i].intransit_cores);
  }
}

TEST(CoupledWorkflow, MonitorPeriodReducesAdaptationOverheadEvents) {
  WorkflowConfig every = small_config(Mode::AdaptiveMiddleware);
  every.monitor.sampling_period = 1;
  WorkflowConfig sparse = small_config(Mode::AdaptiveMiddleware);
  sparse.monitor.sampling_period = 5;
  // Both run; sparse adapts on 1/5 of the steps (same placements reused
  // in between) — behaviourally legal, accounting still consistent.
  const auto r = CoupledWorkflow(sparse).run();
  EXPECT_EQ(r.steps.size(), 20u);
  EXPECT_GE(r.end_to_end_seconds, r.pure_sim_seconds);
}

TEST(CoupledWorkflow, ValidatesConfig) {
  WorkflowConfig c = small_config(Mode::Global);
  c.sim_cores = 0;
  EXPECT_THROW(CoupledWorkflow{c}, ContractError);
  c = small_config(Mode::Global);
  c.staging_usable_fraction = 0.0;
  EXPECT_THROW(CoupledWorkflow{c}, ContractError);
}

// --- Experiment factories ----------------------------------------------------

TEST(Experiments, TitanScalesMatchPaper) {
  const auto scales = titan_scales();
  ASSERT_EQ(scales.size(), 4u);
  EXPECT_EQ(scales[0].sim_cores, 2048);
  EXPECT_EQ(scales[3].sim_cores, 16384);
  for (const auto& s : scales) {
    EXPECT_EQ(s.sim_cores / s.staging_cores, 16);  // the paper's 16:1 ratio
  }
  EXPECT_EQ(scales[0].domain, mesh::Box::domain({1024, 1024, 512}));
  EXPECT_EQ(scales[3].domain, mesh::Box::domain({2048, 2048, 1024}));
}

TEST(Experiments, FactoriesProduceValidConfigs) {
  for (int i = 0; i < 4; ++i) {
    const WorkflowConfig c = titan_middleware_experiment(i, Mode::AdaptiveMiddleware);
    EXPECT_EQ(c.machine.name, "Titan-XK7");
    EXPECT_FALSE(c.euler);
    EXPECT_EQ(c.geometry.nranks, c.sim_cores);
  }
  const WorkflowConfig g = titan_global_experiment(0, Mode::Global);
  EXPECT_EQ(g.hints.factor_phases.size(), 2u);
  EXPECT_EQ(g.hints.factor_phases[1].factors.size(), 4u);

  const WorkflowConfig r = intrepid_resource_experiment(Mode::AdaptiveResource);
  EXPECT_EQ(r.machine.name, "Intrepid-BGP");
  EXPECT_TRUE(r.euler);
  EXPECT_EQ(r.ncomp, 5);
  EXPECT_EQ(r.sim_cores, 4096);
  EXPECT_EQ(r.staging_cores, 256);
}

}  // namespace
}  // namespace xl::workflow
