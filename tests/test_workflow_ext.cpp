// Tests for the workflow extensions: energy accounting (the paper's §7
// future-work direction), trace export, and subcycled AMR time stepping.
#include <cmath>
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "amr/advection_diffusion.hpp"
#include "amr/amr_simulation.hpp"
#include "workflow/coupled_workflow.hpp"
#include "workflow/energy.hpp"
#include "workflow/trace_io.hpp"

namespace xl::workflow {
namespace {

WorkflowConfig tiny_config(Mode mode) {
  WorkflowConfig c;
  c.machine = cluster::titan();
  c.sim_cores = 128;
  c.staging_cores = 8;
  c.steps = 10;
  c.mode = mode;
  c.geometry.base_domain = mesh::Box::domain({128, 64, 64});
  c.geometry.tile_size = 8;
  c.memory_model.ncomp = 1;
  return c;
}

// --- Energy accounting -------------------------------------------------------

TEST(Energy, ComponentsArePositiveAndSum) {
  const WorkflowResult r = CoupledWorkflow(tiny_config(Mode::StaticInTransit)).run();
  const EnergyReport e = estimate_energy(r, 128);
  EXPECT_GT(e.sim_compute_joules, 0.0);
  EXPECT_GT(e.staging_active_joules, 0.0);
  EXPECT_GT(e.network_joules, 0.0);
  EXPECT_NEAR(e.total_joules(),
              e.sim_compute_joules + e.insitu_analysis_joules + e.sim_idle_joules +
                  e.staging_active_joules + e.staging_idle_joules + e.network_joules,
              1e-9);
}

TEST(Energy, InSituBurnsNoNetworkEnergy) {
  const WorkflowResult r = CoupledWorkflow(tiny_config(Mode::StaticInSitu)).run();
  const EnergyReport e = estimate_energy(r, 128);
  EXPECT_DOUBLE_EQ(e.network_joules, 0.0);
  EXPECT_GT(e.insitu_analysis_joules, 0.0);
}

TEST(Energy, NetworkEnergyProportionalToMovement) {
  const WorkflowResult r = CoupledWorkflow(tiny_config(Mode::StaticInTransit)).run();
  PowerSpec p;
  const EnergyReport e = estimate_energy(r, 128, p);
  EXPECT_NEAR(e.network_joules,
              p.network_joules_per_byte * static_cast<double>(r.bytes_moved), 1e-9);
}

TEST(Energy, HigherPowerSpecScalesReport) {
  const WorkflowResult r = CoupledWorkflow(tiny_config(Mode::StaticInTransit)).run();
  PowerSpec low, high;
  high.active_watts_per_core = 2.0 * low.active_watts_per_core;
  high.idle_watts_per_core = 2.0 * low.idle_watts_per_core;
  high.network_joules_per_byte = 2.0 * low.network_joules_per_byte;
  EXPECT_NEAR(estimate_energy(r, 128, high).total_joules(),
              2.0 * estimate_energy(r, 128, low).total_joules(), 1e-6);
}

TEST(Energy, ValidatesInputs) {
  const WorkflowResult r = CoupledWorkflow(tiny_config(Mode::StaticInSitu)).run();
  EXPECT_THROW(estimate_energy(r, 0), ContractError);
}

// --- Trace export ------------------------------------------------------------

TEST(TraceIo, CsvHasHeaderAndOneRowPerStep) {
  const WorkflowResult r = CoupledWorkflow(tiny_config(Mode::AdaptiveMiddleware)).run();
  std::ostringstream os;
  write_steps_csv(os, r);
  const std::string csv = os.str();
  std::size_t lines = 0;
  for (char ch : csv) lines += ch == '\n';
  EXPECT_EQ(lines, r.steps.size() + 1);
  EXPECT_EQ(csv.substr(0, 5), "step,");
  EXPECT_NE(csv.find("placement"), std::string::npos);
  EXPECT_NE(csv.find("in-"), std::string::npos);  // at least one placement value
}

TEST(TraceIo, SummaryContainsKeyFigures) {
  const WorkflowResult r = CoupledWorkflow(tiny_config(Mode::AdaptiveMiddleware)).run();
  const std::string s = summarize(r);
  EXPECT_NE(s.find("end_to_end_s="), std::string::npos);
  EXPECT_NE(s.find("moved_bytes="), std::string::npos);
  EXPECT_NE(s.find("staging_utilization="), std::string::npos);
}

// --- Subcycled AMR -----------------------------------------------------------

amr::AmrConfig subcycle_config(bool subcycle) {
  amr::AmrConfig cfg;
  cfg.base_domain = mesh::Box::domain({16, 16, 16});
  cfg.max_levels = 2;
  cfg.ref_ratio = 2;
  cfg.max_box_size = 8;
  cfg.nghost = 2;
  cfg.nranks = 1;
  cfg.subcycle = subcycle;
  return cfg;
}

TEST(Subcycling, LargerCoarseDtThanNonSubcycled) {
  auto make = [&](bool sub) {
    auto phys = std::make_shared<amr::AdvectionDiffusion>();
    amr::AmrSimulation sim(subcycle_config(sub), phys, {}, 0.4,
                           /*regrid_interval=*/1000);
    sim.initialize();
    return sim.advance().dt;
  };
  const double dt_plain = make(false);
  const double dt_sub = make(true);
  // Subcycled level-0 dt is limited by level 0 only: with a refined level
  // present, it is up to ref_ratio times larger.
  EXPECT_GT(dt_sub, dt_plain * 1.5);
}

TEST(Subcycling, ConservesMassOnSingleLevel) {
  auto phys = std::make_shared<amr::AdvectionDiffusion>();
  amr::AmrConfig cfg = subcycle_config(true);
  cfg.max_levels = 1;
  cfg.max_box_size = 16;
  amr::AmrSimulation sim(cfg, phys, {}, 0.4);
  sim.initialize();
  const double mass0 = sim.hierarchy().level(0).data.sum(0);
  for (int i = 0; i < 4; ++i) sim.advance();
  EXPECT_NEAR(sim.hierarchy().level(0).data.sum(0), mass0, 1e-9 * mass0);
}

TEST(Subcycling, TwoLevelRunStaysStableAndPositive) {
  amr::AdvectionDiffusionConfig pc;
  pc.diffusivity = 0.0;
  auto phys = std::make_shared<amr::AdvectionDiffusion>(pc);
  amr::TagCriterion crit;
  crit.rel_threshold = 0.1;
  amr::AmrSimulation sim(subcycle_config(true), phys, crit, 0.4, 4);
  sim.initialize();
  for (int i = 0; i < 6; ++i) {
    const amr::StepStats s = sim.advance();
    EXPECT_GT(s.dt, 0.0);
  }
  const auto [lo, hi] = sim.hierarchy().level(0).data.min_max(0);
  EXPECT_GE(lo, -1e-9);
  EXPECT_LT(hi, 2.0);  // no blow-up
}

TEST(Subcycling, MatchesNonSubcycledOnSmoothFlow) {
  // Both schemes integrate the same PDE; after the same physical time the
  // coarse solutions should agree to within the scheme differences.
  auto run = [&](bool sub) {
    auto phys = std::make_shared<amr::AdvectionDiffusion>();
    amr::AmrSimulation sim(subcycle_config(sub), phys, {}, 0.4, 1000);
    sim.initialize();
    while (sim.time() < 0.05) sim.advance();
    return sim.hierarchy().level(0).data.sum(0);
  };
  const double plain = run(false);
  const double sub = run(true);
  EXPECT_NEAR(sub, plain, 0.02 * std::fabs(plain));
}

}  // namespace
}  // namespace xl::workflow
