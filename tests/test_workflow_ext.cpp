// Tests for the workflow extensions: energy accounting (the paper's §7
// future-work direction), trace export, and subcycled AMR time stepping.
#include <cmath>
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "amr/advection_diffusion.hpp"
#include "amr/amr_simulation.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "stream_csv.hpp"
#include "workflow/coupled_workflow.hpp"
#include "workflow/energy.hpp"
#include "workflow/observer.hpp"
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

/// Doubles whose text is easy to get wrong (signed zero, infinities, NaNs of
/// both signs, the ends of the range, the points where %g switches notation
/// or rounds a half), then doubles from random bit patterns: every exponent,
/// NaN payloads and subnormals.
std::vector<double> edge_doubles() {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> v = {0.0,      -0.0,      inf,         -inf,     nan,
                           -nan,     1e300,     5e-324,      123456.5, 999999.5,
                           1e-5,     0.0001,    9.999995e-5, 999999.4, 1e6,
                           1e15,     1e16,      1e17,        0.5,      2.5,
                           1.0 / 3,  -2.5e-7,   123456.0,    1234567.0,
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::min(), -1e-300};
  Rng rng(26);
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t bits = rng.next_u64();
    double d = 0.0;
    std::memcpy(&d, &bits, sizeof d);
    v.push_back(d);
  }
  return v;
}

/// The first line where `got` and `want` differ, for a readable failure.
std::string first_difference(const std::string& got, const std::string& want) {
  std::istringstream g(got), w(want);
  std::string a, b;
  for (int line = 1;; ++line) {
    const bool more_a = static_cast<bool>(std::getline(g, a));
    const bool more_b = static_cast<bool>(std::getline(w, b));
    if (!more_a && !more_b) {
      return "same lines; sizes " + std::to_string(got.size()) + " and " +
             std::to_string(want.size());
    }
    if (more_a != more_b || a != b) {
      return "line " + std::to_string(line) + "\n  got:  " + (more_a ? a : "<end>") +
             "\n  want: " + (more_b ? b : "<end>");
    }
  }
}

/// One event per edge double, each double field holding a different one,
/// and the integer fields at their extremes; every kind, placement, reason
/// and fault in turn. The log spans many 64 KiB blocks.
EventLog edge_event_log() {
  const std::vector<double> d = edge_doubles();
  const auto at = [&d](std::size_t i) { return d[i % d.size()]; };
  constexpr int kInts[] = {std::numeric_limits<int>::min(), -1, 0,
                           std::numeric_limits<int>::max()};
  EventLog log;
  for (std::size_t i = 0; i < d.size(); ++i) {
    WorkflowEvent e;
    e.kind = static_cast<EventKind>(i % kEventKindCount);
    e.step = kInts[i % 4];
    e.sim_clock = at(i);
    e.staging_clock = at(i + 1);
    e.placement = static_cast<runtime::Placement>(i % 2);
    e.reason = static_cast<runtime::DecisionReason>(i % 10);
    e.factor = kInts[(i + 1) % 4];
    e.intransit_cores = kInts[(i + 2) % 4];
    e.app_adapted = i % 2 == 0;
    e.resource_adapted = i % 3 == 0;
    e.middleware_adapted = i % 5 == 0;
    e.cells = SIZE_MAX;
    e.bytes = i;
    e.seconds = at(i + 2);
    e.wait_seconds = at(i + 3);
    e.skipped = i % 7 == 0;
    e.fault = static_cast<runtime::FaultKind>(i % 5);
    e.attempt = kInts[(i + 3) % 4];
    e.backoff_seconds = at(i + 4);
    e.servers_down = kInts[i % 4];
    e.servers_suspected = kInts[(i + 1) % 4];
    e.replicas = kInts[(i + 2) % 4];
    e.indicator = at(i + 5);
    e.trigger_threshold = at(i + 6);
    e.triggers_fired = kInts[(i + 3) % 4];
    e.steps_suppressed = kInts[i % 4];
    e.pool_hits = UINT64_MAX;
    e.pool_misses = UINT64_MAX - i;
    e.pool_releases = i;
    e.pool_copied_bytes = UINT64_MAX;
    log.append(e);
  }
  return log;
}

/// The steps of a result built the same way as edge_event_log.
WorkflowResult edge_steps() {
  const std::vector<double> d = edge_doubles();
  const auto at = [&d](std::size_t i) { return d[i % d.size()]; };
  WorkflowResult r;
  for (std::size_t i = 0; i < d.size(); ++i) {
    StepRecord s;
    s.step = i % 2 == 0 ? std::numeric_limits<int>::min() : static_cast<int>(i);
    s.total_cells = SIZE_MAX;
    s.analyzed_cells = i;
    s.raw_bytes = SIZE_MAX - i;
    s.factor = std::numeric_limits<int>::max();
    s.moved_bytes = SIZE_MAX;
    s.placement = static_cast<runtime::Placement>(i % 2);
    s.intransit_cores = std::numeric_limits<int>::min();
    s.sim_seconds = at(i);
    s.reduce_seconds = at(i + 1);
    s.insitu_analysis_seconds = at(i + 2);
    s.intransit_analysis_seconds = at(i + 3);
    s.wait_seconds = at(i + 4);
    s.window_seconds = at(i + 5);
    s.backlog_seconds = at(i + 6);
    s.decision_reason = static_cast<runtime::DecisionReason>(i % 10);
    r.steps.push_back(s);
  }
  return r;
}

std::string events_text(const EventLog& log) {
  std::ostringstream os;
  write_events_csv(os, log);
  return os.str();
}

std::string steps_text(const WorkflowResult& r) {
  std::ostringstream os;
  write_steps_csv(os, r);
  return os.str();
}

std::string file_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(TraceIo, EventRowsMatchTheStreamOracleOnEdgeValues) {
  const EventLog log = edge_event_log();
  std::ostringstream want;
  test::stream_events_csv(want, log);
  const std::string got = events_text(log);
  EXPECT_GT(got.size(), 4u * 64 * 1024);
  EXPECT_TRUE(got == want.str()) << first_difference(got, want.str());
  for (const char* text : {",-0,", ",inf,", ",-inf,", ",nan,", ",-nan,", ",1e+300,",
                           ",4.94066e-324,", ",123456,", ",1e+06,", ",1e-05,", ",-2147483648,",
                           ",18446744073709551615,"}) {
    EXPECT_NE(got.find(text), std::string::npos) << text;
  }
}

TEST(TraceIo, StepRowsMatchTheStreamOracleOnEdgeValues) {
  const WorkflowResult r = edge_steps();
  std::ostringstream want;
  test::stream_steps_csv(want, r);
  const std::string got = steps_text(r);
  EXPECT_GT(got.size(), 4u * 64 * 1024);
  EXPECT_TRUE(got == want.str()) << first_difference(got, want.str());
}

TEST(TraceIo, PathOverloadWritesTheStreamBytes) {
  const EventLog log = edge_event_log();
  const WorkflowResult r = edge_steps();
  const std::string events = "test_trace_io_events.csv";
  const std::string steps = "test_trace_io_steps.csv";
  write_events_csv(events, log);
  write_steps_csv(steps, r);
  EXPECT_TRUE(file_text(events) == events_text(log));
  EXPECT_TRUE(file_text(steps) == steps_text(r));
  std::remove(events.c_str());
  std::remove(steps.c_str());
}

TEST(TraceIo, PathOverloadNamesAPathItCannotOpen) {
  const std::string path = "no/such/directory/trace.csv";
  const auto message = [](const auto& write) {
    try {
      write();
    } catch (const ContractError& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_EQ(message([&] { write_events_csv(path, EventLog{}); }),
            "cannot open CSV output: " + path);
  EXPECT_EQ(message([&] { write_steps_csv(path, WorkflowResult{}); }),
            "cannot open CSV output: " + path);
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
