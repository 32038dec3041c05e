// Regression tests for the step-pipeline refactor: (a) golden end-to-end
// values captured from the pre-refactor monolithic CoupledWorkflow::run()
// must stay byte-identical for every Mode; (b) the analytic and
// discrete-event execution substrates must agree exactly; (c) the event
// stream must be consistent with the returned WorkflowResult; (d) the events
// and steps CSV bytes are pinned by digest.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "digest.hpp"
#include "events_csv.hpp"
#include "runtime/fault.hpp"
#include "runtime/trigger.hpp"
#include "workflow/coupled_workflow.hpp"
#include "workflow/execution_substrate.hpp"
#include "workflow/observer.hpp"
#include "workflow/trace_io.hpp"

using namespace xl;
using namespace xl::workflow;
using xl::test::fnv1a;

namespace {

// Same configuration as test_workflow_modes.cpp's mode_config.
WorkflowConfig golden_config(Mode mode) {
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

struct Golden {
  Mode mode;
  double end_to_end_seconds;
  double pure_sim_seconds;
  std::size_t bytes_moved;
  int insitu_count;
  int intransit_count;
  int application_adaptations;
  int resource_adaptations;
  int middleware_adaptations;
};

// Captured from the pre-refactor monolithic run() (commit e05e4ec) with
// printf("%.17g"): full double precision, byte-identical by EXPECT_EQ.
const Golden kGoldens[] = {
    {Mode::StaticInSitu, 0.25408763961540892, 0.22344169410258713, 0, 15, 0, 0, 0, 0},
    {Mode::StaticInTransit, 0.22366879679378548, 0.22344169410258713, 48496640, 0, 15,
     0, 0, 0},
    {Mode::StaticHybrid, 0.22366879679378548, 0.22344169410258713, 48496640, 0, 15, 0,
     0, 0},
    {Mode::AdaptiveMiddleware, 0.2251687967937854, 0.22344169410258713, 48496640, 0,
     15, 0, 0, 15},
    {Mode::AdaptiveResource, 0.22653515180663042, 0.22344169410258713, 48496640, 0, 15,
     0, 15, 0},
    {Mode::Global, 0.22649757331523107, 0.22344169410258713, 6062080, 0, 15, 15, 15,
     15},
};

class PipelineGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(PipelineGolden, MatchesPreRefactorRun) {
  const Golden& g = GetParam();
  const WorkflowResult r = CoupledWorkflow(golden_config(g.mode)).run();
  // Bit-exact, not approximate: the refactor must not change a single
  // floating-point operation's order.
  EXPECT_EQ(r.end_to_end_seconds, g.end_to_end_seconds) << mode_name(g.mode);
  EXPECT_EQ(r.pure_sim_seconds, g.pure_sim_seconds) << mode_name(g.mode);
  EXPECT_EQ(r.bytes_moved, g.bytes_moved) << mode_name(g.mode);
  EXPECT_EQ(r.insitu_count, g.insitu_count) << mode_name(g.mode);
  EXPECT_EQ(r.intransit_count, g.intransit_count) << mode_name(g.mode);
  EXPECT_EQ(r.application_adaptations, g.application_adaptations) << mode_name(g.mode);
  EXPECT_EQ(r.resource_adaptations, g.resource_adaptations) << mode_name(g.mode);
  EXPECT_EQ(r.middleware_adaptations, g.middleware_adaptations) << mode_name(g.mode);
}

TEST_P(PipelineGolden, AnalyticAndDiscreteEventSubstratesAgree) {
  const Golden& g = GetParam();
  CoupledWorkflow analytic_wf(golden_config(g.mode));
  AnalyticSubstrate analytic;
  const WorkflowResult a = analytic_wf.run_on(analytic);

  CoupledWorkflow des_wf(golden_config(g.mode));
  EventQueueSubstrate des;
  const WorkflowResult d = des_wf.run_on(des);

  EXPECT_EQ(a.end_to_end_seconds, d.end_to_end_seconds) << mode_name(g.mode);
  EXPECT_EQ(a.pure_sim_seconds, d.pure_sim_seconds) << mode_name(g.mode);
  EXPECT_EQ(a.overhead_seconds, d.overhead_seconds) << mode_name(g.mode);
  EXPECT_EQ(a.bytes_moved, d.bytes_moved) << mode_name(g.mode);
  EXPECT_EQ(a.insitu_count, d.insitu_count) << mode_name(g.mode);
  EXPECT_EQ(a.intransit_count, d.intransit_count) << mode_name(g.mode);
  EXPECT_EQ(a.utilization_efficiency, d.utilization_efficiency) << mode_name(g.mode);
  ASSERT_EQ(a.steps.size(), d.steps.size());
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].wait_seconds, d.steps[i].wait_seconds) << "step " << i;
    EXPECT_EQ(a.steps[i].window_seconds, d.steps[i].window_seconds) << "step " << i;
    EXPECT_EQ(a.steps[i].moved_bytes, d.steps[i].moved_bytes) << "step " << i;
    EXPECT_EQ(a.steps[i].placement, d.steps[i].placement) << "step " << i;
  }
}

TEST_P(PipelineGolden, EventStreamIsConsistentWithResult) {
  const Golden& g = GetParam();
  CoupledWorkflow wf(golden_config(g.mode));
  EventLog log;
  wf.set_observer(&log);
  const WorkflowResult r = wf.run();

  EXPECT_EQ(log.count(EventKind::RunBegin), 1u);
  EXPECT_EQ(log.count(EventKind::RunEnd), 1u);
  EXPECT_EQ(log.count(EventKind::StepBegin), r.steps.size());
  EXPECT_EQ(log.count(EventKind::StepEnd), r.steps.size());

  // Transfer events must account for every byte the result reports moved.
  std::size_t transferred = 0;
  for (const WorkflowEvent& e : log.events()) {
    if (e.kind == EventKind::Transfer) transferred += e.bytes;
  }
  EXPECT_EQ(transferred, r.bytes_moved) << mode_name(g.mode);

  // Adaptive modes emit one Decision per engine sample; static modes none.
  const bool adaptive = g.mode == Mode::AdaptiveMiddleware ||
                        g.mode == Mode::AdaptiveResource || g.mode == Mode::Global;
  if (adaptive) {
    EXPECT_EQ(log.count(EventKind::Decision), static_cast<std::size_t>(r.steps.size()));
  } else {
    EXPECT_EQ(log.count(EventKind::Decision), 0u);
  }

  // The final event carries the end-to-end time, and clocks never run
  // backwards within the simulation partition.
  ASSERT_FALSE(log.events().empty());
  const WorkflowEvent& last = log.events().back();
  EXPECT_EQ(last.kind, EventKind::RunEnd);
  EXPECT_EQ(last.seconds, r.end_to_end_seconds);
  double prev_clock = 0.0;
  for (const WorkflowEvent& e : log.events()) {
    EXPECT_GE(e.sim_clock, prev_clock);
    prev_clock = e.sim_clock;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, PipelineGolden, ::testing::ValuesIn(kGoldens),
    [](const ::testing::TestParamInfo<Golden>& info) {
      std::string name = mode_name(info.param.mode);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(StepPipeline, RunMatchesRunOnAnalytic) {
  const WorkflowConfig config = golden_config(Mode::Global);
  const WorkflowResult a = CoupledWorkflow(config).run();
  AnalyticSubstrate substrate;
  const WorkflowResult b = CoupledWorkflow(config).run_on(substrate);
  EXPECT_EQ(a.end_to_end_seconds, b.end_to_end_seconds);
  EXPECT_EQ(a.bytes_moved, b.bytes_moved);
}

TEST(StepPipeline, UtilizationEfficiencyIsEq12OverTheStepRecords) {
  // Eq. 12: in-transit analysis time over in-transit wall time, each summed
  // over the cores allocated at every step; recomputed in the same order.
  for (Mode mode : {Mode::StaticInTransit, Mode::AdaptiveResource, Mode::Global}) {
    const WorkflowResult r = CoupledWorkflow(golden_config(mode)).run();
    double analysis = 0.0, total = 0.0;
    for (const StepRecord& s : r.steps) {
      analysis += s.intransit_analysis_seconds * static_cast<double>(s.intransit_cores);
      total += static_cast<double>(s.intransit_cores) * s.window_seconds;
    }
    ASSERT_GT(analysis, 0.0) << mode_name(mode);
    EXPECT_EQ(r.utilization_efficiency, analysis / total) << mode_name(mode);
  }
  // Static in-situ never analyzes on the staging cores.
  EXPECT_EQ(CoupledWorkflow(golden_config(Mode::StaticInSitu)).run().utilization_efficiency,
            0.0);
}

TEST(EventsCsv, WritesOneRowPerEvent) {
  CoupledWorkflow wf(golden_config(Mode::Global));
  EventLog log;
  wf.set_observer(&log);
  (void)wf.run();

  std::ostringstream os;
  write_events_csv(os, log);
  const std::string csv = os.str();
  std::size_t lines = 0;
  for (char c : csv) lines += c == '\n';
  EXPECT_EQ(lines, log.events().size() + 1);  // header + one row per event
  EXPECT_NE(csv.find("event,step,sim_clock"), std::string::npos);
  EXPECT_NE(csv.find("run-end"), std::string::npos);
  EXPECT_NE(csv.find("decision"), std::string::npos);
}

TEST(EventKindNames, AreStable) {
  static_assert(kEventKindCount == 17);
  EXPECT_STREQ(event_kind_name(EventKind::RunBegin), "run-begin");
  EXPECT_STREQ(event_kind_name(EventKind::StepBegin), "step-begin");
  EXPECT_STREQ(event_kind_name(EventKind::Decision), "decision");
  EXPECT_STREQ(event_kind_name(EventKind::Transfer), "transfer");
  EXPECT_STREQ(event_kind_name(EventKind::Analysis), "analysis");
  EXPECT_STREQ(event_kind_name(EventKind::StepEnd), "step-end");
  EXPECT_STREQ(event_kind_name(EventKind::RunEnd), "run-end");
  EXPECT_STREQ(event_kind_name(EventKind::Fault), "fault");
  EXPECT_STREQ(event_kind_name(EventKind::Retry), "retry");
  EXPECT_STREQ(event_kind_name(EventKind::Recovery), "recovery");
  EXPECT_STREQ(event_kind_name(EventKind::ServerSuspected), "server-suspected");
  EXPECT_STREQ(event_kind_name(EventKind::ReplicaLost), "replica-lost");
  EXPECT_STREQ(event_kind_name(EventKind::RepairScheduled), "repair-scheduled");
  EXPECT_STREQ(event_kind_name(EventKind::ReplicaCreated), "replica-created");
  EXPECT_STREQ(event_kind_name(EventKind::ReadRepair), "read-repair");
  EXPECT_STREQ(event_kind_name(EventKind::TriggerFired), "trigger-fired");
  EXPECT_STREQ(event_kind_name(EventKind::TriggerSuppressed), "trigger-suppressed");
  EXPECT_STREQ(event_kind_name(static_cast<EventKind>(kEventKindCount)), "?");
}

// --- substrate contract ------------------------------------------------------

TEST(SubstrateContract, ShedBuffersReleaseHeadOfLineOnBothSubstrates) {
  AnalyticSubstrate analytic;
  EventQueueSubstrate des;
  // Apply `op` to both substrates: its result, the simulation clock and the
  // staged bytes must agree after every call.
  const auto both = [&](const char* what, auto op) {
    const auto a = op(static_cast<ExecutionSubstrate&>(analytic));
    EXPECT_EQ(a, op(static_cast<ExecutionSubstrate&>(des))) << what;
    EXPECT_EQ(analytic.sim_now(), des.sim_now()) << what;
    EXPECT_EQ(analytic.staging_mem_used(), des.staging_mem_used()) << what;
    return a;
  };
  const auto advance = [&](double seconds) {
    both("advance", [&](ExecutionSubstrate& s) {
      s.advance_sim(seconds);
      s.release_completed();
      return s.sim_now();
    });
  };
  for (std::size_t bytes : {100, 200, 300}) {
    both("enqueue", [&](ExecutionSubstrate& s) {
      return s.enqueue_intransit(0.0, 10.0, bytes);  // done at 10, 20, 30
    });
  }
  // A partial shed shrinks every buffer in FIFO order: releasing the head
  // then frees exactly the head's remainder.
  EXPECT_EQ(both("half shed", [](ExecutionSubstrate& s) { return s.shed_staged(0.5).bytes; }),
            300u);
  advance(12.0);
  EXPECT_EQ(analytic.staging_mem_used(), 250u);

  // A full shed keeps both remaining buffers as zero-byte entries and pulls
  // the staging clock back to now, so the next buffer finishes (at 14)
  // before them and must wait behind them.
  EXPECT_EQ(both("full shed", [](ExecutionSubstrate& s) { return s.shed_staged(1.0).bytes; }),
            250u);
  EXPECT_EQ(analytic.staging_free_at(), 12.0);
  EXPECT_EQ(both("late", [](ExecutionSubstrate& s) { return s.enqueue_intransit(13.0, 1.0, 400); }),
            14.0);
  advance(3.0);
  EXPECT_EQ(analytic.staging_mem_used(), 400u);
  EXPECT_EQ(both("wait", [](ExecutionSubstrate& s) { return s.wait_for_staging_memory(100, 450); }),
            15.0);  // until the last zero-byte entry completes at 30
  EXPECT_EQ(analytic.staging_mem_used(), 0u);

  both("enqueue", [](ExecutionSubstrate& s) { return s.enqueue_intransit(30.0, 5.0, 100); });
  advance(1.0);
  both("wait", [](ExecutionSubstrate& s) { return s.wait_for_staging_memory(50, 100); });
  EXPECT_EQ(analytic.sim_now(), 35.0);
  both("finish", [](ExecutionSubstrate& s) { return s.finish(); });
}

// --- pinned event bytes ------------------------------------------------------

/// An adaptive run that reaches every event kind: k = 2 replicas under a
/// lease-detected crash plus transfer drops, sampled by the Hybrid trigger.
/// The costly triangulation keeps bytes staged when the crash is declared,
/// so the lost replicas need repair.
WorkflowConfig every_kind_config() {
  WorkflowConfig c = golden_config(Mode::AdaptiveMiddleware);
  c.costs.mc_active_flops_per_cell = 5000;
  c.replication = 2;
  c.faults = runtime::parse_fault_spec("crash=5:2:6;drop=0.05;lease=2");
  c.monitor.trigger.policy = runtime::TriggerPolicy::Hybrid;
  return c;
}

struct PinnedRun {
  const char* name;
  WorkflowConfig config;
  std::uint64_t events_csv;  ///< FNV-1a 64 of write_events_csv.
  std::uint64_t steps_csv;   ///< FNV-1a 64 of write_steps_csv.
};

// FNV-1a 64 digests recorded from the batched-observer pipeline that the
// direct EventLog append replaced. The events CSV is the stream every tool
// reads, so a drift in its bytes fails here, not only in perfbench.
std::vector<PinnedRun> pinned_runs() {
  return {
      {"static-insitu", golden_config(Mode::StaticInSitu), 0xdcb46b682a219efbull,
       0xe3f54964a4db8a8dull},
      {"static-intransit", golden_config(Mode::StaticInTransit), 0xb92826f07f94e1caull,
       0x20b09a4ee5590991ull},
      {"static-hybrid", golden_config(Mode::StaticHybrid), 0xb92826f07f94e1caull,
       0x20b09a4ee5590991ull},
      {"adaptive-middleware", golden_config(Mode::AdaptiveMiddleware), 0x9989f0c30b1c8674ull,
       0xd78f288f258bab68ull},
      {"adaptive-resource", golden_config(Mode::AdaptiveResource), 0xb5ae906ab5fb5394ull,
       0x64732aa8bfc886c7ull},
      {"global-crosslayer", golden_config(Mode::Global), 0x832e74bdce1b9861ull,
       0x64ad324732de62d6ull},
      {"every-kind", every_kind_config(), 0x66539b2720d5aeb1ull, 0x82143b2b5bc087b4ull},
  };
}

TEST(EventBytes, CsvDigestsMatchTheRecordedRunsWhichEmitEveryKind) {
  std::set<EventKind> seen;
  for (const PinnedRun& pin : pinned_runs()) {
    CoupledWorkflow wf(pin.config);
    EventLog log;
    wf.set_observer(&log);
    const WorkflowResult r = wf.run();
    std::ostringstream events, steps;
    write_events_csv(events, log);
    write_steps_csv(steps, r);
    EXPECT_EQ(fnv1a(events.str()), pin.events_csv)
        << pin.name << " events csv: 0x" << std::hex << fnv1a(events.str());
    EXPECT_EQ(fnv1a(steps.str()), pin.steps_csv)
        << pin.name << " steps csv: 0x" << std::hex << fnv1a(steps.str());
    for (const WorkflowEvent& e : log.events()) seen.insert(e.kind);
  }
  for (int k = 0; k <= static_cast<int>(EventKind::TriggerSuppressed); ++k) {
    EXPECT_EQ(seen.count(static_cast<EventKind>(k)), 1u)
        << event_kind_name(static_cast<EventKind>(k)) << " never emitted";
  }
}

// --- substrate agreement at scale -------------------------------------------

TEST(SubstrateAgreement, HoldsAtLargeStepCounts) {
  // 200 steps pushes the DES substrate through hundreds of schedule/release
  // cycles and multiple ledger compactions; the analytic and event-queue
  // timelines must still serialize byte-identically.
  for (Mode mode : {Mode::StaticInTransit, Mode::Global}) {
    WorkflowConfig config = golden_config(mode);
    config.steps = 200;
    AnalyticSubstrate analytic;
    EventQueueSubstrate des;
    const std::string a = test::events_csv(config, analytic);
    const std::string d = test::events_csv(config, des);
    EXPECT_EQ(a, d) << mode_name(mode);
  }
}

}  // namespace
