// Tests for the fault-injection and recovery subsystem: the deterministic
// FaultPlan oracle and its spec parser, staging-server loss and relocation,
// and the workflow-level guarantees — retry/backoff timing on the modeled
// timeline, identical failure timelines on both execution substrates, and
// every step completing (via in-situ fallback) through staging crashes.
#include <cstdint>
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cost_model.hpp"
#include "common/error.hpp"
#include "events_csv.hpp"
#include "mutants.hpp"
#include "runtime/fault.hpp"
#include "staging/space.hpp"
#include "transport/retry_ladder.hpp"
#include "workflow/coupled_workflow.hpp"
#include "workflow/execution_substrate.hpp"
#include "workflow/observer.hpp"

using namespace xl;
using namespace xl::workflow;
using runtime::FaultConfig;
using runtime::FaultKind;
using runtime::FaultPlan;
using runtime::FaultSpec;

namespace {

// --- FaultPlan oracle --------------------------------------------------------

TEST(FaultPlan, DisabledByDefault) {
  const FaultConfig config;
  EXPECT_FALSE(config.enabled());
  const FaultPlan plan(config);
  EXPECT_FALSE(plan.enabled());
  EXPECT_FALSE(plan.transfer_attempt_fault(0, 0).has_value());
  EXPECT_EQ(plan.servers_down_at(0), 0);
  EXPECT_DOUBLE_EQ(plan.slowdown_at(0), 1.0);
}

TEST(FaultPlan, VerdictIsIndependentOfQueryOrder) {
  FaultConfig config;
  config.transfer_drop_rate = 0.3;
  config.transfer_corrupt_rate = 0.2;
  const FaultPlan plan(config);

  std::vector<std::optional<FaultKind>> forward, backward;
  for (std::uint64_t t = 0; t < 16; ++t) {
    for (int a = 0; a < 4; ++a) forward.push_back(plan.transfer_attempt_fault(t, a));
  }
  for (std::uint64_t t = 16; t-- > 0;) {
    for (int a = 4; a-- > 0;) backward.push_back(plan.transfer_attempt_fault(t, a));
  }
  ASSERT_EQ(forward.size(), backward.size());
  for (std::size_t i = 0; i < forward.size(); ++i) {
    EXPECT_EQ(forward[i], backward[forward.size() - 1 - i]) << "draw " << i;
  }
}

TEST(FaultPlan, RatesPartitionTheDraw) {
  FaultConfig all_drop;
  all_drop.transfer_drop_rate = 1.0;
  FaultConfig all_corrupt;
  all_corrupt.transfer_corrupt_rate = 1.0;
  for (std::uint64_t t = 0; t < 8; ++t) {
    EXPECT_EQ(FaultPlan(all_drop).transfer_attempt_fault(t, 0),
              std::optional<FaultKind>(FaultKind::TransferDrop));
    EXPECT_EQ(FaultPlan(all_corrupt).transfer_attempt_fault(t, 0),
              std::optional<FaultKind>(FaultKind::TransferCorrupt));
  }
}

TEST(FaultPlan, SeedChangesTheVerdicts) {
  FaultConfig a, b;
  a.transfer_drop_rate = b.transfer_drop_rate = 0.5;
  a.seed = 1;
  b.seed = 2;
  int differing = 0;
  for (std::uint64_t t = 0; t < 64; ++t) {
    differing += FaultPlan(a).transfer_attempt_fault(t, 0).has_value() !=
                 FaultPlan(b).transfer_attempt_fault(t, 0).has_value();
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultPlan, BackoffGrowsExponentially) {
  // The plan's backoff knobs, as the transport retry ladder applies them.
  FaultConfig config;
  config.retry_backoff_seconds = 0.01;
  config.backoff_multiplier = 3.0;
  EXPECT_DOUBLE_EQ(transport::backoff_seconds(config, 0), 0.01);
  EXPECT_DOUBLE_EQ(transport::backoff_seconds(config, 1), 0.03);
  EXPECT_DOUBLE_EQ(transport::backoff_seconds(config, 2), 0.09);
}

TEST(FaultPlan, CrashAndStragglerWindows) {
  FaultConfig config;
  FaultSpec crash;
  crash.kind = FaultKind::ServerCrash;
  crash.step = 5;
  crash.servers = 2;
  crash.duration_steps = 3;
  FaultSpec crash2 = crash;
  crash2.step = 6;
  crash2.servers = 1;
  crash2.duration_steps = 0;  // permanent
  FaultSpec slow;
  slow.kind = FaultKind::Straggler;
  slow.step = 4;
  slow.slowdown = 2.5;
  slow.duration_steps = 2;
  config.events = {crash, crash2, slow};
  const FaultPlan plan(config);
  EXPECT_TRUE(plan.enabled());

  EXPECT_EQ(plan.servers_down_at(4), 0);
  EXPECT_EQ(plan.servers_down_at(5), 2);
  EXPECT_EQ(plan.servers_down_at(6), 3);   // overlapping windows sum
  EXPECT_EQ(plan.servers_down_at(7), 3);
  EXPECT_EQ(plan.servers_down_at(8), 1);   // first window closed
  EXPECT_EQ(plan.servers_down_at(100), 1); // permanent crash never recovers

  EXPECT_DOUBLE_EQ(plan.slowdown_at(3), 1.0);
  EXPECT_DOUBLE_EQ(plan.slowdown_at(4), 2.5);
  EXPECT_DOUBLE_EQ(plan.slowdown_at(5), 2.5);
  EXPECT_DOUBLE_EQ(plan.slowdown_at(6), 1.0);
}

TEST(FaultSpecParse, ParsesEveryClause) {
  const FaultConfig c = runtime::parse_fault_spec(
      "seed=7;drop=0.1;corrupt=0.05;retries=5;backoff=0.01;backoff_mult=3;"
      "timeout=0.5;crash=10:2:5;straggler=3:2.5:4");
  EXPECT_EQ(c.seed, 7u);
  EXPECT_DOUBLE_EQ(c.transfer_drop_rate, 0.1);
  EXPECT_DOUBLE_EQ(c.transfer_corrupt_rate, 0.05);
  EXPECT_EQ(c.max_transfer_retries, 5);
  EXPECT_DOUBLE_EQ(c.retry_backoff_seconds, 0.01);
  EXPECT_DOUBLE_EQ(c.backoff_multiplier, 3.0);
  EXPECT_DOUBLE_EQ(c.transfer_timeout_seconds, 0.5);
  ASSERT_EQ(c.events.size(), 2u);
  EXPECT_EQ(c.events[0].kind, FaultKind::ServerCrash);
  EXPECT_EQ(c.events[0].step, 10);
  EXPECT_EQ(c.events[0].servers, 2);
  EXPECT_EQ(c.events[0].duration_steps, 5);
  EXPECT_EQ(c.events[1].kind, FaultKind::Straggler);
  EXPECT_EQ(c.events[1].step, 3);
  EXPECT_DOUBLE_EQ(c.events[1].slowdown, 2.5);
  EXPECT_EQ(c.events[1].duration_steps, 4);
  EXPECT_TRUE(c.enabled());
}

TEST(FaultSpecParse, RejectsBadInput) {
  EXPECT_THROW(runtime::parse_fault_spec("bogus=1"), ContractError);
  EXPECT_THROW(runtime::parse_fault_spec("drop=1.5"), ContractError);
  EXPECT_THROW(runtime::parse_fault_spec("drop=abc"), ContractError);
  EXPECT_THROW(runtime::parse_fault_spec("retries=-1"), ContractError);
  EXPECT_THROW(runtime::parse_fault_spec("backoff_mult=0.5"), ContractError);
  EXPECT_THROW(runtime::parse_fault_spec("crash="), ContractError);
  // Prefix parses: the whole field must be the number.
  EXPECT_THROW(runtime::parse_fault_spec("drop=0.05zz"), ContractError);
  EXPECT_THROW(runtime::parse_fault_spec("retries=2x"), ContractError);
  EXPECT_THROW(runtime::parse_fault_spec("seed=7q"), ContractError);
  EXPECT_THROW(runtime::parse_fault_spec("lease=2.5"), ContractError);
  EXPECT_THROW(runtime::parse_fault_spec("crash=5:2x:3"), ContractError);
  // A negative seed must not wrap to 2^64-1.
  EXPECT_THROW(runtime::parse_fault_spec("seed=-1"), ContractError);
  // Non-finite and negative durations are errors, not "no timeout".
  EXPECT_THROW(runtime::parse_fault_spec("timeout=nan"), ContractError);
  EXPECT_THROW(runtime::parse_fault_spec("timeout=-5"), ContractError);
  EXPECT_THROW(runtime::parse_fault_spec("backoff_mult=inf"), ContractError);
  EXPECT_THROW(runtime::parse_fault_spec("backoff=inf"), ContractError);
  EXPECT_THROW(runtime::parse_fault_spec("straggler=3:nan"), ContractError);
  // SLOW is capped so that a slowed in-transit time stays finite.
  EXPECT_THROW(runtime::parse_fault_spec("straggler=3:1e7"), ContractError);
  EXPECT_NO_THROW(runtime::parse_fault_spec("straggler=3:1000000"));
  // retries is capped: each transfer walks its ladder attempt by attempt.
  try {
    runtime::parse_fault_spec("drop=1;backoff=0;retries=101");
    ADD_FAILURE() << "retries=101 accepted";
  } catch (const ContractError& e) {
    EXPECT_EQ(std::string(e.what()), "fault spec: 'retries=101' needs an integer <= 100");
  }
  EXPECT_EQ(runtime::parse_fault_spec("drop=1;backoff=0;retries=100").max_transfer_retries, 100);
  // Clauses that pass one by one but overflow together name all three.
  try {
    runtime::parse_fault_spec("drop=1;backoff_mult=1e300;retries=3");
    ADD_FAILURE() << "overflowing backoff accepted";
  } catch (const ContractError& e) {
    for (const char* clause : {"'backoff=", "'backoff_mult=", "'retries=3'"}) {
      EXPECT_NE(std::string(e.what()).find(clause), std::string::npos) << e.what();
    }
  }
  EXPECT_NO_THROW(runtime::parse_fault_spec("backoff=0;backoff_mult=1e300;retries=3"));
  // The error names the offending clause.
  try {
    runtime::parse_fault_spec("seed=3;drop=0.05zz;retries=2");
    ADD_FAILURE() << "prefix parse accepted";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("'drop=0.05zz'"), std::string::npos)
        << e.what();
  }
}

TEST(FaultSpecParse, SeededMutantsParseOrFailAsInputErrors) {
  mutants::expect_parse_or_input_error(
      "seed=7;drop=0.1;corrupt=0.05;retries=5;backoff=0.01;backoff_mult=3;timeout=0.5;"
      "lease=2;crash=10:2:5;straggler=3:2.5:4",
      3, mutants::text, [](const std::string& spec) { (void)runtime::parse_fault_spec(spec); });
}

// --- heartbeat lease detection -----------------------------------------------

TEST(LeaseDetection, ZeroLeaseIsOracleInstant) {
  FaultConfig config = runtime::parse_fault_spec("crash=5:2:3");
  ASSERT_EQ(config.lease_steps, 0);
  const FaultPlan plan(config);
  for (int step = 0; step < 12; ++step) {
    EXPECT_EQ(plan.detected_down_at(step), plan.servers_down_at(step)) << step;
  }
}

TEST(LeaseDetection, DeclarationWaitsOutTheLeaseWindow) {
  FaultConfig config = runtime::parse_fault_spec("crash=5:2:6;lease=2");
  const FaultPlan plan(config);
  // Crash at step 5: servers are SUSPECTED until the lease expires at step 7
  // (min over the trailing window [step-2, step] only reaches 2 once every
  // sample in the window saw the servers down).
  for (int step = 5; step <= 7; ++step) EXPECT_EQ(plan.servers_down_at(step), 2) << step;
  EXPECT_EQ(plan.detected_down_at(5), 0);
  EXPECT_EQ(plan.detected_down_at(6), 0);
  EXPECT_EQ(plan.detected_down_at(7), 2);
  // Recovery needs no lease: the moment beats return, nothing is down.
  EXPECT_EQ(plan.servers_down_at(11), 0);
  EXPECT_EQ(plan.detected_down_at(11), 0);
}

TEST(LeaseDetection, OutageShorterThanLeaseIsNeverDeclared) {
  FaultConfig config = runtime::parse_fault_spec("crash=5:2:2;lease=3");
  const FaultPlan plan(config);
  for (int step = 0; step < 12; ++step) {
    EXPECT_EQ(plan.detected_down_at(step), 0) << step;
  }
  EXPECT_EQ(plan.servers_down_at(5), 2);  // crashed, but never for a whole lease
}

TEST(LeaseDetection, ParseAcceptsLeaseClause) {
  const FaultConfig c = runtime::parse_fault_spec("crash=4:1:2;lease=3");
  EXPECT_EQ(c.lease_steps, 3);
  EXPECT_THROW(runtime::parse_fault_spec("lease=-1"), ContractError);
  // The lease alone enables nothing: it only shapes detection of real faults.
  EXPECT_FALSE(runtime::parse_fault_spec("lease=3").enabled());
}

// --- staging-space server loss -----------------------------------------------

TEST(StagingSpaceFault, FailServerRelocatesOntoSurvivors) {
  staging::StagingSpace space(2, std::size_t{1} << 20);
  std::size_t total = 0;
  for (int i = 0; i < 8; ++i) {
    const mesh::Box box = mesh::Box::cube({8 * i, 0, 0}, 4);
    space.put(0, box, 1, std::size_t{1} << 10);
    total += std::size_t{1} << 10;
  }
  ASSERT_EQ(space.used_bytes(), total);
  // Fail whichever server the Morton hash loaded (hash-agnostic).
  const int victim = space.server_used_bytes(0) > 0 ? 0 : 1;
  const std::size_t on_victim = space.server_used_bytes(victim);
  ASSERT_GT(on_victim, 0u);

  const staging::ServerLossReport report = space.fail_server(victim);
  EXPECT_EQ(report.server, victim);
  // Plenty of room on the survivor: everything relocates, nothing dropped.
  EXPECT_EQ(report.relocated_bytes, on_victim);
  EXPECT_EQ(report.dropped_bytes, 0u);
  EXPECT_EQ(space.used_bytes(), total);
  EXPECT_EQ(space.server_used_bytes(victim), 0u);
  EXPECT_EQ(space.alive_servers(), 1);
  EXPECT_EQ(space.capacity_bytes(), std::size_t{1} << 20);
  EXPECT_FALSE(space.server_alive(victim));
  // All 8 objects still queryable.
  EXPECT_EQ(space.query(0, mesh::Box::domain({128, 8, 8})).size(), 8u);
}

TEST(StagingSpaceFault, FailServerDropsWithoutRequeue) {
  staging::StagingSpace space(2, std::size_t{1} << 20);
  for (int i = 0; i < 8; ++i) {
    space.put(0, mesh::Box::cube({8 * i, 0, 0}, 4), 1, std::size_t{1} << 10);
  }
  const std::size_t before = space.used_bytes();
  const int victim = space.server_used_bytes(1) > 0 ? 1 : 0;
  const std::size_t on_victim = space.server_used_bytes(victim);
  const staging::ServerLossReport report =
      space.fail_server(victim, staging::LossPolicy::Drop);
  EXPECT_EQ(report.relocated_bytes, 0u);
  EXPECT_EQ(report.dropped_bytes, on_victim);
  EXPECT_EQ(space.used_bytes(), before - on_victim);
}

TEST(StagingSpaceFault, PutProbesPastDeadServer) {
  staging::StagingSpace space(3, std::size_t{1} << 20);
  const mesh::Box box = mesh::Box::cube({0, 0, 0}, 4);
  const int hashed = staging::server_for_box(box, 3);
  space.fail_server(hashed, staging::LossPolicy::Drop);
  EXPECT_NE(space.target_server(box), hashed);
  EXPECT_TRUE(space.can_accept(box, 1 << 10));
  const std::uint64_t id = space.put(0, box, 1, 1 << 10);
  (void)id;
  EXPECT_EQ(space.server_used_bytes(hashed), 0u);
}

TEST(StagingSpaceFault, RecoverRestoresCapacityAndHashTarget) {
  staging::StagingSpace space(2, std::size_t{1} << 20);
  space.fail_server(0);
  ASSERT_EQ(space.alive_servers(), 1);
  space.recover_server(0);
  EXPECT_EQ(space.alive_servers(), 2);
  EXPECT_TRUE(space.server_alive(0));
  EXPECT_EQ(space.capacity_bytes(), std::size_t{2} << 20);
  const mesh::Box box = mesh::Box::cube({0, 0, 0}, 4);
  EXPECT_EQ(space.target_server(box), staging::server_for_box(box, 2));
}

TEST(StagingSpaceFault, NoAliveServerRejectsPuts) {
  staging::StagingSpace space(2, std::size_t{1} << 20);
  space.fail_server(0, staging::LossPolicy::Drop);
  space.fail_server(1, staging::LossPolicy::Drop);
  EXPECT_EQ(space.alive_servers(), 0);
  const mesh::Box box = mesh::Box::cube({0, 0, 0}, 4);
  EXPECT_EQ(space.target_server(box), -1);
  EXPECT_FALSE(space.can_accept(box, 1 << 10));
  EXPECT_THROW(space.put(0, box, 1, 1 << 10), ContractError);
}

// --- workflow-level determinism and recovery ---------------------------------

// Same configuration as test_pipeline.cpp's golden_config.
WorkflowConfig fault_config(Mode mode) {
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

FaultConfig stormy_faults() {
  // Drops AND a partial crash AND a straggler window, all in one run.
  FaultConfig f = runtime::parse_fault_spec(
      "seed=11;drop=0.3;retries=2;backoff=0.001;crash=5:4:4;straggler=9:2:3");
  return f;
}

TEST(FaultPipeline, SubstratesEmitByteIdenticalEventLogs) {
  for (Mode mode : {Mode::StaticInTransit, Mode::AdaptiveMiddleware, Mode::Global}) {
    WorkflowConfig config = fault_config(mode);
    config.faults = stormy_faults();
    AnalyticSubstrate analytic;
    EventQueueSubstrate des;
    const std::string a = test::events_csv(config, analytic);
    const std::string d = test::events_csv(config, des);
    EXPECT_EQ(a, d) << mode_name(mode);
    // The storm actually happened: the log contains fault traffic.
    EXPECT_NE(a.find("fault"), std::string::npos) << mode_name(mode);
  }
}

TEST(FaultPipeline, SameSeedReproducesTheRun) {
  WorkflowConfig config = fault_config(Mode::AdaptiveMiddleware);
  config.faults = stormy_faults();
  AnalyticSubstrate s1, s2;
  EXPECT_EQ(test::events_csv(config, s1), test::events_csv(config, s2));
}

TEST(FaultPipeline, MidRunCrashStillCompletesEveryStep) {
  WorkflowConfig config = fault_config(Mode::StaticInTransit);
  // The whole staging partition dies at step 5 and returns at step 10.
  config.faults = runtime::parse_fault_spec("crash=5:8:5");

  CoupledWorkflow wf(config);
  EventLog log;
  wf.set_observer(&log);
  const WorkflowResult r = wf.run();

  // No aborts, no lost steps: every step ran its analysis.
  ASSERT_EQ(r.steps.size(), 15u);
  EXPECT_EQ(r.skipped_count, 0);
  for (const StepRecord& s : r.steps) {
    EXPECT_FALSE(s.analysis_skipped) << "step " << s.step;
    const bool outage = s.step >= 5 && s.step < 10;
    EXPECT_EQ(s.placement,
              outage ? runtime::Placement::InSitu : runtime::Placement::InTransit)
        << "step " << s.step;
    if (outage) {
      EXPECT_EQ(s.decision_reason, runtime::DecisionReason::StagingUnavailable)
          << "step " << s.step;
      EXPECT_EQ(s.servers_down, 8) << "step " << s.step;
    }
  }
  EXPECT_EQ(r.insitu_count, 5);
  EXPECT_EQ(r.intransit_count, 10);
  EXPECT_EQ(r.degraded_insitu_count, 5);
  EXPECT_EQ(r.faults_injected, 1);
  EXPECT_EQ(r.recoveries, 1);
  EXPECT_EQ(log.count(EventKind::Fault), 1u);
  EXPECT_EQ(log.count(EventKind::Recovery), 1u);
}

TEST(FaultPipeline, PermanentCrashDegradesTheRestOfTheRun) {
  // The second spec's servers add up past INT_MAX: the count saturates
  // instead of wrapping negative. The third's window ends past INT_MAX.
  for (const char* spec :
       {"crash=5:8", "crash=5:1000000000;crash=5:1200000000", "crash=5:8:2147483647"}) {
    SCOPED_TRACE(spec);
    WorkflowConfig config = fault_config(Mode::StaticInTransit);
    config.faults = runtime::parse_fault_spec(spec);  // permanent over the run

    const WorkflowResult r = CoupledWorkflow(config).run();
    ASSERT_EQ(r.steps.size(), 15u);
    EXPECT_EQ(r.skipped_count, 0);
    for (const StepRecord& s : r.steps) {
      EXPECT_EQ(s.placement, s.step >= 5 ? runtime::Placement::InSitu
                                         : runtime::Placement::InTransit)
          << "step " << s.step;
    }
    EXPECT_EQ(r.recoveries, 0);
    EXPECT_EQ(r.degraded_insitu_count, 10);
  }
}

TEST(FaultPipeline, TransferRetriesAreAccountedConsistently) {
  WorkflowConfig config = fault_config(Mode::StaticInTransit);
  config.faults = runtime::parse_fault_spec("seed=3;drop=0.5;retries=4");

  CoupledWorkflow wf(config);
  EventLog log;
  wf.set_observer(&log);
  const WorkflowResult r = wf.run();

  EXPECT_GT(r.transfer_retries, 0);
  int per_step_retries = 0;
  for (const StepRecord& s : r.steps) per_step_retries += s.transfer_retries;
  EXPECT_EQ(per_step_retries, r.transfer_retries);
  EXPECT_EQ(log.count(EventKind::Retry),
            static_cast<std::size_t>(r.transfer_retries));
  ASSERT_EQ(r.steps.size(), 15u);
  EXPECT_EQ(r.skipped_count, 0);
}

TEST(FaultPipeline, ExhaustedTransfersFallBackInSitu) {
  WorkflowConfig config = fault_config(Mode::StaticInTransit);
  config.faults = runtime::parse_fault_spec("drop=1;retries=1");

  const WorkflowResult r = CoupledWorkflow(config).run();
  ASSERT_EQ(r.steps.size(), 15u);
  EXPECT_EQ(r.skipped_count, 0);
  EXPECT_EQ(r.transfer_failures, 15);
  EXPECT_EQ(r.insitu_count, 15);
  EXPECT_EQ(r.degraded_insitu_count, 15);
  EXPECT_EQ(r.bytes_moved, 0u);
  for (const StepRecord& s : r.steps) {
    EXPECT_TRUE(s.transfer_failed) << "step " << s.step;
    // One retry (the budget) before the second attempt is declared fatal.
    EXPECT_EQ(s.transfer_retries, 1) << "step " << s.step;
  }
}

TEST(FaultPipeline, ExhaustedTransferChargesEveryDetectionAndBackoff) {
  // Every attempt is lost: three detections at the wire time, separated by
  // backoffs of 0.1 and 0.2, block the simulation before the in-situ
  // fallback runs.
  WorkflowConfig config = fault_config(Mode::StaticInTransit);
  config.faults =
      runtime::parse_fault_spec("drop=1;retries=2;backoff=0.1;backoff_mult=2");
  CoupledWorkflow wf(config);
  EventLog log;
  wf.set_observer(&log);
  ASSERT_EQ(wf.run().transfer_failures, 15);

  std::vector<WorkflowEvent> step0;
  for (const WorkflowEvent& e : log.events()) {
    if (e.step == 0) step0.push_back(e);
  }
  ASSERT_EQ(step0.size(), 6u);
  EXPECT_EQ(step0[0].kind, EventKind::StepBegin);
  EXPECT_EQ(step0[1].kind, EventKind::Retry);
  EXPECT_EQ(step0[2].kind, EventKind::Retry);
  EXPECT_EQ(step0[3].kind, EventKind::Fault);
  EXPECT_EQ(step0[3].attempt, 2);
  EXPECT_EQ(step0[4].kind, EventKind::Analysis);
  EXPECT_EQ(step0[4].placement, runtime::Placement::InSitu);
  EXPECT_EQ(step0[5].kind, EventKind::StepEnd);

  const cluster::CostModel cost(config.machine, config.costs, config.threads);
  const int nodes_per = config.machine.cores_per_node;
  const double detect =
      cost.transfer_seconds(step0[1].bytes, config.sim_cores / nodes_per,
                            std::max(1, config.staging_cores / nodes_per));
  const double t0 = step0[0].sim_clock;
  // Oracle retries are stamped after their detection, before their backoff.
  EXPECT_DOUBLE_EQ(step0[1].sim_clock, t0 + detect);
  EXPECT_DOUBLE_EQ(step0[1].backoff_seconds, 0.1);
  EXPECT_DOUBLE_EQ(step0[2].sim_clock, t0 + 2 * detect + 0.1);
  EXPECT_DOUBLE_EQ(step0[2].backoff_seconds, 0.2);
  EXPECT_DOUBLE_EQ(step0[3].sim_clock, t0 + 3 * detect + 0.1 + 0.2);
  EXPECT_DOUBLE_EQ(step0[4].sim_clock, step0[3].sim_clock + step0[4].seconds);
}

TEST(FaultPipeline, StragglerStretchesInTransitWorkThenRecovers) {
  WorkflowConfig baseline_config = fault_config(Mode::StaticInTransit);
  const WorkflowResult baseline = CoupledWorkflow(baseline_config).run();

  WorkflowConfig config = fault_config(Mode::StaticInTransit);
  config.faults = runtime::parse_fault_spec("straggler=5:3:5");
  const WorkflowResult r = CoupledWorkflow(config).run();

  ASSERT_EQ(r.steps.size(), baseline.steps.size());
  EXPECT_EQ(r.faults_injected, 1);
  EXPECT_EQ(r.recoveries, 1);
  for (std::size_t i = 0; i < r.steps.size(); ++i) {
    const bool windowed = r.steps[i].step >= 5 && r.steps[i].step < 10;
    const double expected = baseline.steps[i].intransit_analysis_seconds *
                            (windowed ? 3.0 : 1.0);
    EXPECT_DOUBLE_EQ(r.steps[i].intransit_analysis_seconds, expected)
        << "step " << i;
  }
  EXPECT_GE(r.end_to_end_seconds, baseline.end_to_end_seconds);
}

// --- workflow-level replication and lease ------------------------------------

// Heavy in-transit load (expensive analysis kernels on a small staging
// partition), so the staging backlog is non-empty when crashes fire and the
// replication shed/repair arithmetic runs on real staged bytes.
WorkflowConfig replicated_config(int replication, int lease_steps) {
  WorkflowConfig c = fault_config(Mode::StaticInTransit);
  c.geometry.base_domain = mesh::Box::domain({256, 128, 128});
  c.hints.factor_phases = {{0, {2}}};
  c.active_cell_fraction = 0.5;
  c.costs.mc_scan_flops_per_cell = 500;
  c.costs.mc_active_flops_per_cell = 5000;
  c.replication = replication;
  c.faults = runtime::parse_fault_spec("seed=11;retries=2;backoff=0.001;crash=5:1:4");
  c.faults.lease_steps = lease_steps;
  return c;
}

TEST(ReplicatedPipeline, SubstratesStayByteIdenticalWithReplicationAndLease) {
  for (int lease : {0, 2}) {
    WorkflowConfig config = replicated_config(/*replication=*/2, lease);
    AnalyticSubstrate analytic;
    EventQueueSubstrate des;
    const std::string a = test::events_csv(config, analytic);
    const std::string d = test::events_csv(config, des);
    EXPECT_EQ(a, d) << "lease=" << lease;
    // The durability stream actually flowed.
    EXPECT_NE(a.find("replica-created"), std::string::npos) << "lease=" << lease;
    EXPECT_NE(a.find("replica-lost"), std::string::npos) << "lease=" << lease;
    EXPECT_NE(a.find("repair-scheduled"), std::string::npos) << "lease=" << lease;
    if (lease > 0) {
      EXPECT_NE(a.find("server-suspected"), std::string::npos);
    }
  }
}

TEST(ReplicatedPipeline, SingleFailureLosesNothingAtKTwo) {
  // d = 1 < k = 2: zero staged-object loss, repair traffic scheduled instead.
  const WorkflowResult replicated =
      CoupledWorkflow(replicated_config(/*replication=*/2, /*lease=*/0)).run();
  EXPECT_EQ(replicated.dropped_bytes, 0u);
  EXPECT_GE(replicated.repairs_scheduled, 1);
  EXPECT_GT(replicated.repair_bytes, 0u);
  EXPECT_GT(replicated.replicated_bytes, 0u);

  // The identical schedule without replication loses staged bytes — the
  // durability layer is what saved them, not a gentle schedule.
  const WorkflowResult bare =
      CoupledWorkflow(replicated_config(/*replication=*/1, /*lease=*/0)).run();
  EXPECT_GT(bare.dropped_bytes, 0u);
  EXPECT_EQ(bare.repairs_scheduled, 0);
  EXPECT_EQ(bare.replicated_bytes, 0u);
}

TEST(ReplicatedPipeline, SuspectedServersForceTransferRetries) {
  const WorkflowResult instant =
      CoupledWorkflow(replicated_config(/*replication=*/2, /*lease=*/0)).run();
  const WorkflowResult leased =
      CoupledWorkflow(replicated_config(/*replication=*/2, /*lease=*/2)).run();
  EXPECT_EQ(instant.server_suspicions, 0);
  EXPECT_GE(leased.server_suspicions, 1);
  // Transfers routed at suspected servers retry until the lease expires.
  EXPECT_GT(leased.transfer_retries, instant.transfer_retries);
  int suspected_steps = 0;
  for (const StepRecord& s : leased.steps) suspected_steps += s.servers_suspected > 0;
  EXPECT_GE(suspected_steps, 1);
}

TEST(ReplicatedPipeline, ReplicationOneAndZeroLeaseMatchTheOriginalPath) {
  // replication = 1 + lease = 0 must be byte-identical to a config that
  // never heard of the durability layer (the golden-invariance contract).
  WorkflowConfig config = fault_config(Mode::AdaptiveMiddleware);
  config.faults = stormy_faults();
  WorkflowConfig with_defaults = config;
  with_defaults.replication = 1;
  with_defaults.faults.lease_steps = 0;
  AnalyticSubstrate s1, s2;
  EXPECT_EQ(test::events_csv(config, s1), test::events_csv(with_defaults, s2));
  const WorkflowResult r = CoupledWorkflow(config).run();
  EXPECT_EQ(r.server_suspicions, 0);
  EXPECT_EQ(r.repairs_scheduled, 0);
  EXPECT_EQ(r.read_repairs, 0);
  EXPECT_EQ(r.repair_bytes, 0u);
  EXPECT_EQ(r.replicated_bytes, 0u);
}

TEST(FaultPipeline, FullOutageUnderBacklogKeepsSubstratesIdentical) {
  // Every staging server dies for one step while the backlog is deep. The
  // full shed pulls the staging clock back, so buffers staged afterwards
  // finish before the zero-byte entries ahead of them; both substrates must
  // keep them queued behind those entries.
  WorkflowConfig c;
  c.machine = cluster::titan();
  c.mode = Mode::StaticInTransit;
  c.sim_cores = 256;
  c.staging_cores = 16;
  c.steps = 70;
  c.geometry.base_domain = mesh::Box::domain({128, 64, 64});
  c.geometry.front_speed = 0.006;
  c.geometry.num_blobs = 3;
  c.hints.factor_phases = {{0, {1, 2}}};
  c.staging_usable_fraction = 0.02;
  c.costs.mc_scan_flops_per_cell *= 40;
  c.replication = 2;
  c.faults = runtime::parse_fault_spec("crash=40:16:1");
  AnalyticSubstrate analytic;
  EventQueueSubstrate des;
  const std::string a = test::events_csv(c, analytic);
  EXPECT_EQ(a, test::events_csv(c, des));
  EXPECT_NE(a.find("server-crash"), std::string::npos);
}

TEST(FaultPipeline, SeedAloneDoesNotEnableInjection) {
  // A changed fault seed with no rates/events must leave the run untouched.
  const WorkflowResult base = CoupledWorkflow(fault_config(Mode::Global)).run();
  WorkflowConfig config = fault_config(Mode::Global);
  config.faults.seed = 0xDEADBEEF;
  EXPECT_FALSE(config.faults.enabled());
  const WorkflowResult r = CoupledWorkflow(config).run();
  EXPECT_EQ(r.end_to_end_seconds, base.end_to_end_seconds);
  EXPECT_EQ(r.bytes_moved, base.bytes_moved);
  EXPECT_EQ(r.faults_injected, 0);
  EXPECT_EQ(r.transfer_retries, 0);
}

}  // namespace
