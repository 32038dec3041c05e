// Tests for the percentile-sampling trigger layer: the TriggerDetector's
// determinism contract, the Monitor's policy gate, and the workflow-level
// guarantees (FixedPeriod byte-identity with the legacy cadence, Percentile
// byte-identity across reruns and substrates, the Hybrid max-interval cap).
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/machine.hpp"
#include "common/contract.hpp"
#include "runtime/monitor.hpp"
#include "runtime/trigger.hpp"
#include "workflow/coupled_workflow.hpp"
#include "workflow/execution_substrate.hpp"
#include "workflow/observer.hpp"
#include "workflow/trace_io.hpp"

namespace xl {
namespace {

using namespace xl::runtime;
using namespace xl::workflow;

TriggerInputs inputs(std::int64_t cells, std::size_t bytes, double entropy) {
  TriggerInputs in;
  in.tagged_cells = cells;
  in.staged_bytes = bytes;
  in.structure_entropy = entropy;
  return in;
}

// --- TriggerDetector ---------------------------------------------------------

TEST(TriggerDetector, ValidatesConfig) {
  TriggerConfig c;
  c.quantile = 0.0;
  EXPECT_THROW(TriggerDetector{c}, ContractError);
  c = {};
  c.quantile = 1.0;
  EXPECT_THROW(TriggerDetector{c}, ContractError);
  c = {};
  c.window = 1;
  EXPECT_THROW(TriggerDetector{c}, ContractError);
  c = {};
  c.sample_rate = 0.0;
  EXPECT_THROW(TriggerDetector{c}, ContractError);
  c = {};
  c.sample_rate = 1.5;
  EXPECT_THROW(TriggerDetector{c}, ContractError);
  c = {};
  c.max_interval = 0;
  EXPECT_THROW(TriggerDetector{c}, ContractError);
}

TEST(TriggerDetector, FirstStepAlwaysFires) {
  TriggerConfig c;
  c.policy = TriggerPolicy::Percentile;
  TriggerDetector d(c);
  const TriggerDecision dec = d.observe(0, inputs(1000, 8000, 1.0));
  EXPECT_TRUE(dec.fire);
  EXPECT_EQ(d.triggers_fired(), 1);
}

TEST(TriggerDetector, QuiescentSequenceNeverRefires) {
  // An all-equal input stream pins the indicator at exactly 0; the strict >
  // comparison means the noise floor never triggers itself.
  TriggerConfig c;
  c.policy = TriggerPolicy::Percentile;
  c.window = 4;
  TriggerDetector d(c);
  for (int s = 0; s < 20; ++s) d.observe(s, inputs(1000, 8000, 1.0));
  EXPECT_EQ(d.triggers_fired(), 1);  // the warmup fire only.
  EXPECT_EQ(d.steps_suppressed(), 19);
}

TEST(TriggerDetector, ShockAboveTrailingQuantileFires) {
  TriggerConfig c;
  c.policy = TriggerPolicy::Percentile;
  c.window = 4;
  TriggerDetector d(c);
  for (int s = 0; s < 10; ++s) d.observe(s, inputs(1000, 8000, 1.0));
  const int before = d.triggers_fired();
  // A 50% cell jump against a zero-indicator window must fire.
  const TriggerDecision dec = d.observe(10, inputs(1500, 12000, 1.0));
  EXPECT_TRUE(dec.fire);
  EXPECT_GT(dec.indicator, dec.threshold);
  EXPECT_EQ(d.triggers_fired(), before + 1);
}

TEST(TriggerDetector, EntropyShiftAloneFires) {
  // Cells and bytes frozen; only the structure entropy moves. The indicator
  // is the max over the three signals, so this must still arm.
  TriggerConfig c;
  c.policy = TriggerPolicy::Percentile;
  c.window = 4;
  TriggerDetector d(c);
  for (int s = 0; s < 8; ++s) d.observe(s, inputs(1000, 8000, 1.0));
  const TriggerDecision dec = d.observe(8, inputs(1000, 8000, 1.8));
  EXPECT_TRUE(dec.fire);
}

TEST(TriggerDetector, HybridCapsTheQuietInterval) {
  TriggerConfig c;
  c.policy = TriggerPolicy::Hybrid;
  c.window = 4;
  c.max_interval = 5;
  TriggerDetector d(c);
  std::vector<int> fired;
  for (int s = 0; s < 21; ++s) {
    if (d.observe(s, inputs(1000, 8000, 1.0)).fire) fired.push_back(s);
  }
  ASSERT_GE(fired.size(), 2u);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LE(fired[i] - fired[i - 1], c.max_interval);
  }
  // The cap fire is flagged as capped, not armed-by-indicator.
  TriggerDetector d2(c);
  d2.observe(0, inputs(1000, 8000, 1.0));
  TriggerDecision last;
  for (int s = 1; s <= c.max_interval; ++s) {
    last = d2.observe(s, inputs(1000, 8000, 1.0));
  }
  EXPECT_TRUE(last.fire);
  EXPECT_TRUE(last.capped);
}

TEST(TriggerDetector, SubsampledWindowIsDeterministic) {
  // The window membership draw is counter-keyed on (seed, step): two
  // detectors fed the same sequence make identical decisions, and a
  // different seed is allowed to differ.
  TriggerConfig c;
  c.policy = TriggerPolicy::Percentile;
  c.window = 6;
  c.sample_rate = 0.5;
  TriggerDetector a(c), b(c);
  bool any_skipped = false;
  for (int s = 0; s < 64; ++s) {
    const auto in = inputs(1000 + 37 * (s % 11), 8000, 1.0 + 0.01 * (s % 7));
    const TriggerDecision da = a.observe(s, in);
    const TriggerDecision db = b.observe(s, in);
    EXPECT_EQ(da.fire, db.fire) << "step " << s;
    EXPECT_EQ(da.sampled, db.sampled) << "step " << s;
    EXPECT_DOUBLE_EQ(da.indicator, db.indicator);
    EXPECT_DOUBLE_EQ(da.threshold, db.threshold);
    any_skipped = any_skipped || !da.sampled;
  }
  EXPECT_TRUE(any_skipped);  // rate 0.5 over 64 steps must skip something.
}

// --- Monitor gate ------------------------------------------------------------

TEST(MonitorTrigger, FixedPeriodIgnoresDetector) {
  MonitorConfig cfg;
  cfg.sampling_period = 3;
  Monitor m(cfg);
  // No observe_step calls at all: the fixed cadence stands alone.
  EXPECT_TRUE(m.should_sample(0));
  EXPECT_FALSE(m.should_sample(2));
  EXPECT_TRUE(m.should_sample(3));
  EXPECT_EQ(m.trigger().triggers_fired(), 0);
}

TEST(MonitorTrigger, PercentileGateFollowsObserveStep) {
  MonitorConfig cfg;
  cfg.sampling_period = 1;
  cfg.trigger.policy = TriggerPolicy::Percentile;
  cfg.trigger.window = 4;
  Monitor m(cfg);
  EXPECT_TRUE(m.observe_step(0, inputs(1000, 8000, 1.0)).fire);
  EXPECT_TRUE(m.should_sample(0));
  for (int s = 1; s < 6; ++s) {
    EXPECT_FALSE(m.observe_step(s, inputs(1000, 8000, 1.0)).fire);
    EXPECT_FALSE(m.should_sample(s));
  }
  EXPECT_TRUE(m.observe_step(6, inputs(2000, 16000, 1.0)).fire);
  EXPECT_TRUE(m.should_sample(6));
}

TEST(MonitorTrigger, OracleClearsOnRequest) {
  MonitorConfig cfg;
  cfg.estimator = EstimatorKind::Oracle;
  Monitor m(cfg);
  m.record_analysis({0, Placement::InSitu, 1000, 1, 2.0});
  m.record_analysis({0, Placement::InTransit, 1000, 4, 4.0});
  m.set_oracle(3.25, 7.5);
  EXPECT_DOUBLE_EQ(m.estimate_analysis_seconds(Placement::InSitu, 1000, 1), 3.25);
  m.clear_oracle();
  // After the clear the estimator falls back to recorded samples instead of
  // leaking the stale per-step truth.
  EXPECT_DOUBLE_EQ(m.estimate_analysis_seconds(Placement::InSitu, 1000, 1), 2.0);
  EXPECT_DOUBLE_EQ(m.estimate_analysis_seconds(Placement::InTransit, 1000, 4), 4.0);
}

TEST(MonitorTrigger, SimEstimateFallsBackToPriorBeforeFirstStep) {
  MonitorConfig cfg;
  cfg.prior_cost = 2.0e-6;
  Monitor m(cfg);
  // Before any record_sim_step the estimate must not be 0 (a zero next-step
  // estimate tells the middleware policy every transfer hides for free).
  EXPECT_DOUBLE_EQ(m.estimate_sim_seconds(1000), 2.0e-3);
  m.record_sim_step(0, 4.0, 1000);
  EXPECT_NEAR(m.estimate_sim_seconds(2000), 8.0, 1e-12);
}

// --- Workflow-level guarantees ----------------------------------------------

WorkflowConfig workflow_config() {
  WorkflowConfig c;
  c.machine = cluster::titan();
  c.sim_cores = 128;
  c.staging_cores = 8;
  c.steps = 20;
  c.mode = Mode::Global;
  c.geometry.base_domain = mesh::Box::domain({128, 64, 64});
  c.hints.factor_phases = {{0, {2, 4}}};
  c.monitor.sampling_period = 1;
  c.monitor.trigger.window = 4;
  return c;
}

std::string events_csv(const WorkflowConfig& config, ExecutionSubstrate& substrate,
                       WorkflowResult* out = nullptr) {
  CoupledWorkflow wf(config);
  EventLog log;
  wf.set_observer(&log);
  const WorkflowResult r = wf.run_on(substrate);
  if (out != nullptr) *out = r;
  std::ostringstream os;
  write_events_csv(os, log);
  return os.str();
}

TEST(WorkflowTrigger, FixedPeriodEmitsNoTriggerEvents) {
  WorkflowConfig config = workflow_config();
  AnalyticSubstrate substrate;
  WorkflowResult result;
  const std::string csv = events_csv(config, substrate, &result);
  EXPECT_EQ(result.triggers_fired, 0);
  EXPECT_EQ(result.steps_suppressed, 0);
  EXPECT_EQ(csv.find("trigger-fired"), std::string::npos);
  EXPECT_EQ(csv.find("trigger-suppressed"), std::string::npos);
}

TEST(WorkflowTrigger, PercentileIdenticalAcrossRerunsAndSubstrates) {
  WorkflowConfig config = workflow_config();
  config.monitor.trigger.policy = TriggerPolicy::Percentile;
  config.monitor.trigger.sample_rate = 0.7;  // exercise the seeded draws.
  AnalyticSubstrate a1, a2;
  EventQueueSubstrate des;
  WorkflowResult result;
  const std::string csv1 = events_csv(config, a1, &result);
  const std::string csv2 = events_csv(config, a2);
  const std::string csv3 = events_csv(config, des);
  EXPECT_EQ(csv1, csv2);
  EXPECT_EQ(csv1, csv3);
  EXPECT_GT(result.triggers_fired, 0);
  EXPECT_GT(result.steps_suppressed, 0);
  EXPECT_EQ(result.triggers_fired + result.steps_suppressed, config.steps);
}

TEST(WorkflowTrigger, HybridNeverExceedsMaxInterval) {
  WorkflowConfig config = workflow_config();
  config.monitor.trigger.policy = TriggerPolicy::Hybrid;
  config.monitor.trigger.max_interval = 4;
  CoupledWorkflow wf(config);
  EventLog log;
  wf.set_observer(&log);
  wf.run();
  std::vector<int> fired;
  for (const WorkflowEvent& e : log.events()) {
    if (e.kind == EventKind::TriggerFired) fired.push_back(e.step);
  }
  ASSERT_GE(fired.size(), 2u);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LE(fired[i] - fired[i - 1], config.monitor.trigger.max_interval);
  }
}

TEST(WorkflowTrigger, StepEndCarriesCumulativeCounters) {
  WorkflowConfig config = workflow_config();
  config.monitor.trigger.policy = TriggerPolicy::Percentile;
  CoupledWorkflow wf(config);
  EventLog log;
  wf.set_observer(&log);
  const WorkflowResult result = wf.run();
  int last_fired = -1, last_suppressed = -1;
  for (const WorkflowEvent& e : log.events()) {
    if (e.kind == EventKind::StepEnd || e.kind == EventKind::RunEnd) {
      // Cumulative and monotonic along the stream.
      EXPECT_GE(e.triggers_fired, last_fired == -1 ? 0 : last_fired);
      last_fired = e.triggers_fired;
      last_suppressed = e.steps_suppressed;
    }
  }
  EXPECT_EQ(last_fired, result.triggers_fired);
  EXPECT_EQ(last_suppressed, result.steps_suppressed);
}

}  // namespace
}  // namespace xl
