// Tests for the percentile-sampling trigger layer: the TriggerDetector's
// determinism contract, the Monitor's policy gate, and the workflow-level
// guarantees (FixedPeriod byte-identity with the legacy cadence, Percentile
// byte-identity across reruns and substrates, the Hybrid max-interval cap),
// including the trigger sweep: no injected shock missed on a bursty run, at
// least 30% fewer decisions on a quiescent one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cluster/machine.hpp"
#include "common/contract.hpp"
#include "events_csv.hpp"
#include "runtime/monitor.hpp"
#include "runtime/trigger.hpp"
#include "workflow/coupled_workflow.hpp"
#include "workflow/execution_substrate.hpp"
#include "workflow/observer.hpp"

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

// The trigger sweep: 40-step runs of two geometries. The bursty one injects
// two shocks, a blob onset and a sharp front-decay regime change; the blobs'
// drift between them adds tile-granular churn the trailing quantile must ride
// out. The quiescent one is frozen, so the indicator is exactly 0 after the
// first step and every later decision is wasted work.
constexpr int kShocks[] = {12, 26};  ///< blob onset, front-decay onset.

struct SweepCase {
  const char* name;
  bool bursty;
  TriggerPolicy policy;
  double sample_rate;
};

const SweepCase kSweep[] = {
    {"bursty/fixed", true, TriggerPolicy::FixedPeriod, 1.0},
    {"bursty/percentile", true, TriggerPolicy::Percentile, 1.0},
    {"bursty/hybrid", true, TriggerPolicy::Hybrid, 1.0},
    {"bursty/percentile/subsampled", true, TriggerPolicy::Percentile, 0.7},
    {"quiescent/fixed", false, TriggerPolicy::FixedPeriod, 1.0},
    {"quiescent/percentile", false, TriggerPolicy::Percentile, 1.0},
    {"quiescent/hybrid", false, TriggerPolicy::Hybrid, 1.0},
};

WorkflowConfig sweep_config(const SweepCase& sc) {
  WorkflowConfig c = workflow_config();
  c.steps = 40;
  c.monitor.trigger.window = 8;
  c.monitor.trigger.policy = sc.policy;
  c.monitor.trigger.sample_rate = sc.sample_rate;
  if (sc.bursty) {
    c.geometry.front_speed = 0.002;
    c.geometry.blob_onset_step = kShocks[0];
    c.geometry.num_blobs = 3;
    c.geometry.blob_radius = 0.08;
    c.geometry.front_decay = 0.75;
    c.geometry.front_decay_onset = kShocks[1];
  } else {
    c.geometry.front_speed = 0.0;
    c.geometry.num_blobs = 0;
    c.geometry.front_decay = 1.0;
  }
  return c;
}

/// Steps of an events CSV's trigger-fired rows.
std::vector<int> fired_steps(const std::string& csv) {
  constexpr std::string_view kFired = "trigger-fired,";
  std::vector<int> steps;
  std::istringstream rows(csv);
  for (std::string row; std::getline(rows, row);) {
    if (row.starts_with(kFired)) steps.push_back(std::stoi(row.substr(kFired.size())));
  }
  return steps;
}

TEST(WorkflowTrigger, FixedPeriodEmitsNoTriggerEvents) {
  std::vector<std::pair<std::string, WorkflowConfig>> runs = {{"20 steps", workflow_config()}};
  for (const SweepCase& sc : kSweep) {
    if (sc.policy == TriggerPolicy::FixedPeriod) runs.emplace_back(sc.name, sweep_config(sc));
  }
  for (const auto& [name, config] : runs) {
    SCOPED_TRACE(name);
    AnalyticSubstrate substrate;
    WorkflowResult result;
    const std::string csv = test::events_csv(config, substrate, &result);
    EXPECT_EQ(result.triggers_fired, 0);
    EXPECT_EQ(result.steps_suppressed, 0);
    EXPECT_EQ(csv.find("trigger-fired"), std::string::npos);
    EXPECT_EQ(csv.find("trigger-suppressed"), std::string::npos);
  }
}

TEST(WorkflowTrigger, PercentileIdenticalAcrossRerunsAndSubstrates) {
  WorkflowConfig config = workflow_config();
  config.monitor.trigger.policy = TriggerPolicy::Percentile;
  config.monitor.trigger.sample_rate = 0.7;  // exercise the seeded draws.
  AnalyticSubstrate a1, a2;
  EventQueueSubstrate des;
  WorkflowResult result;
  const std::string csv1 = test::events_csv(config, a1, &result);
  const std::string csv2 = test::events_csv(config, a2);
  const std::string csv3 = test::events_csv(config, des);
  EXPECT_EQ(csv1, csv2);
  EXPECT_EQ(csv1, csv3);
  EXPECT_GT(result.triggers_fired, 0);
  EXPECT_GT(result.steps_suppressed, 0);
  EXPECT_EQ(result.triggers_fired + result.steps_suppressed, config.steps);
}

TEST(WorkflowTrigger, HybridNeverExceedsMaxInterval) {
  WorkflowConfig capped = workflow_config();
  capped.monitor.trigger.policy = TriggerPolicy::Hybrid;
  capped.monitor.trigger.max_interval = 4;
  std::vector<std::pair<std::string, WorkflowConfig>> runs = {{"20 steps", capped}};
  for (const SweepCase& sc : kSweep) {
    if (sc.policy == TriggerPolicy::Hybrid) runs.emplace_back(sc.name, sweep_config(sc));
  }
  for (const auto& [name, config] : runs) {
    SCOPED_TRACE(name);
    AnalyticSubstrate substrate;
    const std::vector<int> fired = fired_steps(test::events_csv(config, substrate));
    ASSERT_GE(fired.size(), 2u);
    const int max_interval = config.monitor.trigger.max_interval;
    int last = -1;
    for (int step : fired) {
      EXPECT_LE(step - last, max_interval) << "fire at step " << step;
      last = step;
    }
    // The quiet run after the last fire counts too.
    EXPECT_LT(config.steps - 1 - last, max_interval);
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

TEST(TriggerSweep, InjectedShocksShowInTheEveryStepBaseline) {
  // Firing at the shocks means something only if they are there: at each one
  // the analyzed cells of the every-step baseline change by more than 15%.
  const WorkflowResult baseline = CoupledWorkflow(sweep_config(kSweep[0])).run();
  for (const int shock : kShocks) {
    SCOPED_TRACE(testing::Message() << "shock at step " << shock);
    const StepRecord& at = baseline.steps.at(static_cast<std::size_t>(shock));
    ASSERT_EQ(at.step, shock);
    const auto before =
        static_cast<double>(baseline.steps.at(static_cast<std::size_t>(shock - 1)).analyzed_cells);
    const auto after = static_cast<double>(at.analyzed_cells);
    EXPECT_GT(std::abs(after - before) / std::max(1.0, before), 0.15);
  }
}

TEST(TriggerSweep, TriggerPoliciesFireAtEveryShock) {
  for (const SweepCase& sc : kSweep) {
    if (!sc.bursty || sc.policy == TriggerPolicy::FixedPeriod) continue;
    SCOPED_TRACE(sc.name);
    AnalyticSubstrate substrate;
    const std::vector<int> fired = fired_steps(test::events_csv(sweep_config(sc), substrate));
    for (const int shock : kShocks) {
      EXPECT_NE(std::find(fired.begin(), fired.end(), shock), fired.end())
          << "missed the shock at step " << shock;
    }
  }
}

TEST(TriggerSweep, QuiescentRunsSaveAtLeast30PercentOfDecisions) {
  for (const SweepCase& sc : kSweep) {
    if (sc.bursty || sc.policy == TriggerPolicy::FixedPeriod) continue;
    SCOPED_TRACE(sc.name);
    // Adapting every step takes 40 decisions.
    EXPECT_LE(CoupledWorkflow(sweep_config(sc)).run().triggers_fired, 28);
  }
}

TEST(TriggerSweep, EveryCaseIsIdenticalAcrossRerunsAndSubstrates) {
  for (const SweepCase& sc : kSweep) {
    SCOPED_TRACE(sc.name);
    const WorkflowConfig config = sweep_config(sc);
    AnalyticSubstrate a1, a2;
    EventQueueSubstrate des;
    const std::string csv = test::events_csv(config, a1);
    EXPECT_EQ(csv, test::events_csv(config, a2));
    EXPECT_EQ(csv, test::events_csv(config, des));
  }
}

}  // namespace
}  // namespace xl
