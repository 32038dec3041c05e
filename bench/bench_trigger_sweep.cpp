// Trigger sweep: the regression gate for the percentile-sampling trigger
// layer (Monitor + TriggerDetector).
//
// Two geometry schedules drive the coupled workflow (Titan 128+8, global
// cross-layer adaptation, sampling_period = 1):
//
//  * bursty — a slow front plus a sudden blob onset mid-run and a sharp
//    front-decay regime change later: two well-separated "shocks" the
//    trigger must not miss.
//  * quiescent — a frozen front and no blobs: the geometry never changes,
//    so every adaptation decision after the first is wasted work.
//
// The oracle shock schedule is the two INJECTED regime changes of the bursty
// config — the blob onset step and the front-decay onset step — independent
// of the trigger implementation. The harness verifies each against the
// FixedPeriod baseline's own per-step records (relative analyzed-cell change
// above 15% at that step), so the zero-miss gate cannot pass vacuously. The
// blob drift between the two onsets adds genuine tile-granular churn the
// trailing quantile must ride out, which is what makes the miss gate hard.
//
// Gates (--check):
//  * FixedPeriod emits NO trigger events and zero trigger counters (the
//    legacy cadence is untouched).
//  * Percentile and Hybrid miss ZERO oracle shocks on the bursty schedule
//    (false-negative rate 0), including under window sub-sampling.
//  * On the quiescent schedule the trigger makes >= 30% fewer adaptation
//    decisions than the every-step baseline (it is ~97% fewer).
//  * Hybrid never lets more than max_interval steps pass without a fire.
//  * Every trigger case's event CSV is byte-identical across reruns and
//    across the analytic and discrete-event substrates.
//
// --quick   trims the sweep to the gate-carrying cases (CI smoke)
// --json F  write the report as JSON to file F
// --check   exit non-zero unless every invariant above holds
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/machine.hpp"
#include "mesh/layout.hpp"
#include "report.hpp"
#include "runtime/trigger.hpp"
#include "workflow/coupled_workflow.hpp"
#include "workflow/execution_substrate.hpp"
#include "workflow/observer.hpp"
#include "workflow/trace_io.hpp"

namespace {

using namespace xl;
using namespace xl::workflow;
using mesh::Box;

constexpr int kSteps = 40;
constexpr double kOracleThreshold = 0.15;  ///< relative change marking a shock.
constexpr double kMaxDecisionRatio = 0.7;  ///< quiescent gate: >= 30% saved.

WorkflowConfig sweep_config(bool bursty) {
  WorkflowConfig c;
  c.machine = cluster::titan();
  c.sim_cores = 128;
  c.staging_cores = 8;
  c.steps = kSteps;
  c.mode = Mode::Global;
  c.geometry.base_domain = Box::domain({128, 64, 64});
  c.hints.factor_phases = {{0, {2, 4}}};
  c.monitor.sampling_period = 1;  // the k = 1 baseline: adapt every step.
  c.monitor.trigger.window = 8;
  if (bursty) {
    // Slow continuous growth, a blob onset at step 12 (sudden new refined
    // regions) and a sharp decay regime change at step 26.
    c.geometry.front_speed = 0.002;
    c.geometry.blob_onset_step = 12;
    c.geometry.num_blobs = 3;
    c.geometry.blob_radius = 0.08;
    c.geometry.front_decay = 0.75;
    c.geometry.front_decay_onset = 26;
  } else {
    // Frozen geometry: the indicator is exactly 0 after the first step.
    c.geometry.front_speed = 0.0;
    c.geometry.num_blobs = 0;
    c.geometry.front_decay = 1.0;
  }
  return c;
}

/// The injected regime changes of the bursty schedule — the oracle the
/// trigger is graded against.
std::vector<int> injected_shocks(const WorkflowConfig& c) {
  return {c.geometry.blob_onset_step, c.geometry.front_decay_onset};
}

/// Non-vacuity check: the injected shock must be VISIBLE in the baseline's
/// per-step records as a relative analyzed-cell change above the oracle
/// threshold, or the zero-miss gate would grade the trigger against a
/// regime change that never materialized.
bool shock_visible(const WorkflowResult& baseline, int step) {
  for (std::size_t i = 1; i < baseline.steps.size(); ++i) {
    if (baseline.steps[i].step != step) continue;
    const double prev =
        std::max(1.0, static_cast<double>(baseline.steps[i - 1].analyzed_cells));
    const double change =
        std::abs(static_cast<double>(baseline.steps[i].analyzed_cells) -
                 static_cast<double>(baseline.steps[i - 1].analyzed_cells)) /
        prev;
    return change > kOracleThreshold;
  }
  return false;
}

std::uint64_t fnv(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char ch : s) h = (h ^ ch) * 1099511628211ull;
  return h;
}

std::string events_csv_of(const WorkflowConfig& config, ExecutionSubstrate& substrate,
                          WorkflowResult* out, std::vector<int>* fired) {
  CoupledWorkflow wf(config);
  EventLog log;
  wf.set_observer(&log);
  const WorkflowResult result = wf.run_on(substrate);
  if (out) *out = result;
  if (fired) {
    for (const WorkflowEvent& e : log.events()) {
      if (e.kind == EventKind::TriggerFired) fired->push_back(e.step);
    }
  }
  std::ostringstream os;
  write_events_csv(os, log);
  return os.str();
}

struct SweepCase {
  const char* schedule;  ///< "bursty" | "quiescent"
  runtime::TriggerPolicy policy;
  double sample_rate;
  bool quick;  ///< included in --quick mode.
};

const SweepCase kCases[] = {
    {"bursty", runtime::TriggerPolicy::FixedPeriod, 1.0, true},
    {"bursty", runtime::TriggerPolicy::Percentile, 1.0, true},
    {"bursty", runtime::TriggerPolicy::Hybrid, 1.0, false},
    {"bursty", runtime::TriggerPolicy::Percentile, 0.7, false},
    {"quiescent", runtime::TriggerPolicy::FixedPeriod, 1.0, false},
    {"quiescent", runtime::TriggerPolicy::Percentile, 1.0, true},
    {"quiescent", runtime::TriggerPolicy::Hybrid, 1.0, true},
};

struct CaseResult {
  std::string label;
  const SweepCase* sc = nullptr;
  int decisions = 0;       ///< adaptation decisions taken (fires; steps for fixed).
  int suppressed = 0;
  int shock_count = 0;     ///< oracle shocks on this schedule.
  int missed_shocks = 0;   ///< oracle shocks with no fire (must be 0).
  int false_fires = 0;     ///< fires at non-shock steps (diagnostic).
  int max_gap = 0;         ///< longest run of consecutive non-fire steps.
  double saved_fraction = 0.0;  ///< decisions saved vs the k = 1 baseline.
  std::uint64_t csv_checksum = 0;
  bool identical_rerun = false;
  bool identical_substrates = false;
  bool ok = false;
};

CaseResult run_case(const SweepCase& sc, const std::vector<int>& shocks) {
  WorkflowConfig config = sweep_config(std::strcmp(sc.schedule, "bursty") == 0);
  config.monitor.trigger.policy = sc.policy;
  config.monitor.trigger.sample_rate = sc.sample_rate;

  CaseResult r;
  r.sc = &sc;
  r.label = std::string("trigger/") + sc.schedule + "/" +
            runtime::trigger_policy_name(sc.policy);
  if (sc.sample_rate < 1.0) r.label += "/subsampled";

  WorkflowResult result;
  std::vector<int> fired;
  AnalyticSubstrate analytic1, analytic2;
  EventQueueSubstrate des;
  const std::string a1 = events_csv_of(config, analytic1, &result, &fired);
  const std::string a2 = events_csv_of(config, analytic2, nullptr, nullptr);
  const std::string d = events_csv_of(config, des, nullptr, nullptr);
  r.csv_checksum = fnv(a1);
  r.identical_rerun = a1 == a2;
  r.identical_substrates = a1 == d;

  const bool fixed = sc.policy == runtime::TriggerPolicy::FixedPeriod;
  r.decisions = fixed ? config.steps : result.triggers_fired;
  r.suppressed = result.steps_suppressed;
  r.saved_fraction =
      1.0 - static_cast<double>(r.decisions) / static_cast<double>(config.steps);
  r.shock_count = static_cast<int>(shocks.size());
  for (int s : shocks) {
    if (!fixed && std::find(fired.begin(), fired.end(), s) == fired.end()) {
      ++r.missed_shocks;
    }
  }
  for (int s : fired) {
    if (std::find(shocks.begin(), shocks.end(), s) == shocks.end()) ++r.false_fires;
  }
  int prev_fire = -1;
  for (int s : fired) {
    r.max_gap = std::max(r.max_gap, s - prev_fire - 1);
    prev_fire = s;
  }
  if (!fixed) r.max_gap = std::max(r.max_gap, config.steps - 1 - prev_fire);

  bool ok = r.identical_rerun && r.identical_substrates;
  if (fixed) {
    // The legacy cadence must not know the trigger layer exists.
    ok = ok && result.triggers_fired == 0 && result.steps_suppressed == 0 &&
         a1.find("trigger-fired") == std::string::npos &&
         a1.find("trigger-suppressed") == std::string::npos;
  } else {
    ok = ok && r.missed_shocks == 0;
    if (std::strcmp(sc.schedule, "quiescent") == 0) {
      ok = ok && r.decisions <=
                     static_cast<int>(kMaxDecisionRatio * config.steps);
    }
    if (sc.policy == runtime::TriggerPolicy::Hybrid) {
      ok = ok && r.max_gap < config.monitor.trigger.max_interval;
    }
  }
  r.ok = ok;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = bench::parse_gate_flags(argc, argv, "bench_trigger_sweep");
  if (!flags) return 2;
  const bool quick = flags->quick;
  bench::Report report("trigger_sweep", *flags);

  // The injected oracle shocks, verified visible in a FixedPeriod baseline
  // (the quiescent schedule injects none — its gate is decision savings).
  const WorkflowConfig bursty_config = sweep_config(true);
  const std::vector<int> shocks = injected_shocks(bursty_config);
  WorkflowResult baseline;
  {
    AnalyticSubstrate substrate;
    events_csv_of(bursty_config, substrate, &baseline, nullptr);
  }
  std::printf("=== Trigger sweep: %d steps, injected shocks at steps %d and %d ===\n",
              kSteps, shocks[0], shocks[1]);
  std::printf("%-38s %9s %9s %7s %7s %7s %7s %6s %5s %5s\n", "case", "decisions",
              "suppress", "saved", "shocks", "missed", "false+", "maxgap", "subst",
              "ok");

  for (int s : shocks) {
    report.invariant(bench::strprintf("shock_visible/%d", s), shock_visible(baseline, s),
                     bench::strprintf("injected shock at step %d is not visible in the "
                                      "baseline records (oracle vacuous)",
                                      s));
  }

  report.set("steps", kSteps);
  int cases = 0;
  for (const SweepCase& sc : kCases) {
    if (quick && !sc.quick) continue;
    const bool bursty = std::strcmp(sc.schedule, "bursty") == 0;
    const CaseResult r = run_case(sc, bursty ? shocks : std::vector<int>{});
    std::printf("%-38s %9d %9d %6.0f%% %7d %7d %7d %6d %5s %5s\n", r.label.c_str(),
                r.decisions, r.suppressed, 100.0 * r.saved_fraction,
                r.shock_count, r.missed_shocks, r.false_fires, r.max_gap,
                r.identical_substrates ? "yes" : "NO", r.ok ? "yes" : "NO");
    report.invariant(r.label, r.ok,
                     r.label + (r.identical_rerun ? "" : " rerun diverged") +
                         (r.identical_substrates ? "" : " substrates diverged") +
                         (r.missed_shocks > 0 ? " missed oracle shocks" : ""));
    report.add("cases", bench::Record()
                            .set("case", r.label)
                            .set("decisions", r.decisions)
                            .set("suppressed", r.suppressed)
                            .set("saved_fraction", r.saved_fraction)
                            .set("oracle_shocks", r.shock_count)
                            .set("missed_shocks", r.missed_shocks)
                            .set("false_fires", r.false_fires)
                            .set("max_gap", r.max_gap)
                            .set("csv_checksum", r.csv_checksum)
                            .set("identical_rerun", r.identical_rerun)
                            .set("identical_substrates", r.identical_substrates)
                            .set("ok", r.ok));
    ++cases;
  }
  std::printf("(trigger event CSVs bit-identical across substrates and reruns)\n");

  return report.finish(bench::strprintf(
      "%d cases; zero missed shocks on bursty, >= 30%% fewer decisions on quiescent, "
      "fixed cadence untouched",
      cases));
}
