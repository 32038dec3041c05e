// The two modeled workloads: the pipeline (StepPipeline) driven step by step,
// its events exported with write_events_csv, and the digest of that CSV
// checked against the reference table. Geometry and balance run inside
// run_step, where this benchmark cannot time them from outside; the traced
// units therefore replay SyntheticAmrEvolution::at and mesh::balance on a
// second evolution of the same configuration, outside the run_step spans.
#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/machine.hpp"
#include "mesh/layout.hpp"
#include "runtime/fault.hpp"
#include "runtime/trigger.hpp"
#include "workflow/execution_substrate.hpp"
#include "workflow/experiment.hpp"
#include "workflow/observer.hpp"
#include "workflow/step_pipeline.hpp"
#include "workflow/trace_io.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace xl;
using namespace xl::workflow;

constexpr int kExtraSetups = 6;  ///< set-ups measured before the first unit.

/// One pipeline run of a workload: its reference key, configuration and
/// substrate.
struct Case {
  std::string key;
  WorkflowConfig config;
  bool des = false;
};

/// A case built during set-up and run during the unit. Heap-allocated: the
/// pipeline keeps pointers to the substrate and the log.
struct Prepared {
  const Case* c = nullptr;
  std::unique_ptr<ExecutionSubstrate> substrate;
  EventLog log;
  std::unique_ptr<StepPipeline> pipeline;
};

/// Layer counts of one unit; exact for given inputs.
struct Counts {
  double events = 0, export_bytes = 0, des_fired = 0, decisions = 0, triggers = 0,
         retries = 0, geometry_calls = 0, boxes = 0;

  Counts& operator+=(const Counts& o) {
    events += o.events;
    export_bytes += o.export_bytes;
    des_fired += o.des_fired;
    decisions += o.decisions;
    triggers += o.triggers;
    retries += o.retries;
    geometry_calls += o.geometry_calls;
    boxes += o.boxes;
    return *this;
  }
};

struct UnitOutcome {
  UnitTimes times;  ///< wall: steps + finish + export.
  Counts counts;
};

std::unique_ptr<ExecutionSubstrate> make_substrate(bool des) {
  if (des) return std::make_unique<EventQueueSubstrate>();
  return std::make_unique<AnalyticSubstrate>();
}

/// Replay one step's geometry outside the pipeline: at(step) as the pipeline
/// calls it, then mesh::balance on each refined level's boxes (balance runs
/// inside at(), so the difference of the two is the synthetic clustering).
double replay_geometry(const amr::SyntheticAmrEvolution& evolution, int step,
                       Tracer& tracer, Counts& counts) {
  const double t0 = now_s();
  amr::SyntheticStep geom;
  {
    Timed t(tracer, "amr.geometry");
    geom = evolution.at(step);
  }
  counts.geometry_calls += 1;
  for (const mesh::BoxLayout& layout : geom.levels) {
    counts.boxes += static_cast<double>(layout.num_boxes());
  }
  const amr::SyntheticAmrConfig& g = evolution.config();
  for (std::size_t lev = 1; lev < geom.levels.size(); ++lev) {
    Timed t(tracer, "mesh.balance");
    const mesh::BoxLayout balanced = mesh::balance(geom.levels[lev].boxes(), g.nranks, g.balance);
    if (balanced.num_boxes() != geom.levels[lev].num_boxes()) {
      throw std::runtime_error("balance replay lost boxes");
    }
  }
  return now_s() - t0;
}

std::string events_csv(const EventLog& log) {
  std::ostringstream os;
  write_events_csv(os, log);
  return os.str();
}

std::vector<std::unique_ptr<Prepared>> prepare(const std::vector<const Case*>& cases,
                                               Tracer& tracer) {
  std::vector<std::unique_ptr<Prepared>> prepared;
  for (const Case* c : cases) {
    auto p = std::make_unique<Prepared>();
    p->c = c;
    Timed t(tracer, "workflow.setup");
    p->substrate = make_substrate(c->des);
    p->pipeline = std::make_unique<StepPipeline>(c->config, *p->substrate, &p->log);
    prepared.push_back(std::move(p));
  }
  return prepared;
}

UnitOutcome run_unit(const char* workload, const std::vector<const Case*>& cases,
                     const RunOptions& options, Tracer& tracer, RunResult& rr) {
  UnitOutcome out;
  const double t_setup = now_s();
  const std::vector<std::unique_ptr<Prepared>> prepared = prepare(cases, tracer);
  out.times.setup_s = now_s() - t_setup;

  const double t_run = now_s();
  for (const auto& p : prepared) {
    const WorkflowConfig& cfg = p->c->config;
    std::unique_ptr<amr::SyntheticAmrEvolution> replay;
    if (tracer.enabled()) {
      const double r0 = now_s();
      replay = std::make_unique<amr::SyntheticAmrEvolution>(cfg.geometry);
      out.times.replay_s += now_s() - r0;
    }
    for (int step = 0; step < cfg.steps; ++step) {
      {
        Timed t(tracer, "workflow.run_step");
        p->pipeline->run_step(step);
        rr.step_ms.push_back(t.stop() * 1e3);
      }
      if (replay) out.times.replay_s += replay_geometry(*replay, step, tracer, out.counts);
    }
    WorkflowResult result;
    {
      Timed t(tracer, "workflow.finish");
      result = p->pipeline->finish();
    }
    std::string csv;
    {
      Timed t(tracer, "workflow.export");
      csv = events_csv(p->log);
    }
    out.counts.events += static_cast<double>(p->log.events().size());
    out.counts.export_bytes += static_cast<double>(csv.size());
    out.counts.decisions += static_cast<double>(p->log.count(EventKind::Decision));
    out.counts.triggers += result.triggers_fired;
    out.counts.retries += result.transfer_retries;
    if (p->c->des) {
      out.counts.des_fired += static_cast<double>(
          static_cast<const EventQueueSubstrate&>(*p->substrate).queue().stats().fired);
    }

    const std::string got = digest(csv);
    if (options.record) {
      rr.record_lines.push_back(std::string(workload) + " " + std::to_string(options.variant) +
                                " " + p->c->key + " " + got);
    } else {
      const std::string want = options.refs->get(workload, options.variant, p->c->key);
      rr.check(got == want, std::string(workload) + " " + p->c->key + ": events CSV digest " +
                                got + ", reference " + (want.empty() ? "missing" : want));
    }
  }
  out.times.wall_s = now_s() - t_run - out.times.replay_s;
  return out;
}

/// Measures a modeled workload and derives the per-layer figures of traced
/// runs. `unit_cases(i)` names the cases of round i's units, which repeat
/// every `kinds` rounds; record mode runs `kinds` rounds.
template <typename UnitCases>
RunResult run_modeled(const char* workload, const RunOptions& options, int kinds,
                      UnitCases unit_cases) {
  RunResult rr;
  // Extra set-ups so the set-up median rests on several samples even when
  // only a few units fit the budget.
  if (!options.record) {
    Tracer off(false);
    for (int i = 0; i < kExtraSetups; ++i) {
      const double t0 = now_s();
      prepare(unit_cases(i), off);
      rr.setup_s.push_back(now_s() - t0);
    }
  }
  Tracer tracer(options.trace);
  Counts sum;  // over traced units
  run_rounds(options, kinds, tracer, rr, [&](int round, Tracer& t) {
    const UnitOutcome o = run_unit(workload, unit_cases(round), options, t, rr);
    if (t.enabled()) sum += o.counts;
    UnitTimes times = o.times;
    times.kind = round % kinds;
    return times;
  });
  if (!options.trace) return rr;

  const auto totals = layer_totals(tracer.spans());
  const int tu = rr.traced_units;
  const double geometry = per_unit(totals, "amr.geometry", tu);
  const double balance = per_unit(totals, "mesh.balance", tu);
  const double step = per_unit(totals, "workflow.run_step", tu);
  auto& L = rr.layers;
  L["amr.geometry_s"] = {geometry, "s"};
  L["amr.geometry_calls"] = {sum.geometry_calls / tu, "count"};
  L["amr.boxes_per_step"] = {sum.geometry_calls > 0 ? sum.boxes / sum.geometry_calls : 0.0,
                             "count"};
  L["mesh.balance_s"] = {balance, "s"};
  L["amr.synthetic_cluster_s"] = {geometry - balance, "s"};  // derived
  L["workflow.setup_s"] = {per_unit(totals, "workflow.setup", tu), "s"};
  L["workflow.step_s"] = {step, "s"};
  L["workflow.self_s"] = {step - geometry, "s"};  // derived
  L["workflow.finish_s"] = {per_unit(totals, "workflow.finish", tu), "s"};
  L["workflow.events"] = {sum.events / tu, "count"};
  L["workflow.export_s"] = {per_unit(totals, "workflow.export", tu), "s"};
  L["workflow.export_bytes"] = {sum.export_bytes / tu, "bytes"};
  L["cluster.des_fired"] = {sum.des_fired / tu, "count"};
  L["runtime.decisions"] = {sum.decisions / tu, "count"};
  L["runtime.triggers_fired"] = {sum.triggers / tu, "count"};
  L["transport.retries"] = {sum.retries / tu, "count"};
  rr.spans = tracer.take();
  return rr;
}

// --- figs_titan -----------------------------------------------------------------

/// The seed moves the drifting blobs (geometry seed); variant 0 is exactly the
/// figure configuration. Two of the four placements, the static baseline of
/// Fig. 7 and the global adaptation of Fig. 10, so each gets several repeats
/// in a run (a unit takes seconds; the modes share one geometry either way).
std::vector<Case> figs_cases(int variant) {
  constexpr int kScale16K = 3;
  std::vector<Case> cases;
  for (Mode mode : {Mode::StaticInSitu, Mode::Global}) {
    Case c;
    c.key = mode_name(mode);
    c.config = mode == Mode::Global ? titan_global_experiment(kScale16K, mode)
                                    : titan_middleware_experiment(kScale16K, mode);
    c.config.geometry.seed += static_cast<std::uint64_t>(variant);
    cases.push_back(std::move(c));
  }
  return cases;
}

// --- policy_sweep ---------------------------------------------------------------

constexpr int kSweepSteps = 120;

/// Fault schedules of the sweep: transfer drops/corruption with retries; two
/// staging crashes under heartbeat leases; a straggler window with drops.
const char* const kSchedules[] = {"drops", "crashes", "straggler"};

/// The seed draws the geometry, trigger and fault seeds; the case structure
/// (replication x trigger x schedule, and each case's geometry size) is fixed
/// so every seed does comparable work.
std::vector<Case> sweep_cases(int variant) {
  SplitMix rng(0x5EEDBEEFull + static_cast<std::uint64_t>(variant));
  const std::uint64_t geometry_seed = rng.next();
  const std::uint64_t trigger_seed = rng.next();
  const std::uint64_t fault_seed = rng.next();
  std::vector<Case> cases;
  for (int k = 1; k <= 3; ++k) {
    for (runtime::TriggerPolicy trigger :
         {runtime::TriggerPolicy::FixedPeriod, runtime::TriggerPolicy::Percentile,
          runtime::TriggerPolicy::Hybrid}) {
      for (int s = 0; s < 3; ++s) {
        Case c;
        c.des = true;
        c.key = std::string("k").append(std::to_string(k)).append("-");
        c.key.append(runtime::trigger_policy_name(trigger)).append("-").append(kSchedules[s]);
        WorkflowConfig& w = c.config;
        w.machine = cluster::titan();
        w.sim_cores = 128;
        w.staging_cores = 8;
        w.steps = kSweepSteps;
        w.mode = Mode::Global;
        w.geometry.base_domain =
            s == 1 ? mesh::Box::domain({64, 32, 32}) : mesh::Box::domain({128, 64, 64});
        w.geometry.nranks = 128;
        w.geometry.front_speed = 0.003;
        w.geometry.num_blobs = 3;
        w.geometry.blob_radius = 0.08;
        w.geometry.blob_onset_step = 30;
        w.geometry.front_decay = 0.9;
        w.geometry.front_decay_onset = 80;
        w.geometry.seed = geometry_seed;
        w.hints.factor_phases = {{0, {2, 4}}};
        w.monitor.sampling_period = 1;
        w.monitor.trigger.policy = trigger;
        w.monitor.trigger.window = 8;
        w.monitor.trigger.seed = trigger_seed;
        w.replication = k;
        runtime::FaultConfig& f = w.faults;
        f.seed = fault_seed + static_cast<std::uint64_t>(s);
        f.max_transfer_retries = 3;
        const auto fault = [&f](runtime::FaultKind kind, int step, int servers, int duration,
                                double slowdown) {
          runtime::FaultSpec spec;
          spec.kind = kind;
          spec.step = step;
          spec.servers = servers;
          spec.duration_steps = duration;
          spec.slowdown = slowdown;
          f.events.push_back(spec);
        };
        if (s == 0) {
          f.transfer_drop_rate = 0.08;
          f.transfer_corrupt_rate = 0.02;
        } else if (s == 1) {
          f.transfer_drop_rate = 0.02;
          f.lease_steps = 2;
          fault(runtime::FaultKind::ServerCrash, 30, 1, 10, 1.0);
          fault(runtime::FaultKind::ServerCrash, 70, 2, 8, 1.0);
        } else {
          f.transfer_drop_rate = 0.03;
          fault(runtime::FaultKind::Straggler, 40, 1, 30, 3.0);
        }
        cases.push_back(std::move(c));
      }
    }
  }
  return cases;
}

}  // namespace

RunResult run_figs_titan(const RunOptions& options) {
  const std::vector<Case> cases = figs_cases(options.variant);
  const int n = static_cast<int>(cases.size());
  return run_modeled("figs_titan", options, n, [&](int round) {
    return std::vector<const Case*>{&cases[static_cast<std::size_t>(round % n)]};
  });
}

RunResult run_policy_sweep(const RunOptions& options) {
  const std::vector<Case> cases = sweep_cases(options.variant);

  // Substrate identity, once per run on cases the seed picks (variant v checks
  // cases v and v + 16, so the 16 variants reach all 27 cases): the analytic
  // substrate must reproduce the discrete-event run's events CSV byte for byte.
  // Its time counts against the measuring budget.
  RunResult identity;
  const double t_identity = now_s();
  for (std::size_t i = static_cast<std::size_t>(options.variant); i < cases.size();
       i += kVariants) {
    const Case& c = cases[i];
    std::string csv[2];
    for (int des = 0; des < 2; ++des) {
      const std::unique_ptr<ExecutionSubstrate> substrate = make_substrate(des == 1);
      EventLog log;
      StepPipeline pipeline(c.config, *substrate, &log);
      for (int step = 0; step < c.config.steps; ++step) pipeline.run_step(step);
      pipeline.finish();
      csv[des] = events_csv(log);
    }
    identity.check(csv[0] == csv[1],
                   "policy_sweep " + c.key + ": analytic and discrete-event CSVs differ");
  }
  RunOptions budget = options;
  budget.seconds -= now_s() - t_identity;
  std::fprintf(stderr, "  substrate identity: %ld case(s) in %.3f s\n", identity.attempted,
               options.seconds - budget.seconds);

  std::vector<const Case*> all;
  for (const Case& c : cases) all.push_back(&c);
  RunResult rr = run_modeled("policy_sweep", budget, 1, [&](int) { return all; });
  rr.attempted += identity.attempted;
  rr.failed += identity.failed;
  rr.failures.insert(rr.failures.end(), identity.failures.begin(), identity.failures.end());
  return rr;
}

}  // namespace perfbench
