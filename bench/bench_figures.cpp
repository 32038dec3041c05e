// Every deterministic table of this reproduction, printed by one program in
// this order: the paper's Figs. 1 and 5-11 and Table 2, the estimator,
// root-leaf and monitor-period ablations (DESIGN.md §5.3-5.5), the energy
// extension (paper §7 future work) and the fault sweeps at replication 1, 2
// and 3. bench/figures_expected.txt holds its stdout byte for byte.
//
// A workflow run is deterministic, so one run IS the experiment: there is
// nothing to repeat or time. plan() builds one table of runs, each distinct
// configuration once, and every printer reads its rows from that table. A row
// that varies a baseline only by setting a field to the value the baseline
// already holds is the baseline's run, not a second one. Every run records
// its event stream, so printers read per-step series from the event log.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "amr/amr_simulation.hpp"
#include "amr/memory_model.hpp"
#include "amr/polytropic_gas.hpp"
#include "amr/synthetic.hpp"
#include "analysis/downsample.hpp"
#include "analysis/entropy.hpp"
#include "analysis/statistics.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "runtime/app_policy.hpp"
#include "viz/marching_cubes.hpp"
#include "workflow/coupled_workflow.hpp"
#include "workflow/energy.hpp"
#include "workflow/experiment.hpp"
#include "workflow/observer.hpp"

using namespace xl;
using namespace xl::workflow;

namespace {

// ---- The table of runs -------------------------------------------------------

/// One workflow execution: its config, its result and the events it emitted.
struct Run {
  WorkflowConfig config;
  WorkflowResult result;
  EventLog events;
};

/// Events of one kind, in emission order.
std::vector<const WorkflowEvent*> events_of_kind(const EventLog& log, EventKind kind) {
  std::vector<const WorkflowEvent*> out;
  for (const WorkflowEvent& e : log.events()) {
    if (e.kind == kind) out.push_back(&e);
  }
  return out;
}

/// The ablations and the energy table run at 4K cores, the fault sweeps at 2K.
constexpr std::size_t kAblationScale = 1;
constexpr std::size_t kFaultScale = 0;

struct EstimatorRow {
  runtime::EstimatorKind kind;
  double alpha;
  const char* label;
};
const EstimatorRow kEstimatorRows[] = {
    {runtime::EstimatorKind::Oracle, 0.5, "oracle (true costs)"},
    {runtime::EstimatorKind::Ewma, 0.2, "EWMA alpha=0.2"},
    {runtime::EstimatorKind::Ewma, 0.5, "EWMA alpha=0.5 (default)"},
    {runtime::EstimatorKind::Ewma, 0.9, "EWMA alpha=0.9"},
    {runtime::EstimatorKind::LastValue, 0.5, "last value"},
};

struct OrderRow {
  runtime::PlanOrder order;
  const char* label;
};
const OrderRow kOrderRows[] = {
    {runtime::PlanOrder::LeavesThenRoots, "leaves->roots (paper)"},
    {runtime::PlanOrder::RootsThenLeaves, "roots->leaves"},
    {runtime::PlanOrder::Unordered, "uncoordinated"},
};

const int kPeriods[] = {1, 2, 5, 10};

const int kReplications[] = {1, 2, 3};
const double kDropRates[] = {0.0, 0.02, 0.05, 0.10, 0.20};

struct CrashCase {
  const char* label;
  int servers;   // 0 = no crash
  int duration;  // steps; 0 = permanent
};
const CrashCase kCrashCases[] = {
    {"none", 0, 0},          {"half/5-steps", 64, 5},  {"half/permanent", 64, 0},
    {"full/5-steps", 128, 5}, {"full/permanent", 128, 0},
};

/// The runs of one Titan scale: Fig. 7's three placements, and Fig. 10's
/// local (middleware-only) and global adaptations under the hint phases.
struct TitanRuns {
  const Run* insitu = nullptr;
  const Run* intransit = nullptr;
  const Run* adaptive = nullptr;
  const Run* local = nullptr;
  const Run* global = nullptr;
};

/// One labelled row of a table that varies a baseline.
struct Variant {
  std::string label;
  const Run* run = nullptr;
};

/// One fault sweep: a run per drop rate and per crash case, in table order.
struct FaultRuns {
  int replication = 1;
  std::vector<const Run*> drops, crashes;
};

/// Every workflow run the tables read. `all` owns each distinct run; the
/// other members point into it in table order.
struct Runs {
  std::vector<std::unique_ptr<const Run>> all;
  std::vector<TitanRuns> titan;  // 2K, 4K, 8K, 16K
  const Run* resource_static = nullptr;  // Fig. 9
  const Run* resource_adaptive = nullptr;
  std::vector<Variant> estimator, order, period;
  std::vector<FaultRuns> faults;  // replication 1, 2, 3

  /// Runs `config` once on the analytic substrate.
  const Run* run(const WorkflowConfig& config) {
    auto out = std::make_unique<Run>();
    out->config = config;
    CoupledWorkflow wf(config);
    wf.set_observer(&out->events);
    out->result = wf.run();
    all.push_back(std::move(out));
    return all.back().get();
  }
};

Runs plan() {
  Runs t;
  for (int s = 0; s < static_cast<int>(titan_scales().size()); ++s) {
    t.titan.push_back({t.run(titan_middleware_experiment(s, Mode::StaticInSitu)),
                       t.run(titan_middleware_experiment(s, Mode::StaticInTransit)),
                       t.run(titan_middleware_experiment(s, Mode::AdaptiveMiddleware)),
                       t.run(titan_global_experiment(s, Mode::AdaptiveMiddleware)),
                       t.run(titan_global_experiment(s, Mode::Global))});
  }
  t.resource_static = t.run(intrepid_resource_experiment(Mode::StaticInTransit));
  t.resource_adaptive = t.run(intrepid_resource_experiment(Mode::AdaptiveResource));

  // Each ablation row sets fields of a 4K baseline; the row that sets them to
  // the baseline's own values is the baseline run.
  const Run* mw = t.titan[kAblationScale].adaptive;
  const runtime::MonitorConfig& monitor = mw->config.monitor;
  for (const EstimatorRow& row : kEstimatorRows) {
    WorkflowConfig c = mw->config;
    c.monitor.estimator = row.kind;
    c.monitor.ewma_alpha = row.alpha;
    const bool same = row.kind == monitor.estimator && row.alpha == monitor.ewma_alpha;
    t.estimator.push_back({row.label, same ? mw : t.run(c)});
  }
  const Run* global = t.titan[kAblationScale].global;
  for (const OrderRow& row : kOrderRows) {
    WorkflowConfig c = global->config;
    c.plan_order = row.order;
    t.order.push_back({row.label, row.order == global->config.plan_order ? global : t.run(c)});
  }
  for (int period : kPeriods) {
    WorkflowConfig c = mw->config;
    c.monitor.sampling_period = period;
    t.period.push_back(
        {std::to_string(period), period == monitor.sampling_period ? mw : t.run(c)});
  }

  // The fault sweeps vary the 2K adaptive run. At each replication the
  // fault-free rows (0% drop, no crash) share one run, and at replication 1
  // that run is Fig. 7's own.
  const Run* mw2k = t.titan[kFaultScale].adaptive;
  for (int k : kReplications) {
    WorkflowConfig replicated = mw2k->config;
    replicated.replication = k;
    const Run* base = k == mw2k->config.replication ? mw2k : t.run(replicated);
    FaultRuns f{k, {}, {}};
    for (double rate : kDropRates) {
      WorkflowConfig c = base->config;
      c.faults.transfer_drop_rate = rate;
      f.drops.push_back(rate == base->config.faults.transfer_drop_rate ? base : t.run(c));
    }
    for (const CrashCase& cc : kCrashCases) {
      if (cc.servers == 0) {
        f.crashes.push_back(base);
        continue;
      }
      WorkflowConfig c = base->config;
      runtime::FaultSpec spec;
      spec.kind = runtime::FaultKind::ServerCrash;
      spec.step = 10;
      spec.servers = cc.servers;
      spec.duration_steps = cc.duration;
      c.faults.events.push_back(spec);
      f.crashes.push_back(t.run(c));
    }
    t.faults.push_back(std::move(f));
  }
  return t;
}

const char* titan_label(std::size_t scale) { return titan_scales()[scale].label; }

double gigabytes(std::size_t bytes) { return static_cast<double>(bytes) / 1e9; }

// ---- Fig. 1 -------------------------------------------------------------------
// Distribution of peak memory across ranks and time steps for the AMR
// Polytropic Gas workload (Intrepid model, 4K cores). The per-rank peaks come
// from the memory model applied to the real per-step layouts (decompose +
// Berger-Rigoutsos + Morton balance), which is where the paper's erratic,
// imbalanced profile originates.

void print_fig1() {
  constexpr int kSteps = 50;
  amr::SyntheticAmrEvolution evolution(intrepid_geometry(4096));
  std::cout << "\n=== Figure 1: peak memory per process, 4K ranks, " << kSteps
            << " steps (MB) ===\n";
  Table t({"step", "min", "p25", "median", "p75", "p95", "max", "max/mean"});
  Histogram overall(0.0, 512.0, 16);
  for (int step = 0; step < kSteps; step += 2) {
    const amr::SyntheticStep geom = evolution.at(step);
    SampleSet s;
    RunningStats stats;
    for (std::size_t b : amr::per_rank_peak_bytes(geom.levels, intrepid_memory_model())) {
      const double mb = static_cast<double>(b) / (1 << 20);
      s.add(mb);
      stats.add(mb);
      if (step % 10 == 0) overall.add(mb);
    }
    t.row()
        .cell(step)
        .cell(s.min(), 1)
        .cell(s.quantile(0.25), 1)
        .cell(s.median(), 1)
        .cell(s.quantile(0.75), 1)
        .cell(s.quantile(0.95), 1)
        .cell(s.max(), 1)
        .cell(stats.max() / stats.mean(), 2);
  }
  std::cout << t.to_string();
  std::cout << "\nPer-rank peak histogram (MB, pooled over steps 0,10,20,30,40):\n"
            << overall.to_string(48)
            << "\nPaper behaviour checked: memory varies strongly across ranks\n"
               "and grows erratically over time as refinements concentrate on a\n"
               "subset of ranks (peaks of hundreds of MB on 512 MB cores).\n";
}

// ---- Fig. 5 -------------------------------------------------------------------
// Application-layer adaptation of the data's spatial resolution under
// shrinking memory availability (Polytropic Gas, Intrepid model, 500 MB
// cores): per step, the worst rank's memory availability, the memory the
// reduction needs at the MIN and MAX acceptable resolutions, the adaptively
// selected consumption, and the chosen factor. Paper: with memory available
// the minimum factor is selected; around step ~31 availability drops below
// the high-resolution requirement and the factor climbs.

struct StepPoint {
  double avail_mb;
  double min_res_mb;   // requirement at the smallest factor (max resolution)
  double max_res_mb;   // requirement at the largest factor (min resolution)
  double adaptive_mb;  // requirement at the chosen factor
  int factor;
  bool constrained;
};

StepPoint fig5_point(const amr::SyntheticAmrEvolution& evolution,
                     const std::vector<int>& factors, int step) {
  // Of a 512 MB BG/P core, the CNK kernel, Chombo metadata and communication
  // buffers leave roughly half for solver state + analysis staging; the
  // availability is this capacity minus the modeled per-rank peak.
  constexpr std::size_t kCapacity = std::size_t{352} << 20;
  // Fig. 5 tracks ONE processor: the worst rank of a 1024-rank decomposition
  // (refinement concentrates there, as in Fig. 1) with the analysis/staging
  // buffers resident per cell, which drives it toward its memory ceiling.
  amr::MemoryModelConfig mm = intrepid_memory_model();
  mm.analysis_bytes_per_cell = 100.0;
  const amr::SyntheticStep geom = evolution.at(step);
  const auto peaks = amr::per_rank_peak_bytes(geom.levels, mm);
  const std::size_t worst = *std::max_element(peaks.begin(), peaks.end());
  const std::size_t avail = worst >= kCapacity ? 0 : kCapacity - worst;

  // The worst rank's share of the refined (analyzed) data.
  std::int64_t refined = 0;
  for (std::size_t l = 1; l < geom.levels.size(); ++l) {
    const auto& cells = geom.levels[l].cells_per_rank();
    refined += *std::max_element(cells.begin(), cells.end());
  }
  const auto cells = static_cast<std::size_t>(refined);
  const runtime::AppDecision d = runtime::select_downsample_factor(factors, cells, 5, avail);

  auto mb = [](std::size_t b) { return static_cast<double>(b) / (1 << 20); };
  return {mb(avail),
          mb(analysis::reduction_scratch_bytes(cells, 5, factors.front())),
          mb(analysis::reduction_scratch_bytes(cells, 5, factors.back())),
          mb(d.scratch_bytes),
          d.factor,
          d.memory_constrained};
}

void print_fig5() {
  constexpr int kSteps = 40;
  // The §5.2.1 user hints: {2,4} for the first half, {2,4,8,16} for the second.
  runtime::UserHints hints;
  hints.factor_phases = {{0, {2, 4}}, {kSteps / 2, {2, 4, 8, 16}}};
  const amr::SyntheticAmrEvolution evolution(intrepid_geometry(1024));

  std::cout << "\n=== Figure 5: application-layer adaptation of spatial resolution ===\n";
  Table t({"step", "availability (MB)", "need @MIN X (MB)", "need @MAX X (MB)",
           "adaptive need (MB)", "factor X", "note"});
  int first_raised = -1;
  for (int step = 0; step < kSteps; ++step) {
    const std::vector<int>& factors = hints.factors_at(step);
    const StepPoint p = fig5_point(evolution, factors, step);
    const bool raised = p.factor > factors.front();
    if (first_raised < 0 && raised) first_raised = step;
    t.row()
        .cell(step)
        .cell(p.avail_mb, 1)
        .cell(p.min_res_mb, 2)
        .cell(p.max_res_mb, 2)
        .cell(p.adaptive_mb, 2)
        .cell(p.factor)
        .cell(p.constrained ? "memory-constrained" : (raised ? "raised" : ""));
  }
  std::cout << t.to_string();
  std::cout << "\nFactor first raised above the minimum at step "
            << first_raised
            << " (paper: step 31); the paper's availability-driven ramp of the\n"
               "down-sampling factor is reproduced with the {2,4} -> {2,4,8,16}\n"
               "hint phases.\n";
}

// ---- Fig. 6 -------------------------------------------------------------------
// Entropy-based adaptive down-sampling on a real Polytropic Gas field. The
// paper renders two isosurface close-ups; the decision data behind them is
// reproduced instead: per-block entropy (paper: finest-level blocks between
// 5.14 and 9.85 bits), the per-block factor (low-entropy blocks reduced 4x,
// high-entropy kept), and the fidelity of the result (triangle counts and
// RMSE/PSNR of the reconstruction vs. the full-resolution field).

/// One evolved density field.
mesh::Fab density_field() {
  amr::AmrConfig cfg;
  cfg.base_domain = mesh::Box::domain({32, 32, 32});
  cfg.max_levels = 1;
  cfg.max_box_size = 32;
  cfg.nghost = 2;
  cfg.nranks = 1;
  auto physics = std::make_shared<amr::PolytropicGas>();
  amr::AmrSimulation sim(cfg, physics, {}, 0.3);
  sim.initialize();
  for (int i = 0; i < 12; ++i) sim.advance();
  return analysis::subset(sim.hierarchy().level(0).data[0],
                          sim.hierarchy().level(0).layout.box(0));
}

void print_fig6() {
  const mesh::Fab field = density_field();
  analysis::EntropyConfig ecfg;
  ecfg.comp = amr::PolytropicGas::kRho;
  ecfg.bins = 256;
  const auto stats = analysis::descriptive_stats(field, field.box(), ecfg.comp);
  ecfg.range_lo = stats.min();
  ecfg.range_hi = stats.max();

  // Threshold between "keep" and "reduce 4x": midway through the observed
  // block-entropy range, mirroring the paper's 5.14-vs-9.21 example.
  const auto probe = analysis::entropy_downsample_plan(field, 8, {0.0}, {1, 1}, ecfg);
  double h_lo = 1e300, h_hi = -1e300;
  for (const auto& d : probe) {
    h_lo = std::min(h_lo, d.entropy);
    h_hi = std::max(h_hi, d.entropy);
  }
  const double threshold = 0.5 * (h_lo + h_hi);
  const auto plan = analysis::entropy_downsample_plan(field, 8, {threshold}, {1, 4}, ecfg);

  std::cout << "\n=== Figure 6: entropy-based data down-sampling ===\n"
            << "block entropies span [" << h_lo << ", " << h_hi
            << "] bits (paper: 5.14 .. 9.85); threshold " << threshold << "\n\n";

  Table t({"block", "entropy (bits)", "factor", "triangles full", "triangles reduced",
           "RMSE", "PSNR (dB)"});
  std::size_t full_tris = 0, reduced_tris = 0, full_bytes = 0, kept_bytes = 0;
  for (const auto& d : plan) {
    const mesh::Fab sub = analysis::subset(field, d.block);
    const mesh::Box cells(sub.box().lo(), sub.box().hi() - 1);
    const auto full = viz::extract_isosurface(sub, cells, 0.5, 0);
    const mesh::Fab rec = analysis::upsample_constant(
        analysis::downsample(sub, d.factor), sub.box(), d.factor);
    const auto red = viz::extract_isosurface(rec, cells, 0.5, 0);
    std::ostringstream name;
    name << d.block;
    t.row()
        .cell(name.str())
        .cell(d.entropy, 2)
        .cell(d.factor)
        .cell(full.triangle_count())
        .cell(red.triangle_count())
        .cell(analysis::rmse(sub, rec), 4)
        .cell(analysis::psnr(sub, rec), 1);
    full_tris += full.triangle_count();
    reduced_tris += red.triangle_count();
    full_bytes += sub.bytes();
    kept_bytes += sub.bytes() / (static_cast<std::size_t>(d.factor) * d.factor * d.factor);
  }
  std::cout << t.to_string();
  std::cout << "\nadaptive result keeps "
            << format_percent(static_cast<double>(kept_bytes) / full_bytes)
            << " of the bytes and "
            << format_percent(static_cast<double>(reduced_tris) /
                              std::max<std::size_t>(1, full_tris))
            << " of the isosurface triangles; high-entropy (structured) blocks\n"
               "retain full resolution, low-entropy blocks are reduced 4x —\n"
               "the paper's Fig. 6(b) behaviour.\n";
}

// ---- Figs. 7 and 8 --------------------------------------------------------------
// Cumulative end-to-end time of the AMR Advection-Diffusion + visualization
// workflow under static in-situ, static in-transit and adaptive middleware
// placement, at 2K-16K Titan cores (16:1 staging ratio). Paper: adaptive cuts
// end-to-end overhead by 50.00/50.31/50.50/56.30% vs static in-situ and
// 75.42/38.78/21.29/48.22% vs static in-transit, and cuts the aggregated
// transfer volume by 50.00/48.00/47.90/39.04% vs static in-transit.

void print_fig7(const Runs& runs) {
  std::cout << "\n=== Figure 7: cumulative end-to-end execution time (seconds) ===\n";
  Table t({"cores", "placement", "sim time", "overhead", "end-to-end",
           "ovh % of sim", "in-situ", "in-transit", "transfers"});
  for (std::size_t s = 0; s < runs.titan.size(); ++s) {
    const TitanRuns& ts = runs.titan[s];
    for (const Run* p : {ts.insitu, ts.intransit, ts.adaptive}) {
      const WorkflowResult& r = p->result;
      // One StepEnd per step carries the final placement.
      int insitu = 0, intransit = 0;
      for (const WorkflowEvent* e : events_of_kind(p->events, EventKind::StepEnd)) {
        if (e->skipped) continue;
        (e->placement == runtime::Placement::InSitu ? insitu : intransit)++;
      }
      t.row()
          .cell(titan_label(s))
          .cell(mode_name(p->config.mode))
          .cell(r.pure_sim_seconds, 2)
          .cell(r.overhead_seconds, 2)
          .cell(r.end_to_end_seconds, 2)
          .cell(format_percent(r.overhead_seconds / r.pure_sim_seconds))
          .cell(insitu)
          .cell(intransit)
          .cell(p->events.count(EventKind::Transfer));
    }
  }
  std::cout << t.to_string();

  Table red({"cores", "overhead cut vs in-situ", "paper", "overhead cut vs in-transit",
             "paper"});
  const char* paper_is[] = {"50.00%", "50.31%", "50.50%", "56.30%"};
  const char* paper_it[] = {"75.42%", "38.78%", "21.29%", "48.22%"};
  for (std::size_t s = 0; s < runs.titan.size(); ++s) {
    const TitanRuns& ts = runs.titan[s];
    const double adaptive = ts.adaptive->result.overhead_seconds;
    red.row()
        .cell(titan_label(s))
        .cell(format_percent(1.0 - adaptive / ts.insitu->result.overhead_seconds))
        .cell(paper_is[s])
        .cell(format_percent(1.0 - adaptive / ts.intransit->result.overhead_seconds))
        .cell(paper_it[s]);
  }
  std::cout << "\n" << red.to_string();
}

void print_fig8(const Runs& runs) {
  std::cout << "\n=== Figure 8: aggregated in-situ -> in-transit transfers (GB) ===\n";
  Table t({"cores", "in-transit placement", "adaptive placement", "reduction",
           "paper reduction"});
  const char* paper[] = {"50.00%", "48.00%", "47.90%", "39.04%"};
  for (std::size_t s = 0; s < runs.titan.size(); ++s) {
    const std::size_t fixed = runs.titan[s].intransit->result.bytes_moved;
    const std::size_t adaptive = runs.titan[s].adaptive->result.bytes_moved;
    t.row()
        .cell(titan_label(s))
        .cell(gigabytes(fixed), 1)
        .cell(gigabytes(adaptive), 1)
        .cell(format_percent(1.0 - static_cast<double>(adaptive) /
                                       static_cast<double>(fixed)))
        .cell(paper[s]);
  }
  std::cout << t.to_string();
}

// ---- Fig. 9 + §5.2.3 --------------------------------------------------------------
// The resource-layer adaptation on the memory-intensive 3-D Polytropic Gas
// workload (Intrepid model, 4K simulation cores, 256 preallocated staging
// cores): the per-step in-transit core allocation (static vs adaptive) and
// the eq. 12 CPU utilization efficiency. Paper: ~50 cores needed at the
// start, growing with refinement; utilization 87.11% adaptive vs 54.57%
// static.

void print_fig9(const Runs& runs) {
  const WorkflowResult& fixed = runs.resource_static->result;
  const WorkflowResult& adaptive = runs.resource_adaptive->result;

  // StepEnd carries the final M and analyzed cells, StepBegin the T_sim, and
  // the in-transit Analysis events the staging-side service time.
  const EventLog& log = runs.resource_adaptive->events;
  const auto fixed_steps = events_of_kind(runs.resource_static->events, EventKind::StepEnd);
  const auto adaptive_steps = events_of_kind(log, EventKind::StepEnd);
  const auto adaptive_begins = events_of_kind(log, EventKind::StepBegin);
  std::map<int, double> intransit_seconds;
  for (const WorkflowEvent* e : events_of_kind(log, EventKind::Analysis)) {
    if (e->placement == runtime::Placement::InTransit) {
      intransit_seconds[e->step] = e->seconds;
    }
  }

  std::cout << "\n=== Figure 9: in-transit cores per time step ===\n";
  Table t({"step", "static M", "adaptive M", "analyzed cells", "T_intransit (s)",
           "T_sim (s)"});
  for (std::size_t i = 0; i < adaptive_steps.size(); ++i) {
    const WorkflowEvent& e = *adaptive_steps[i];
    const auto it = intransit_seconds.find(e.step);
    t.row()
        .cell(e.step)
        .cell(fixed_steps[i]->intransit_cores)
        .cell(e.intransit_cores)
        .cell(e.cells)
        .cell(it != intransit_seconds.end() ? it->second : 0.0, 3)
        .cell(adaptive_begins[i]->seconds, 3);
  }
  std::cout << t.to_string();

  std::cout << "\n=== Section 5.2.3: CPU utilization efficiency (eq. 12) ===\n";
  Table u({"allocation", "utilization", "paper"});
  u.row().cell("static (256 cores)").cell(format_percent(fixed.utilization_efficiency))
      .cell("54.57%");
  u.row().cell("adaptive").cell(format_percent(adaptive.utilization_efficiency))
      .cell("87.11%");
  std::cout << u.to_string();
  std::cout << "\nsame time-to-solution check: static "
            << format_seconds(fixed.end_to_end_seconds) << " vs adaptive "
            << format_seconds(adaptive.end_to_end_seconds) << "\n";
}

// ---- Figs. 10, 11 and Table 2 ------------------------------------------------------
// Global (cross-layer) vs local middleware-only adaptation at the four Titan
// scales, with the §5.2.1 user-defined factor phases as application-layer
// hints. Paper: global cuts end-to-end overhead by 52.16/84.22/97.84/88.87%
// and data movement by 45.93/17.25/5.76/32.41%. Our movement cut is stronger
// (EXPERIMENTS.md): the paper's factor-X hints yield an effective per-step
// reduction milder than X^3 on their runs, while our application layer
// reduces every step by at least 2^3; the direction is what Fig. 11 checks.
// Table 2 buckets the global runs' in-transit steps by the fraction of the
// preallocated staging cores they used. Paper (sim:staging, total steps,
// steps per bucket 100/75/50/<50%): 2K:128 27 | 25 2 - -; 4K:256 42 |
// 8 13 4 17; 8K:512 49 | 4 23 22 -; 16K:1024 41 | 10 12 10 9. Our stronger
// reduction skews the allocations further below the pool; the qualitative
// claim, that global adaptation frees preallocated staging cores, is what
// the table checks.

void print_fig10(const Runs& runs) {
  std::cout << "\n=== Figure 10: end-to-end time, local vs global adaptation ===\n";
  Table t({"cores", "adaptation", "sim time", "overhead", "end-to-end",
           "layers engaged"});
  for (std::size_t s = 0; s < runs.titan.size(); ++s) {
    for (const Run* p : {runs.titan[s].local, runs.titan[s].global}) {
      const WorkflowResult& r = p->result;
      // §5.2.4's "employs all the adaptations at these three layers": count
      // the layers that actually fired, from the Decision events.
      bool app = false, res = false, mw = false;
      for (const WorkflowEvent* e : events_of_kind(p->events, EventKind::Decision)) {
        app = app || e->app_adapted;
        res = res || e->resource_adapted;
        mw = mw || e->middleware_adapted;
      }
      t.row()
          .cell(titan_label(s))
          .cell(p->config.mode == Mode::Global ? "global (app+resource+middleware)"
                                               : "local (middleware only)")
          .cell(r.pure_sim_seconds, 2)
          .cell(r.overhead_seconds, 2)
          .cell(r.end_to_end_seconds, 2)
          .cell(int(app) + int(res) + int(mw));
    }
  }
  std::cout << t.to_string();

  Table red({"cores", "overhead cut (global vs local)", "paper"});
  const char* paper[] = {"52.16%", "84.22%", "97.84%", "88.87%"};
  for (std::size_t s = 0; s < runs.titan.size(); ++s) {
    red.row()
        .cell(titan_label(s))
        .cell(format_percent(1.0 - runs.titan[s].global->result.overhead_seconds /
                                       runs.titan[s].local->result.overhead_seconds))
        .cell(paper[s]);
  }
  std::cout << "\n" << red.to_string();
}

void print_fig11(const Runs& runs) {
  std::cout << "\n=== Figure 11: data movement, local vs global adaptation (GB) ===\n";
  Table t({"cores", "local adaptation", "global adaptation", "reduction",
           "paper reduction", "in-transit steps (local/global)"});
  const char* paper[] = {"45.93%", "17.25%", "5.76%", "32.41%"};
  for (std::size_t s = 0; s < runs.titan.size(); ++s) {
    const WorkflowResult& local = runs.titan[s].local->result;
    const WorkflowResult& global = runs.titan[s].global->result;
    t.row()
        .cell(titan_label(s))
        .cell(gigabytes(local.bytes_moved), 1)
        .cell(gigabytes(global.bytes_moved), 1)
        .cell(format_percent(1.0 - static_cast<double>(global.bytes_moved) /
                                       static_cast<double>(local.bytes_moved)))
        .cell(paper[s])
        .cell(std::to_string(local.intransit_count) + "/" +
              std::to_string(global.intransit_count));
  }
  std::cout << t.to_string();
}

void print_table2(const Runs& runs) {
  std::cout << "\n=== Table 2: actual in-transit core utilization (global adaptation) ===\n";
  Table t({"sim:staging", "total steps", "in-transit steps", "100% cores", "75% cores",
           "50% cores", "<50% cores", "mean M / pool"});
  for (std::size_t s = 0; s < runs.titan.size(); ++s) {
    // Copy: titan_scales() returns a fresh vector, references would dangle.
    const TitanScale ts = titan_scales()[s];
    const WorkflowResult& r = runs.titan[s].global->result;
    int b100 = 0, b75 = 0, b50 = 0, blt = 0, intransit = 0;
    double m_sum = 0.0;
    for (const StepRecord& step : r.steps) {
      if (step.placement != runtime::Placement::InTransit) continue;
      ++intransit;
      m_sum += step.intransit_cores;
      const double f = static_cast<double>(step.intransit_cores) / ts.staging_cores;
      if (f >= 0.995) ++b100;
      else if (f >= 0.75) ++b75;
      else if (f >= 0.5) ++b50;
      else ++blt;
    }
    t.row()
        .cell(std::to_string(ts.sim_cores / 1024) + "K:" + std::to_string(ts.staging_cores))
        .cell(r.steps.size())
        .cell(intransit)
        .cell(b100)
        .cell(b75)
        .cell(b50)
        .cell(blt)
        .cell(format_percent(m_sum / intransit / ts.staging_cores));
  }
  std::cout << t.to_string();
}

// ---- Ablations and energy (Titan 4K) ---------------------------------------------
// DESIGN.md §5.3-5.5: the middleware policy's execution-time estimator
// (EWMA, last value, an injected oracle, and the EWMA smoothing factor), the
// §4.4 root-leaf execution order (the paper's leaves-then-roots, reversed,
// and uncoordinated registry order), and the Monitor's sampling period. The
// energy table prices the four strategies with the activity-based power
// model (paper §7 future work: power management).

/// An ablation table: overhead, data moved and placement counts per row.
void print_ablation(const char* title, const char* what, const std::vector<Variant>& rows,
                    const char* finding) {
  std::cout << "\n=== Ablation: " << title << " ===\n";
  Table t({what, "overhead (s)", "data moved (GB)", "in-situ", "in-transit"});
  for (const Variant& v : rows) {
    const WorkflowResult& r = v.run->result;
    t.row()
        .cell(v.label)
        .cell(r.overhead_seconds, 3)
        .cell(gigabytes(r.bytes_moved), 1)
        .cell(r.insitu_count)
        .cell(r.intransit_count);
  }
  std::cout << t.to_string() << finding;
}

void print_monitor_period(const Runs& runs) {
  std::cout << "\n=== Ablation: monitor sampling period (steps between adaptations) ===\n";
  Table t({"period k", "overhead (s)", "data moved (GB)", "placement flips"});
  for (const Variant& v : runs.period) {
    const WorkflowResult& r = v.run->result;
    int flips = 0;
    for (std::size_t i = 1; i < r.steps.size(); ++i) {
      flips += r.steps[i].placement != r.steps[i - 1].placement;
    }
    t.row()
        .cell(v.label)
        .cell(r.overhead_seconds, 3)
        .cell(gigabytes(r.bytes_moved), 1)
        .cell(flips);
  }
  std::cout << t.to_string()
            << "\nLarger periods hold each placement for k steps, reacting late to\n"
               "backlog transitions; on this smoothly-drifting workload the\n"
               "end-to-end cost is nearly flat (the paper's choice of periodic\n"
               "sampling is cheap AND sufficient), while the placement mix and\n"
               "data movement shift by ~10% as k grows.\n";
}

void print_energy(const Runs& runs) {
  std::cout << "\n=== Extension: energy accounting across strategies (4K cores) ===\n";
  Table t({"strategy", "compute (MJ)", "staging (MJ)", "idle (MJ)", "network (kJ)",
           "total (MJ)", "vs static in-situ"});
  const TitanRuns& ts = runs.titan[kAblationScale];
  const double mj = 1.0e6;
  double baseline = 0.0;
  for (const Run* p : {ts.insitu, ts.intransit, ts.adaptive, ts.global}) {
    const EnergyReport e = estimate_energy(p->result, p->config.sim_cores);
    const double total = e.total_joules() / mj;
    if (p == ts.insitu) baseline = total;
    t.row()
        .cell(mode_name(p->config.mode))
        .cell((e.sim_compute_joules + e.insitu_analysis_joules) / mj, 3)
        .cell(e.staging_active_joules / mj, 3)
        .cell((e.sim_idle_joules + e.staging_idle_joules) / mj, 3)
        .cell(e.network_joules / 1.0e3, 3)
        .cell(total, 3)
        .cell(format_percent(total / baseline - 1.0));
  }
  std::cout << t.to_string()
            << "\nThe global cross-layer run spends the least energy: shorter\n"
               "time-to-solution shrinks the per-core-hours, reduced data shrinks\n"
               "the network term, and the resource layer idles fewer staging\n"
               "cores — the quantitative handle the paper's future-work section\n"
               "asks for.\n";
}

// ---- Fault sweeps (Titan 2K) --------------------------------------------------------
// End-to-end resilience of the adaptive workflow under deterministic fault
// injection, at replication 1 (unreplicated) and 2 and 3 (the durable
// space): (a) a transfer-fault rate of 0-20%, where every staged buffer runs
// the retry/backoff ladder and exhausted transfers fall back in situ; (b) a
// staging-server crash at step 10 (half, then all, of the partition, for 5
// steps or for good), after which recovery must re-admit in-transit work and
// no step may lose its analysis. No paper figure corresponds: the paper
// assumes an always-up staging area.

/// Fraction of scheduled analyses this run completed on the simulation
/// partition only because of a fault (transfer exhausted or staging down).
double degraded_fraction(const WorkflowResult& r) {
  const auto analyses = static_cast<double>(r.insitu_count + r.intransit_count);
  return analyses > 0.0 ? static_cast<double>(r.degraded_insitu_count) / analyses : 0.0;
}

void print_fault_sweep(const FaultRuns& f) {
  std::cout << "\n=== Fault sweep (a): transfer-fault rate vs end-to-end cost"
            << " (replication " << f.replication << ") ===\n";
  Table td({"drop rate", "end-to-end", "slowdown", "retries", "failures",
            "degraded analyses", "in-transit"});
  for (std::size_t i = 0; i < f.drops.size(); ++i) {
    const WorkflowResult& r = f.drops[i]->result;
    td.row()
        .cell(format_percent(kDropRates[i]))
        .cell(format_seconds(r.end_to_end_seconds))
        .cell(r.end_to_end_seconds / f.drops[0]->result.end_to_end_seconds, 3)
        .cell(r.transfer_retries)
        .cell(r.transfer_failures)
        .cell(format_percent(degraded_fraction(r)))
        .cell(r.intransit_count);
  }
  std::cout << td.to_string();

  std::cout << "\n=== Fault sweep (b): staging crash at step 10"
            << " (replication " << f.replication << ") ===\n";
  Table tc({"crash", "end-to-end", "slowdown", "recoveries", "dropped bytes",
            "degraded analyses", "completed steps"});
  for (std::size_t i = 0; i < f.crashes.size(); ++i) {
    const WorkflowResult& r = f.crashes[i]->result;
    tc.row()
        .cell(kCrashCases[i].label)
        .cell(format_seconds(r.end_to_end_seconds))
        .cell(r.end_to_end_seconds / f.crashes[0]->result.end_to_end_seconds, 3)
        .cell(r.recoveries)
        .cell(format_bytes(static_cast<double>(r.dropped_bytes)))
        .cell(format_percent(degraded_fraction(r)))
        .cell(static_cast<int>(r.steps.size()));
  }
  std::cout << tc.to_string();
}

}  // namespace

int main() {
  print_fig1();
  print_fig5();
  print_fig6();
  const Runs runs = plan();
  print_fig7(runs);
  print_fig8(runs);
  print_fig9(runs);
  print_fig10(runs);
  print_fig11(runs);
  print_table2(runs);
  print_ablation("execution-time estimator for the middleware policy", "estimator",
                 runs.estimator,
                 "\nThe policies are tolerant of estimator detail when the workload\n"
                 "drifts smoothly (the paper's claim that simple runtime estimation\n"
                 "suffices at scale); the oracle row bounds what a perfect predictor\n"
                 "could add.\n");
  print_ablation("cross-layer mechanism execution order (sec 4.4)", "order", runs.order,
                 "\nWith roots executed first the middleware decides on STALE, raw\n"
                 "data sizes (the application layer has not reduced yet): it sees a\n"
                 "hopelessly slow staging estimate and degenerates to a static\n"
                 "placement, never adapting. On this workload that accidentally\n"
                 "matches the time-to-solution (the reduction makes staging\n"
                 "over-provisioned) but moves ~60% more data and loses exactly the\n"
                 "mechanism Figs. 7/8 rely on; the paper's leaves-to-roots order is\n"
                 "what keeps every policy's inputs consistent with what executes.\n");
  print_monitor_period(runs);
  print_energy(runs);
  for (const FaultRuns& f : runs.faults) print_fault_sweep(f);
  return 0;
}
