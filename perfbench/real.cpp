// The real coupled loop: a PolytropicGas AMR simulation on this thread, its
// output analyzed in situ (isosurface extraction on the hierarchy, blocking
// the simulation) or in transit (entropy-chosen down-sampling, put into the
// threaded StagingService, isosurfaces extracted on its workers while the
// simulation advances). The solver internals (Godunov sweeps, ghost fills,
// regrid clustering) run inside AmrSimulation::advance, so a traced unit is
// followed by a replay pass: a second simulation advances the same steps with
// no staging and replays them on a copy of the hierarchy after each step. The
// traced unit itself thus keeps the untraced unit's schedule.
#include <algorithm>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "amr/amr_simulation.hpp"
#include "amr/interp.hpp"
#include "amr/polytropic_gas.hpp"
#include "analysis/downsample.hpp"
#include "analysis/entropy.hpp"
#include "analysis/statistics.hpp"
#include "staging/service.hpp"
#include "viz/amr_isosurface.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace xl;
using amr::PolytropicGas;

constexpr int kSteps = 100;          ///< loop steps per unit.
constexpr int kExtraSetups = 16;     ///< set-ups measured before the first unit.
constexpr int kRegridInterval = 4;
constexpr double kCfl = 0.3;
constexpr int kComp = PolytropicGas::kRho;
/// Entropy (bits) at or above which a level keeps more resolution.
const std::vector<double> kEntropyThresholds = {3.0, 5.0};
const std::vector<int> kFactors = {4, 2, 1};

amr::AmrConfig amr_config() {
  amr::AmrConfig cfg;
  cfg.base_domain = mesh::Box::domain({32, 32, 32});
  cfg.max_levels = 2;
  cfg.max_box_size = 32;
  cfg.nghost = 2;
  cfg.nranks = 4;
  return cfg;
}

amr::TagCriterion tag_criterion() {
  amr::TagCriterion criterion;
  criterion.comp = kComp;
  criterion.rel_threshold = 0.05;
  return criterion;
}

/// Which steps run their analysis in situ. The schedule is balanced in time so
/// every seed does the same amount of each kind of work at the same stage of
/// the run: in each regrid cycle of 4 steps (the last one regrids) exactly 2
/// steps run in situ, and of each pair of consecutive cycles exactly one
/// regrids in situ (the 25th cycle regrids in transit). The seed (SplitMix64)
/// picks which cycle of each pair and which plain steps join it.
std::vector<bool> insitu_schedule(int variant) {
  static_assert(kSteps % kRegridInterval == 0 && kRegridInterval == 4);
  constexpr int kCycles = kSteps / kRegridInterval;
  SplitMix rng(0xC0FFEEull + static_cast<std::uint64_t>(variant));
  std::vector<bool> insitu(kSteps, false);
  int regrid_cycle = -1;  // the cycle of the current pair that regrids in situ
  for (int c = 0; c < kCycles; ++c) {
    if (c % 2 == 0) regrid_cycle = c + 1 < kCycles ? c + static_cast<int>(rng.below(2)) : -1;
    const bool regrid_insitu = c == regrid_cycle;
    const auto base = static_cast<std::size_t>(c * kRegridInterval);
    insitu[base + 3] = regrid_insitu;
    if (regrid_insitu) {
      insitu[base + rng.below(3)] = true;  // one of the three plain steps
    } else {
      const std::size_t skip = rng.below(3);  // two of the three plain steps
      for (std::size_t k = 0; k < 3; ++k) insitu[base + k] = k != skip;
    }
  }
  return insitu;
}

/// Completed staging requests as the service's observer reports them (called
/// on the worker threads, hence the lock).
struct StagingLog {
  struct Entry {
    staging::ServiceEvent event;
    double done_s = 0.0;
  };
  std::mutex mutex;
  std::vector<Entry> entries;

  void append(const staging::ServiceEvent& event) {
    const double t = now_s();
    const std::lock_guard<std::mutex> lock(mutex);
    entries.push_back({event, t});
  }
};

/// Everything a unit sets up before its first step.
struct Setup {
  std::unique_ptr<StagingLog> log = std::make_unique<StagingLog>();
  std::unique_ptr<amr::AmrSimulation> sim;
  std::unique_ptr<staging::StagingService> service;
};

std::unique_ptr<amr::AmrSimulation> make_simulation() {
  auto sim = std::make_unique<amr::AmrSimulation>(amr_config(), std::make_shared<PolytropicGas>(),
                                                  tag_criterion(), kCfl, kRegridInterval);
  sim->initialize();
  return sim;
}

Setup set_up(Tracer& tracer, double* seconds) {
  Timed t(tracer, "real.setup");
  Setup s;
  s.sim = make_simulation();
  staging::ServiceConfig service_cfg;
  service_cfg.num_servers = 2;
  StagingLog* log = s.log.get();
  service_cfg.observer = [log](const staging::ServiceEvent& e) { log->append(e); };
  s.service = std::make_unique<staging::StagingService>(service_cfg);
  *seconds = t.stop();
  return s;
}

/// Per-unit layer figures that are not span totals.
struct UnitLayers {
  double cell_updates = 0, insitu_triangles = 0, intransit_triangles = 0, puts = 0,
         rejected_puts = 0, analysis_s = 0, busy_s = 0, queue_wait_s = 0;
  std::vector<double> advance_plain_ms, advance_regrid_ms;

  UnitLayers& operator+=(const UnitLayers& o) {
    cell_updates += o.cell_updates;
    insitu_triangles += o.insitu_triangles;
    intransit_triangles += o.intransit_triangles;
    puts += o.puts;
    rejected_puts += o.rejected_puts;
    analysis_s += o.analysis_s;
    busy_s += o.busy_s;
    queue_wait_s += o.queue_wait_s;
    advance_plain_ms.insert(advance_plain_ms.end(), o.advance_plain_ms.begin(),
                            o.advance_plain_ms.end());
    advance_regrid_ms.insert(advance_regrid_ms.end(), o.advance_regrid_ms.begin(),
                             o.advance_regrid_ms.end());
    return *this;
  }
};

/// Re-run the solver's inner layers on a copy of the hierarchy, as advance()
/// ran them: ghost exchange and coarse-fine fill per level, the Godunov
/// update of every box, and on regrid steps the tag + cluster pass.
void replay_solver(const amr::AmrSimulation& sim, const amr::StepStats& stats, Tracer& tracer) {
  const amr::AmrConfig cfg = amr_config();
  amr::AmrHierarchy copy = sim.hierarchy();
  for (std::size_t lev = 0; lev < copy.num_levels(); ++lev) {
    amr::AmrLevel& level = copy.level(lev);
    {
      Timed t(tracer, "mesh.exchange");
      level.data.exchange(level.domain, cfg.periodic);
    }
    if (lev > 0) {
      Timed t(tracer, "amr.fill_cf_ghosts");
      amr::fill_cf_ghosts(copy.level(lev - 1), level, cfg.ref_ratio, cfg.nghost);
    }
  }
  for (std::size_t lev = 0; lev < copy.num_levels(); ++lev) {
    const amr::AmrLevel& level = copy.level(lev);
    Timed t(tracer, "amr.godunov");
    for (std::size_t i = 0; i < level.layout.num_boxes(); ++i) {
      mesh::Fab out(level.data[i].box(), sim.physics().ncomp());
      out.copy_from(level.data[i], level.data[i].box());
      amr::godunov_update(sim.physics(), level.data[i], level.layout.box(i), sim.dx(lev),
                          stats.dt, out);
    }
  }
  if (!stats.regridded) return;
  for (std::size_t lev = 0; lev + 1 < static_cast<std::size_t>(cfg.max_levels) &&
                            lev < copy.num_levels();
       ++lev) {
    const amr::AmrLevel& level = copy.level(lev);
    Timed t(tracer, "amr.regrid_cluster");
    std::vector<mesh::IntVect> tags = amr::tag_cells(level, tag_criterion());
    if (tags.empty()) continue;
    tags = amr::buffer_tags(tags, cfg.tag_buffer, level.domain);
    amr::BrConfig br;
    br.fill_ratio = cfg.fill_ratio;
    br.max_box_size = std::max(1, cfg.max_box_size / cfg.ref_ratio);
    br.min_box_size = std::max(1, cfg.blocking_factor / cfg.ref_ratio);
    if (amr::berger_rigoutsos(tags, level.domain, br).empty()) {
      throw std::runtime_error("regrid replay produced no boxes for existing tags");
    }
  }
}

/// The replay pass of a traced unit: the unit's steps again on a fresh
/// simulation (the analysis placement does not change the solution), with no
/// staging, replaying the solver's inner layers after each step. Returns its
/// wall time.
double replay_pass(Tracer& tracer) {
  const double t0 = now_s();
  const std::unique_ptr<amr::AmrSimulation> sim = make_simulation();
  for (int step = 0; step < kSteps; ++step) {
    const amr::StepStats stats = sim->advance();
    Timed t(tracer, "replay.solver");
    replay_solver(*sim, stats, tracer);
  }
  return now_s() - t0;
}

struct UnitOutcome {
  UnitTimes times;  ///< wall: loop + drain.
  UnitLayers layers;
};

UnitOutcome run_unit(const RunOptions& options, const std::vector<bool>& insitu, Tracer& tracer,
                     RunResult& rr) {
  UnitOutcome out;
  Setup s = set_up(tracer, &out.times.setup_s);
  amr::AmrSimulation& sim = *s.sim;
  staging::StagingService& service = *s.service;
  UnitLayers& L = out.layers;

  std::vector<std::future<staging::AnalysisResult>> analyses;
  std::vector<double> enqueued_at;   // per analysis version
  std::vector<int> enqueue_span;     // per analysis version
  std::map<std::uint64_t, std::pair<double, int>> put_enqueued;  // object id -> (t, span)
  const int levels = amr_config().max_levels;

  const double t_run = now_s();
  for (int step = 0; step < kSteps; ++step) {
    Timed step_span(tracer, "loop.step");
    amr::StepStats stats;
    {
      Timed t(tracer, "amr.advance");
      stats = sim.advance();
      const double ms = t.stop() * 1e3;
      (stats.regridded ? L.advance_regrid_ms : L.advance_plain_ms).push_back(ms);
    }
    L.cell_updates += static_cast<double>(stats.total_cells);
    const amr::AmrHierarchy& h = sim.hierarchy();
    const auto [lo, hi] = h.level(0).data.min_max(kComp);
    const double isovalue = 0.5 * (lo + hi);

    if (insitu[static_cast<std::size_t>(step)]) {
      Timed t(tracer, "viz.insitu");
      viz::IsosurfaceStats istats;
      viz::extract_amr_isosurface(h, isovalue, kComp, 1.0 / 32.0, &istats);
      L.insitu_triangles += static_cast<double>(istats.triangles);
    } else {
      struct Pending {
        std::future<staging::PutAck> ack;
        double t;
        int span;
      };
      std::vector<Pending> puts;
      std::vector<std::pair<int, mesh::Box>> requests;  // version, analysis region
      for (int lev = 0; lev < static_cast<int>(h.num_levels()); ++lev) {
        const amr::AmrLevel& level = h.level(static_cast<std::size_t>(lev));
        double entropy = 0.0;
        {
          Timed t(tracer, "analysis.entropy");
          analysis::EntropyConfig ecfg;
          ecfg.comp = kComp;
          ecfg.bins = 64;
          for (std::size_t i = 0; i < level.layout.num_boxes(); ++i) {
            entropy += analysis::block_entropy(level.data[i], level.layout.box(i), ecfg);
          }
          entropy /= static_cast<double>(std::max<std::size_t>(1, level.layout.num_boxes()));
        }
        const int factor = analysis::factor_for_entropy(entropy, kEntropyThresholds, kFactors);
        const int version = step * levels + lev;
        for (std::size_t i = 0; i < level.layout.num_boxes(); ++i) {
          mesh::Fab reduced;
          {
            // Stage valid regions only: ghost overlap would triangulate the
            // seams twice.
            Timed t(tracer, "analysis.downsample");
            reduced = analysis::downsample(analysis::subset(level.data[i], level.layout.box(i)),
                                           factor);
          }
          Timed t(tracer, "staging.put");
          const mesh::Box box = reduced.box();
          const double t_enq = now_s();
          puts.push_back({service.put_async(version, box, std::move(reduced)), t_enq,
                          tracer.current()});
        }
        requests.emplace_back(version, level.domain.coarsen(factor).grow(2));
      }
      {
        // An analysis must not start before its step's data has landed: the
        // service runs requests on any worker, so wait for every PutAck first.
        Timed t(tracer, "staging.ack_wait");
        for (Pending& p : puts) {
          const staging::PutAck ack = p.ack.get();
          L.puts += 1;
          rr.check(ack.accepted, "real_loop: staging put rejected at step " +
                                     std::to_string(step));
          if (!ack.accepted) {
            L.rejected_puts += 1;
            continue;
          }
          put_enqueued[ack.id] = {p.t, p.span};
        }
      }
      for (const auto& [version, region] : requests) {
        Timed t(tracer, "staging.analyze");
        if (enqueued_at.size() <= static_cast<std::size_t>(version)) {
          enqueued_at.resize(static_cast<std::size_t>(version) + 1, 0.0);
          enqueue_span.resize(static_cast<std::size_t>(version) + 1, -1);
        }
        enqueued_at[static_cast<std::size_t>(version)] = now_s();
        enqueue_span[static_cast<std::size_t>(version)] = tracer.current();
        analyses.push_back(service.analyze_async(version, region, isovalue, kComp));
      }
    }
    rr.step_ms.push_back(step_span.stop() * 1e3);
  }
  {
    Timed t(tracer, "staging.drain");
    service.drain();
  }
  for (auto& f : analyses) {
    const staging::AnalysisResult r = f.get();
    L.intransit_triangles += static_cast<double>(r.triangles);
    L.analysis_s += r.service_seconds;
  }
  out.times.wall_s = now_s() - t_run;
  L.busy_s = service.busy_seconds();

  // Staging-side spans and queue waits from the observer stream (complete:
  // the drain above waited for every request, observer calls included).
  for (const StagingLog::Entry& e : s.log->entries) {
    const double start = e.done_s - e.event.seconds;
    double enqueued = start;
    int parent = -1;
    const char* name = nullptr;
    if (e.event.kind == staging::ServiceEvent::Kind::Analysis) {
      const auto v = static_cast<std::size_t>(e.event.version);
      enqueued = enqueued_at.at(v);
      parent = enqueue_span.at(v);
      name = "staging.worker_analysis";
    } else if (e.event.kind == staging::ServiceEvent::Kind::Put && e.event.accepted) {
      const auto& [when, span] = put_enqueued.at(e.event.id);
      enqueued = when;
      parent = span;
      name = "staging.worker_put";
    }
    if (name == nullptr) continue;
    L.queue_wait_s += std::max(0.0, start - enqueued);
    tracer.add(name, start, e.done_s, parent, 2);
  }

  // Output checks: triangle counts of both placements and the final field.
  const int variant = options.variant;
  const auto record_or_check = [&](const std::string& key, const std::string& got) {
    if (options.record) {
      rr.record_lines.push_back("real_loop " + std::to_string(variant) + " " + key + " " + got);
      return;
    }
    const std::string want = options.refs->get("real_loop", variant, key);
    rr.check(got == want, "real_loop " + key + ": " + got + ", reference " +
                              (want.empty() ? "missing" : want));
  };
  const auto exact = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    return std::string(buf);
  };
  record_or_check("insitu_triangles", std::to_string(static_cast<long long>(L.insitu_triangles)));
  record_or_check("intransit_triangles",
                  std::to_string(static_cast<long long>(L.intransit_triangles)));
  for (std::size_t lev = 0; lev < sim.hierarchy().num_levels(); ++lev) {
    record_or_check("rho_sum_level" + std::to_string(lev),
                    exact(sim.hierarchy().level(lev).data.sum(kComp)));
  }
  return out;
}

}  // namespace

RunResult run_real_loop(const RunOptions& options) {
  RunResult rr;
  const std::vector<bool> insitu = insitu_schedule(options.variant);
  Tracer tracer(options.trace), off(false);  // off: the extra set-ups

  // Extra set-ups so the set-up median rests on several samples even when
  // only a couple of units fit the budget.
  if (!options.record) {
    for (int i = 0; i < kExtraSetups; ++i) {
      double seconds = 0.0;
      set_up(off, &seconds);
      rr.setup_s.push_back(seconds);
    }
  }

  UnitLayers sum;  // over traced units
  run_rounds(options, 1, tracer, rr, [&](int, Tracer& t) {
    UnitOutcome o = run_unit(options, insitu, t, rr);
    if (t.enabled()) {
      sum += o.layers;
      o.times.replay_s = replay_pass(t);
    }
    return o.times;
  });
  if (!options.trace) return rr;

  const auto totals = layer_totals(tracer.spans());
  const int tu = rr.traced_units;
  const auto per = [&](const char* span) { return per_unit(totals, span, tu); };
  auto& L = rr.layers;
  L["amr.advance_s"] = {per("amr.advance"), "s"};
  L["amr.advance_plain_p50_ms"] = {median(sum.advance_plain_ms), "ms"};
  L["amr.advance_regrid_p50_ms"] = {median(sum.advance_regrid_ms), "ms"};
  L["amr.cell_updates"] = {sum.cell_updates / tu, "count"};
  L["amr.godunov_s"] = {per("amr.godunov"), "s"};
  L["amr.fill_cf_ghosts_s"] = {per("amr.fill_cf_ghosts"), "s"};
  L["mesh.exchange_s"] = {per("mesh.exchange"), "s"};
  L["amr.regrid_cluster_s"] = {per("amr.regrid_cluster"), "s"};
  L["viz.insitu_s"] = {per("viz.insitu"), "s"};
  L["viz.insitu_triangles"] = {sum.insitu_triangles / tu, "count"};
  L["analysis.entropy_s"] = {per("analysis.entropy"), "s"};
  L["analysis.downsample_s"] = {per("analysis.downsample"), "s"};
  L["staging.put_s"] = {per("staging.put"), "s"};
  L["staging.puts"] = {sum.puts / tu, "count"};
  L["staging.rejected_puts"] = {sum.rejected_puts / tu, "count"};
  L["staging.ack_wait_s"] = {per("staging.ack_wait"), "s"};
  L["staging.analysis_s"] = {sum.analysis_s / tu, "s"};
  L["staging.busy_s"] = {sum.busy_s / tu, "s"};
  L["staging.queue_wait_s"] = {sum.queue_wait_s / tu, "s"};
  L["staging.drain_s"] = {per("staging.drain"), "s"};
  L["staging.intransit_triangles"] = {sum.intransit_triangles / tu, "count"};
  rr.spans = tracer.take();
  return rr;
}

}  // namespace perfbench
