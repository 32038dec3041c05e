// The full in-process coupled workflow with REAL data, REAL kernels, and a
// REAL (threaded) staging service:
//
//   Chombo-style AMR Polytropic Gas simulation (client thread)
//     -> Monitor samples memory/timing/backlog state each step
//     -> AdaptationEngine picks a down-sampling factor (application layer)
//        and a placement (middleware layer)
//     -> in-situ:    marching cubes directly on the hierarchy, blocking the
//                    simulation — exactly the trade-off of eq. 4
//        in-transit: fabs pushed into the DataSpaces-like StagingService;
//                    triangulation runs asynchronously on the service's
//                    worker threads while the simulation continues (eq. 5)
//
// All execution times fed to the Monitor are wall-clock measurements, so the
// eq. 7 estimates driving the placement are the same closed loop the paper's
// runtime runs on Titan/Intrepid, scaled to one process.
//
//   ./coupled_insitu_intransit [steps]    (default 10)
#include <chrono>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "amr/amr_simulation.hpp"
#include "amr/polytropic_gas.hpp"
#include "analysis/downsample.hpp"
#include "analysis/statistics.hpp"
#include "common/contract.hpp"
#include "common/table.hpp"
#include "runtime/adaptation_engine.hpp"
#include "staging/service.hpp"
#include "viz/amr_isosurface.hpp"

using namespace xl;
// xl-lint: allow(wallclock): demo prints real elapsed time for the reader; the
// workflow results themselves come from the deterministic substrate clock.
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  int steps = 10;
  try {
    if (argc > 2) throw ContractError(std::string("unexpected argument '") + argv[2] + "'");
    if (argc > 1) steps = parse_number<int>(argv[1], "steps");
    if (steps < 1) throw ContractError("steps: must be >= 1, got " + std::to_string(steps));
  } catch (const ContractError& e) {
    std::cerr << e.what() << "\nusage: coupled_insitu_intransit [steps]\n";
    return 2;
  }

  // --- Simulation (the coupled workflow's producer). -------------------------
  amr::AmrConfig cfg;
  cfg.base_domain = mesh::Box::domain({32, 32, 32});
  cfg.max_levels = 2;
  cfg.max_box_size = 16;
  cfg.nghost = 2;
  cfg.nranks = 4;
  auto physics = std::make_shared<amr::PolytropicGas>();
  amr::TagCriterion criterion;
  criterion.comp = amr::PolytropicGas::kRho;
  criterion.rel_threshold = 0.05;
  amr::AmrSimulation sim(cfg, physics, criterion, 0.3, 4);
  sim.initialize();

  // --- Live staging service (the in-transit consumer). -----------------------
  staging::ServiceConfig service_cfg;
  service_cfg.num_servers = 2;
  service_cfg.memory_per_server = std::size_t{8} << 20;
  staging::StagingService service(service_cfg);

  // --- Adaptive runtime. ------------------------------------------------------
  runtime::Monitor monitor;
  runtime::EngineConfig engine_cfg;
  engine_cfg.hints.factor_phases = {{0, {1, 2, 4}}};
  engine_cfg.enable_resource = false;  // fixed worker pool in-process
  runtime::EngineHooks hooks;
  hooks.analysis_seconds = [&](runtime::Placement p, std::size_t cells, int cores) {
    return monitor.estimate_analysis_seconds(p, cells, cores);
  };
  hooks.send_seconds = [](std::size_t bytes) { return bytes / 8.0e9; };
  hooks.recv_seconds = [](std::size_t bytes, int) { return bytes / 8.0e9; };
  hooks.next_sim_seconds = [&](std::size_t cells) {
    return monitor.estimate_sim_seconds(cells);
  };
  hooks.insitu_analysis_mem = [](std::size_t bytes) { return bytes; };
  const runtime::AdaptationEngine engine(engine_cfg, hooks);

  // A tight memory budget on the "simulation partition" gives the
  // application layer something to trade off as the hierarchy grows.
  const std::size_t sim_mem_capacity = std::size_t{24} << 20;

  Table table({"step", "factor", "placement", "reason", "sim", "analysis",
               "backlog", "staged", "triangles"});
  std::vector<std::future<staging::AnalysisResult>> inflight;
  std::size_t intransit_triangles = 0;
  double intransit_seconds = 0.0;
  std::size_t rejected_puts = 0;

  for (int step = 0; step < steps; ++step) {
    auto t0 = Clock::now();
    const amr::StepStats stats = sim.advance();
    const double sim_wall = seconds_since(t0);
    monitor.record_sim_step(step, sim_wall, static_cast<std::size_t>(stats.total_cells));

    // Harvest any completed in-transit analyses (non-blocking) so their
    // measured times feed the estimator.
    for (auto& f : inflight) {
      if (f.valid() && f.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        const staging::AnalysisResult r = f.get();
        intransit_triangles += r.triangles;
        intransit_seconds += r.service_seconds;
        if (r.objects > 0) {
          monitor.record_analysis({step, runtime::Placement::InTransit,
                                   r.objects * 4096, service.num_servers(),
                                   r.service_seconds});
        }
      }
    }
    std::erase_if(inflight, [](const auto& f) { return !f.valid(); });

    // Operational state from live observables.
    runtime::OperationalState state;
    state.step = step;
    state.sim_cells = static_cast<std::size_t>(stats.total_cells);
    state.raw_cells = static_cast<std::size_t>(stats.total_cells);
    state.raw_bytes = stats.bytes;
    state.ncomp = amr::PolytropicGas::kNcomp;
    state.sim_cores = cfg.nranks;
    state.insitu_mem_available =
        stats.bytes < sim_mem_capacity ? sim_mem_capacity - stats.bytes : 0;
    state.intransit_cores = service.num_servers();
    state.intransit_mem_free = service.free_bytes();
    state.intransit_mem_per_core = service_cfg.memory_per_server;
    // Live backlog: queued requests priced at the estimator's current rate.
    state.intransit_backlog_seconds =
        static_cast<double>(service.pending_requests()) *
        monitor.estimate_analysis_seconds(runtime::Placement::InTransit, 4096,
                                          service.num_servers());
    state.last_sim_step_seconds = sim_wall;

    const runtime::EngineDecisions dec = engine.adapt(state);
    const int factor = dec.app ? dec.app->factor : 1;
    const auto placement =
        dec.middleware ? dec.middleware->placement : runtime::Placement::InSitu;

    const auto [lo, hi] = sim.hierarchy().level(0).data.min_max(0);
    const double isovalue = 0.5 * (lo + hi);
    std::size_t staged_bytes = 0;
    std::size_t step_triangles = 0;

    t0 = Clock::now();
    if (placement == runtime::Placement::InSitu) {
      viz::IsosurfaceStats istats;
      viz::extract_amr_isosurface(sim.hierarchy(), isovalue,
                                  amr::PolytropicGas::kRho, 1.0 / 32.0, &istats);
      step_triangles = istats.triangles;
      const double wall = seconds_since(t0);
      monitor.record_analysis({step, runtime::Placement::InSitu,
                               static_cast<std::size_t>(stats.total_cells),
                               cfg.nranks, wall});
    } else {
      // Ship (optionally reduced) level-0 fabs and fire an asynchronous
      // in-transit analysis; the next simulation step overlaps with it.
      const amr::AmrLevel& level = sim.hierarchy().level(0);
      std::vector<std::future<staging::PutAck>> acks;
      for (std::size_t i = 0; i < level.layout.num_boxes(); ++i) {
        // Stage valid regions only (ghost overlap would double-count the
        // seams in the in-transit triangulation).
        mesh::Fab reduced = analysis::downsample(
            analysis::subset(level.data[i], level.layout.box(i)), factor);
        staged_bytes += reduced.bytes();
        acks.push_back(service.put_async(step, reduced.box(), std::move(reduced)));
      }
      // The service runs requests on any worker, so the analysis must not be
      // queued before every put of its step has landed.
      for (auto& ack : acks) {
        if (!ack.get().accepted) ++rejected_puts;
      }
      inflight.push_back(service.analyze_async(
          step, level.domain.coarsen(factor).grow(2), isovalue,
          amr::PolytropicGas::kRho));
    }
    const double analysis_wall = seconds_since(t0);

    table.row()
        .cell(step)
        .cell(factor)
        .cell(runtime::placement_name(placement))
        .cell(dec.middleware ? runtime::reason_name(dec.middleware->reason) : "-")
        .cell(format_seconds(sim_wall))
        .cell(format_seconds(analysis_wall))
        .cell(format_seconds(state.intransit_backlog_seconds))
        .cell(format_bytes(static_cast<double>(staged_bytes)))
        .cell(step_triangles);
  }

  // Drain the service and collect the stragglers.
  service.drain();
  for (auto& f : inflight) {
    if (!f.valid()) continue;
    const staging::AnalysisResult r = f.get();
    intransit_triangles += r.triangles;
    intransit_seconds += r.service_seconds;
  }

  std::cout << "In-process coupled workflow (real kernels, threaded staging):\n\n"
            << table.to_string()
            << "\nin-transit totals: " << intransit_triangles << " triangles in "
            << format_seconds(intransit_seconds)
            << " of service-thread time (overlapped with the simulation);\n"
            << "rejected puts (staging full): " << rejected_puts << ";\n"
            << "service busy " << format_seconds(service.busy_seconds())
            << " total. In-situ steps show their triangles inline: those\n"
            << "analyses blocked the simulation, which is exactly the eq. 4/5\n"
            << "trade-off the middleware policy navigates.\n";
  return 0;
}
