// Kernel timings on this host, printed by one program that takes no
// arguments, in four tables:
//
//   1. Host rates of the real kernels (unsplit Godunov advance for both
//      physics, marching cubes, downsampling, entropy, ghost exchange) at
//      32^3, in M cells/s. These ground the DES cost-model constants
//      (cluster::KernelCosts): the *ratios* between kernels, which the
//      adaptation policies respond to, carry over to the machine models.
//   2. The cost-model constants in use.
//   3. The seed per-cell path (tests/seed_kernels.hpp: every access through
//      the bounds-checked `fab(*it, c)` path, bit-by-bit stream packing)
//      against the library's flat-row loops at 128^3, single thread.
//   4. Thread scaling at 128^3: serial against the shared xl::ThreadPool at 2
//      and 4 workers. This grounds cluster::KernelCosts::thread_efficiency.
//
// The exit status is the one timing gate: the row path must beat the seed
// path by kMinSpeedup on at least kMinKernelsFast of the four kernels of
// table 3, or the program prints "FAIL: ..." and exits 1. That the outputs
// match the seed replicas bit for bit, and do not change with the thread
// count, is asserted by the SeedIdentity.* and ParallelKernels.* ctests.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <functional>
#include <iostream>
#include <iterator>
#include <memory>
#include <thread>
#include <vector>

#include "amr/advection_diffusion.hpp"
#include "amr/amr_simulation.hpp"
#include "amr/polytropic_gas.hpp"
#include "analysis/compress.hpp"
#include "analysis/downsample.hpp"
#include "analysis/entropy.hpp"
#include "cluster/cost_model.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "seed_kernels.hpp"
#include "viz/marching_cubes.hpp"

using namespace xl;

namespace {

constexpr int kRateN = 32;    // host-rate field edge
constexpr int kScaleN = 128;  // field edge: large enough for threading to win
constexpr double kMinSampleSeconds = 0.01;
constexpr int kSamples = 5;

// The gate: the flat-row path must beat the seed per-cell path by at least
// kMinSpeedup on at least kMinKernelsFast of the four kernels, single-threaded.
constexpr double kMinSpeedup = 2.0;
constexpr int kMinKernelsFast = 3;

/// Signed distance to a sphere of radius n/4 at the centre of an n^3 box.
mesh::Fab sample_field(int n) {
  mesh::Fab fab(mesh::Box::domain({n, n, n}), 1);
  const double c = n / 2.0;
  for (mesh::BoxIterator it(fab.box()); it.ok(); ++it) {
    const double dx = (*it)[0] + 0.5 - c, dy = (*it)[1] + 0.5 - c,
                 dz = (*it)[2] + 0.5 - c;
    fab(*it) = std::sqrt(dx * dx + dy * dy + dz * dz) - n / 4.0;
  }
  return fab;
}

/// Seconds per call of `kernel`: after one warm-up call, the call count per
/// sample doubles until a sample lasts kMinSampleSeconds, and the best of
/// kSamples such samples is divided by that count. Single-call samples read
/// the microsecond kernels low.
double seconds_per_call(const std::function<void()>& kernel) {
  kernel();
  int calls = 1;
  const auto sample = [&] {
    // xl-lint: allow(wallclock): the kernel bench MEASURES real wall time; the
    // readings are report-only output and never feed a simulated timeline.
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < calls; ++i) kernel();
    // xl-lint: allow(wallclock): see above — measurement-only.
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
  };
  while (sample() < kMinSampleSeconds) calls *= 2;
  double best = sample();
  for (int s = 1; s < kSamples; ++s) best = std::min(best, sample());
  return best / calls;
}

template <typename Physics>
amr::AmrSimulation& simulation() {
  static amr::AmrSimulation sim = [] {
    amr::AmrConfig cfg;
    cfg.base_domain = mesh::Box::domain({kRateN, kRateN, kRateN});
    cfg.max_levels = 1;
    cfg.max_box_size = kRateN;
    cfg.nghost = 2;
    cfg.nranks = 1;
    amr::AmrSimulation s(cfg, std::make_shared<Physics>(), {}, 0.3);
    s.initialize();
    return s;
  }();
  return sim;
}

void print_rates() {
  constexpr std::size_t kCells = std::size_t{kRateN} * kRateN * kRateN;
  const mesh::Fab f = sample_field(kRateN);
  const mesh::Box mc_cells(f.box().lo(), f.box().hi() - 1);
  const mesh::Box domain = f.box();
  const mesh::BoxLayout layout = mesh::balance(mesh::decompose(domain, kRateN / 2), 4);
  mesh::LevelData ghosted(layout, 5, 2);
  const mesh::Copier copier(layout, 2, domain, true);

  struct Kernel {
    const char* name;
    std::size_t cells;  ///< cells one call processes.
    std::function<void()> run;
  };
  const Kernel kernels[] = {
      {"Euler (PolytropicGas) advance", kCells,
       [] { simulation<amr::PolytropicGas>().advance(); }},
      {"Advection-Diffusion advance", kCells,
       [] { simulation<amr::AdvectionDiffusion>().advance(); }},
      {"marching cubes", static_cast<std::size_t>(mc_cells.num_cells()),
       [&] { viz::extract_isosurface(f, mc_cells, 0.0); }},
      {"downsample (stride, X=2)", kCells / 8,
       [&] { analysis::downsample(f, 2, analysis::DownsampleMethod::Stride); }},
      {"downsample (average, X=2)", kCells / 8,
       [&] { analysis::downsample(f, 2, analysis::DownsampleMethod::Average); }},
      {"entropy", kCells, [&] { analysis::block_entropy(f, f.box()); }},
      {"ghost exchange (5 comp, 2 ghosts)", kCells, [&] { ghosted.exchange(copier); }},
  };

  std::cout << "=== Measured host rates of the real kernels (" << kRateN
            << "^3 cells) ===\n";
  Table t({"kernel", "cells/call", "M cells/s"});
  for (const Kernel& k : kernels) {
    const double seconds = seconds_per_call(k.run);
    t.row().cell(k.name).cell(k.cells).cell(static_cast<double>(k.cells) / seconds / 1e6, 1);
  }
  std::cout << t.to_string();
}

void print_constants() {
  std::cout << "\n=== Cost-model constants in use (cluster::KernelCosts defaults) ===\n";
  const cluster::KernelCosts costs;
  Table t({"kernel", "flops/cell (model)", "role in the experiments"});
  t.row().cell("Euler (PolytropicGas) advance").cell(costs.sim_euler_flops_per_cell, 0)
      .cell("Intrepid workload (Figs. 1, 5, 9)");
  t.row().cell("Advection-Diffusion advance").cell(costs.sim_advect_flops_per_cell, 0)
      .cell("Titan workload (Figs. 7, 8, 10, 11)");
  t.row().cell("marching cubes: scan").cell(costs.mc_scan_flops_per_cell, 0)
      .cell("per cell examined");
  t.row().cell("marching cubes: triangulate").cell(costs.mc_active_flops_per_cell, 0)
      .cell("per isosurface-crossing cell");
  t.row().cell("downsample").cell(costs.reduce_flops_per_cell, 0)
      .cell("per output cell (app layer)");
  t.row().cell("entropy").cell(costs.entropy_flops_per_cell, 0)
      .cell("per cell histogrammed");
  std::cout << t.to_string()
            << "\nThe M cells/s column above is the measured host rate of each real\n"
               "kernel; EXPERIMENTS.md maps the rates to the per-experiment\n"
               "constants (which fold in the effects a single-kernel microbenchmark\n"
               "cannot see: ghost exchange, subcycling, staging ingest).\n";
}

/// Prints table 3 and the gate's verdict; returns whether the gate passed.
bool print_row_speedups(const mesh::Fab& field) {
  const auto cells = static_cast<std::size_t>(field.box().num_cells());
  const auto average = analysis::DownsampleMethod::Average;
  const analysis::CompressConfig ccfg;
  const amr::AdvectionDiffusionConfig pcfg;
  const amr::AdvectionDiffusion physics(pcfg);
  const double dx = 1.0 / kScaleN;
  // Faces whose left neighbour still lies inside the field.
  const mesh::Box faces(field.box().lo() + mesh::IntVect{1, 0, 0}, field.box().hi());
  mesh::Fab flux(faces, 1);

  struct Pair {
    const char* name;
    std::size_t cells;  ///< cells one call processes.
    std::function<void()> seed, rows;
  };
  const Pair pairs[] = {
      {"block entropy", cells, [&] { seed::block_entropy(field, field.box()); },
       [&] { analysis::block_entropy(field, field.box()); }},
      {"downsample (average)", cells, [&] { seed::downsample(field, 2, average); },
       [&] { analysis::downsample(field, 2, average); }},
      {"compress (encode)", cells, [&] { seed::compress_payload(field, ccfg); },
       [&] { analysis::compress(field, ccfg); }},
      {"face flux (dim 0)", static_cast<std::size_t>(faces.num_cells()),
       [&] {
         seed::face_flux(field, faces, 0, pcfg.velocity[0], pcfg.diffusivity / dx, flux);
       },
       [&] { physics.face_flux(field, faces, 0, dx, flux); }},
  };

  ThreadPool::set_global_workers(0);
  std::cout << "\n=== Row path vs seed per-cell path (" << kScaleN
            << "^3 cells, single thread) ===\n";
  Table t({"kernel", "seed (ms)", "rows (ms)", "speedup", "rows Mcells/s"});
  int fast_enough = 0;
  for (const Pair& p : pairs) {
    const double seed_s = seconds_per_call(p.seed);
    const double rows_s = seconds_per_call(p.rows);
    const double speedup = seed_s / rows_s;
    if (speedup >= kMinSpeedup) ++fast_enough;
    t.row()
        .cell(p.name)
        .cell(seed_s * 1e3, 2)
        .cell(rows_s * 1e3, 2)
        .cell(speedup, 2)
        .cell(static_cast<double>(p.cells) / rows_s / 1e6, 1);
  }
  std::cout << t.to_string() << "\nrow-path gate: " << fast_enough << " of "
            << std::size(pairs) << " kernels reach " << kMinSpeedup
            << "x over the seed path (need " << kMinKernelsFast << ")\n";
  if (fast_enough >= kMinKernelsFast) return true;
  std::cerr << "FAIL: only " << fast_enough << " of " << std::size(pairs)
            << " kernels reached the " << kMinSpeedup << "x row-path speedup (need >= "
            << kMinKernelsFast << ")\n";
  return false;
}

void print_thread_scaling(const mesh::Fab& field) {
  const mesh::Box cells(field.box().lo(), field.box().hi() - 1);
  const analysis::CompressConfig ccfg;
  struct Kernel {
    const char* name;
    std::function<void()> run;
  };
  const Kernel kernels[] = {
      {"marching cubes", [&] { viz::extract_isosurface(field, cells, 0.0); }},
      {"downsample (average)",
       [&] { analysis::downsample(field, 2, analysis::DownsampleMethod::Average); }},
      {"block entropy", [&] { analysis::block_entropy(field, field.box()); }},
      {"compress + decompress",
       [&] { analysis::decompress(analysis::compress(field, ccfg)); }},
  };

  std::cout << "\n=== Thread scaling (" << kScaleN << "^3 cells) ===\n";
  Table t({"kernel", "serial (ms)", "2 threads (ms)", "4 threads (ms)", "speedup @2",
           "speedup @4"});
  double best_speedup4 = 0.0;
  for (const Kernel& k : kernels) {
    std::vector<double> seconds;
    for (const std::size_t workers : {0, 2, 4}) {
      ThreadPool::set_global_workers(workers);
      seconds.push_back(seconds_per_call(k.run));
    }
    ThreadPool::set_global_workers(0);
    best_speedup4 = std::max(best_speedup4, seconds[0] / seconds[2]);
    t.row()
        .cell(k.name)
        .cell(seconds[0] * 1e3, 2)
        .cell(seconds[1] * 1e3, 2)
        .cell(seconds[2] * 1e3, 2)
        .cell(seconds[0] / seconds[1], 2)
        .cell(seconds[0] / seconds[2], 2);
  }
  std::cout << t.to_string();
  const unsigned hw = std::thread::hardware_concurrency();
  const double efficiency = cluster::KernelCosts{}.thread_efficiency;
  std::cout << "\nhost hardware concurrency: " << hw << "\n"
            << "best 4-thread speedup: " << best_speedup4 << "x\n"
            << "model exponent check: KernelCosts::thread_efficiency = " << efficiency
            << " predicts 4^" << efficiency << " = " << std::pow(4.0, efficiency)
            << "x on a dedicated 4-core node\n";
  if (hw < 4) {
    std::cout << "note: fewer than 4 hardware threads available — measured "
                 "speedups reflect oversubscription, not the kernels' "
                 "scaling; rerun on a multi-core host to calibrate "
                 "thread_efficiency\n";
  }
}

}  // namespace

int main() {
  print_rates();
  print_constants();
  const mesh::Fab field = sample_field(kScaleN);
  const bool fast = print_row_speedups(field);
  print_thread_scaling(field);
  return fast ? 0 : 1;
}
