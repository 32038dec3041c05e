// Calibration micro-benchmarks: measure the REAL kernels (unsplit Godunov
// advance for both physics, marching cubes, downsampling, entropy, ghost
// exchange) on this host and report M cells/s. These are the measurements
// grounding the DES cost-model constants (cluster::KernelCosts): the
// *ratios* between kernels — what the adaptation policies actually respond
// to — carry over to the machine models.
// Each rate is the best of several samples that last at least
// kMinSampleSeconds each (seconds_per_call): single-call samples read the
// microsecond kernels low.
#include <cmath>
#include <functional>
#include <iostream>
#include <memory>

#include "amr/advection_diffusion.hpp"
#include "amr/amr_simulation.hpp"
#include "amr/polytropic_gas.hpp"
#include "analysis/downsample.hpp"
#include "analysis/entropy.hpp"
#include "bench_util.hpp"
#include "cluster/cost_model.hpp"
#include "common/table.hpp"
#include "viz/marching_cubes.hpp"

using namespace xl;

namespace {

constexpr int kN = 32;
constexpr std::size_t kCells = std::size_t{kN} * kN * kN;
constexpr double kMinSampleSeconds = 0.01;
constexpr int kSamples = 5;

template <typename Physics>
amr::AmrSimulation& simulation() {
  static amr::AmrSimulation sim = [] {
    amr::AmrConfig cfg;
    cfg.base_domain = mesh::Box::domain({kN, kN, kN});
    cfg.max_levels = 1;
    cfg.max_box_size = kN;
    cfg.nghost = 2;
    cfg.nranks = 1;
    amr::AmrSimulation s(cfg, std::make_shared<Physics>(), {}, 0.3);
    s.initialize();
    return s;
  }();
  return sim;
}

const mesh::Fab& sample_field() {
  static const mesh::Fab f = [] {
    mesh::Fab fab(mesh::Box::domain({kN, kN, kN}), 1);
    const double c = kN / 2.0;
    for (mesh::BoxIterator it(fab.box()); it.ok(); ++it) {
      const double dx = (*it)[0] + 0.5 - c, dy = (*it)[1] + 0.5 - c,
                   dz = (*it)[2] + 0.5 - c;
      fab(*it) = std::sqrt(dx * dx + dy * dy + dz * dz) - kN / 4.0;
    }
    return fab;
  }();
  return f;
}

/// Seconds per call of `kernel`: after one warm-up call, the call count per
/// sample doubles until a sample lasts kMinSampleSeconds, and the best of
/// kSamples such samples is divided by that count.
double seconds_per_call(const std::function<void()>& kernel) {
  kernel();
  int calls = 1;
  const auto sample = [&] {
    for (int i = 0; i < calls; ++i) kernel();
  };
  while (bench::min_seconds(sample, 1) < kMinSampleSeconds) calls *= 2;
  return bench::min_seconds(sample, kSamples) / calls;
}

void print_rates() {
  const mesh::Fab& f = sample_field();
  const mesh::Box mc_cells(f.box().lo(), f.box().hi() - 1);
  const mesh::Box domain = mesh::Box::domain({kN, kN, kN});
  const mesh::BoxLayout layout = mesh::balance(mesh::decompose(domain, kN / 2), 4);
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

  std::cout << "\n=== Measured host rates of the real kernels (" << kN << "^3 cells) ===\n";
  Table t({"kernel", "cells/call", "M cells/s"});
  for (const Kernel& k : kernels) {
    const double seconds = seconds_per_call(k.run);
    t.row().cell(k.name).cell(k.cells).cell(static_cast<double>(k.cells) / seconds / 1e6, 1);
  }
  std::cout << t.to_string();
}

void print_summary() {
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

}  // namespace

int main() {
  print_rates();
  print_summary();
  return 0;
}
