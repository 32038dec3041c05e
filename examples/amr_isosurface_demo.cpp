// Real-kernel demo: run the 3-D Polytropic Gas AMR simulation (the paper's
// memory-intensive workload) at laptop scale, extract density isosurfaces
// with the marching-cubes visualization service, and apply entropy-based
// adaptive downsampling (paper §5.2.1 / Fig. 6) — reporting, per block, the
// entropy, the factor chosen, and the reconstruction quality.
//
//   ./amr_isosurface_demo [steps]     (default 8; writes isosurface.obj)
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "amr/amr_simulation.hpp"
#include "amr/polytropic_gas.hpp"
#include "analysis/downsample.hpp"
#include "analysis/entropy.hpp"
#include "analysis/statistics.hpp"
#include "common/contract.hpp"
#include "common/log.hpp"
#include "common/table.hpp"
#include "viz/amr_isosurface.hpp"
#include "viz/mesh_io.hpp"

using namespace xl;

int main(int argc, char** argv) {
  log::set_threshold(log::Level::Info);
  int steps = 8;
  try {
    if (argc > 2) throw ContractError(std::string("unexpected argument '") + argv[2] + "'");
    if (argc > 1) steps = parse_number<int>(argv[1], "steps");
    if (steps < 1) throw ContractError("steps: must be >= 1, got " + std::to_string(steps));
  } catch (const ContractError& e) {
    std::cerr << e.what() << "\nusage: amr_isosurface_demo [steps]\n";
    return 2;
  }

  // --- 1. Simulate: spherical blast, 2 AMR levels, gradient-tag regridding.
  amr::AmrConfig cfg;
  cfg.base_domain = mesh::Box::domain({32, 32, 32});
  cfg.max_levels = 2;
  cfg.ref_ratio = 2;
  cfg.max_box_size = 16;
  cfg.nghost = 2;
  cfg.nranks = 4;
  auto physics = std::make_shared<amr::PolytropicGas>();
  amr::TagCriterion criterion;
  criterion.comp = amr::PolytropicGas::kRho;
  criterion.rel_threshold = 0.05;
  amr::AmrSimulation sim(cfg, physics, criterion, 0.3, /*regrid_interval=*/4);
  sim.initialize();

  std::cout << "Polytropic Gas blast on " << cfg.base_domain << ", "
            << sim.hierarchy().num_levels() << " levels\n\n";
  Table run({"step", "dt", "cells L0", "cells L1", "hierarchy bytes", "wall"});
  for (int i = 0; i < steps; ++i) {
    const amr::StepStats s = sim.advance();
    run.row()
        .cell(s.step)
        .cell(s.dt, 5)
        .cell(static_cast<std::size_t>(s.cells_per_level[0]))
        .cell(s.cells_per_level.size() > 1
                  ? static_cast<std::size_t>(s.cells_per_level[1])
                  : std::size_t{0})
        .cell(format_bytes(static_cast<double>(s.bytes)))
        .cell(format_seconds(s.wall_seconds));
  }
  std::cout << run.to_string() << "\n";

  // --- 2. Visualize: AMR-masked marching cubes on the density field.
  const auto [rho_min, rho_max] = sim.hierarchy().level(0).data.min_max(0);
  const double isovalue = 0.5 * (rho_min + rho_max);
  viz::IsosurfaceStats stats;
  const viz::TriangleMesh mesh = viz::extract_amr_isosurface(
      sim.hierarchy(), isovalue, amr::PolytropicGas::kRho, 1.0 / 32.0, &stats);
  viz::write_obj_file("isosurface.obj", mesh, "polytropic_density");
  std::cout << "isosurface rho=" << isovalue << ": " << stats.triangles
            << " triangles from " << stats.cells_scanned << " cells ("
            << stats.active_cells << " active) -> isosurface.obj\n\n";

  // --- 3. Entropy-based adaptive downsampling of the level-0 density field
  //        (paper eq. 11 / Fig. 6): low-entropy blocks reduce 4x, high-entropy
  //        blocks keep full resolution.
  // Restrict to the valid (un-ghosted) region of the first level-0 box.
  const mesh::Fab field = analysis::subset(sim.hierarchy().level(0).data[0],
                                           sim.hierarchy().level(0).layout.box(0));
  analysis::EntropyConfig ecfg;
  ecfg.comp = amr::PolytropicGas::kRho;
  ecfg.range_lo = rho_min;
  ecfg.range_hi = rho_max;
  const auto plan = analysis::entropy_downsample_plan(
      field, 8, /*thresholds=*/{2.0}, /*factors=*/{1, 4}, ecfg);

  Table blocks({"block", "entropy (bits)", "factor", "RMSE vs full"});
  std::size_t full_bytes = 0, reduced_bytes = 0;
  for (const auto& d : plan) {
    const mesh::Fab sub = analysis::subset(field, d.block);
    const mesh::Fab rec = analysis::upsample_constant(
        analysis::downsample(sub, d.factor), sub.box(), d.factor);
    std::ostringstream name;
    name << d.block;
    blocks.row()
        .cell(name.str())
        .cell(d.entropy, 2)
        .cell(d.factor)
        .cell(analysis::rmse(sub, rec), 4);
    full_bytes += sub.bytes();
    reduced_bytes += sub.bytes() / (static_cast<std::size_t>(d.factor) * d.factor * d.factor);
  }
  std::cout << blocks.to_string() << "\nadaptive reduction keeps "
            << format_percent(static_cast<double>(reduced_bytes) /
                              static_cast<double>(full_bytes))
            << " of the raw bytes while preserving high-entropy structure\n";
  return 0;
}
