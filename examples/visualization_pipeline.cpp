// End-to-end visualization pipeline on real data — the paper's Fig. 6
// regenerated as actual images:
//
//   Polytropic Gas AMR run
//     -> plotfile written to disk and read back (the offline path)
//     -> full-resolution isosurface         -> isosurface_full.ppm
//     -> entropy-adaptive down-sampled data -> isosurface_adaptive.ppm
//     -> compressed (fixed-rate) data       -> isosurface_compressed.ppm
//
// and a table comparing bytes, triangles, image coverage and reconstruction
// quality across the three reduction strategies the application layer can
// choose between.
//
//   ./visualization_pipeline [steps]    (default 10)
#include <iostream>
#include <memory>
#include <string>

#include "amr/amr_simulation.hpp"
#include "amr/plotfile.hpp"
#include "amr/polytropic_gas.hpp"
#include "analysis/compress.hpp"
#include "analysis/downsample.hpp"
#include "analysis/entropy.hpp"
#include "analysis/statistics.hpp"
#include "common/contract.hpp"
#include "common/table.hpp"
#include "viz/marching_cubes.hpp"
#include "viz/render.hpp"

using namespace xl;

int main(int argc, char** argv) {
  int steps = 10;
  try {
    if (argc > 2) throw ContractError(std::string("unexpected argument '") + argv[2] + "'");
    if (argc > 1) steps = parse_number<int>(argv[1], "steps");
    if (steps < 1) throw ContractError("steps: must be >= 1, got " + std::to_string(steps));
  } catch (const ContractError& e) {
    std::cerr << e.what() << "\nusage: visualization_pipeline [steps]\n";
    return 2;
  }

  // --- Simulate and persist. --------------------------------------------------
  amr::AmrConfig cfg;
  cfg.base_domain = mesh::Box::domain({32, 32, 32});
  cfg.max_levels = 1;
  cfg.max_box_size = 32;
  cfg.nghost = 2;
  cfg.nranks = 1;
  auto physics = std::make_shared<amr::PolytropicGas>();
  amr::AmrSimulation sim(cfg, physics, {}, 0.3);
  sim.initialize();
  for (int i = 0; i < steps; ++i) sim.advance();

  amr::write_plotfile("blast.xlpf", sim.hierarchy(), sim.step(), sim.time());
  const amr::PlotFileData plot = amr::read_plotfile("blast.xlpf");
  std::cout << "plotfile round trip: step " << plot.step << ", t=" << plot.time
            << ", " << plot.total_cells() << " cells -> blast.xlpf\n";

  const mesh::Fab& full = plot.levels[0].data[0];
  const auto stats =
      analysis::descriptive_stats(full, full.box(), amr::PolytropicGas::kRho);
  const double isovalue = 0.5 * (stats.min() + stats.max());
  const mesh::Box cells(full.box().lo(), full.box().hi() - 1);

  // --- Three reduction strategies. --------------------------------------------
  // 1. Full resolution.
  const viz::TriangleMesh mesh_full =
      viz::extract_isosurface(full, cells, isovalue, amr::PolytropicGas::kRho);

  // 2. Entropy-adaptive downsampling (paper Fig. 6): reconstruct a field where
  //    low-entropy blocks were reduced 4x.
  analysis::EntropyConfig ecfg;
  ecfg.comp = amr::PolytropicGas::kRho;
  ecfg.range_lo = stats.min();
  ecfg.range_hi = stats.max();
  mesh::Fab adaptive(full.box(), full.ncomp());
  adaptive.copy_from(full, full.box());
  std::size_t adaptive_bytes = 0;
  for (const auto& d :
       analysis::entropy_downsample_plan(full, 8, {1.0}, {1, 4}, ecfg)) {
    const mesh::Fab sub = analysis::subset(full, d.block);
    adaptive_bytes += sub.bytes() /
                      (static_cast<std::size_t>(d.factor) * d.factor * d.factor);
    if (d.factor == 1) continue;
    const mesh::Fab rec = analysis::upsample_constant(
        analysis::downsample(sub, d.factor), sub.box(), d.factor);
    adaptive.copy_from(rec, d.block);
  }
  const viz::TriangleMesh mesh_adaptive =
      viz::extract_isosurface(adaptive, cells, isovalue, amr::PolytropicGas::kRho);

  // 3. Fixed-rate compression (the alternative reduction knob of sec. 3).
  analysis::CompressConfig ccfg;
  ccfg.residual_bits = 6;
  const analysis::CompressedField compressed = analysis::compress(full, ccfg);
  const mesh::Fab restored = analysis::decompress(compressed);
  const viz::TriangleMesh mesh_compressed =
      viz::extract_isosurface(restored, cells, isovalue, amr::PolytropicGas::kRho);

  // --- Render all three. -------------------------------------------------------
  viz::RenderConfig rcfg;
  rcfg.width = 384;
  rcfg.height = 384;
  const viz::Image img_full = viz::render_mesh(mesh_full, rcfg);
  const viz::Image img_adaptive = viz::render_mesh(mesh_adaptive, rcfg);
  const viz::Image img_compressed = viz::render_mesh(mesh_compressed, rcfg);
  img_full.write_ppm_file("isosurface_full.ppm");
  img_adaptive.write_ppm_file("isosurface_adaptive.ppm");
  img_compressed.write_ppm_file("isosurface_compressed.ppm");

  Table t({"variant", "bytes", "triangles", "image coverage", "RMSE vs full",
           "PSNR (dB)"});
  t.row()
      .cell("full resolution")
      .cell(format_bytes(static_cast<double>(full.bytes())))
      .cell(mesh_full.triangle_count())
      .cell(format_percent(img_full.coverage(rcfg.background_rgb)))
      .cell("0")
      .cell("inf");
  t.row()
      .cell("entropy-adaptive 4x")
      .cell(format_bytes(static_cast<double>(adaptive_bytes)))
      .cell(mesh_adaptive.triangle_count())
      .cell(format_percent(img_adaptive.coverage(rcfg.background_rgb)))
      .cell(analysis::rmse(full, adaptive, 0), 4)
      .cell(analysis::psnr(full, adaptive, 0), 1);
  t.row()
      .cell("compressed (6-bit)")
      .cell(format_bytes(static_cast<double>(compressed.bytes())))
      .cell(mesh_compressed.triangle_count())
      .cell(format_percent(img_compressed.coverage(rcfg.background_rgb)))
      .cell(analysis::rmse(full, restored, 0), 4)
      .cell(analysis::psnr(full, restored, 0), 1);
  std::cout << "\n" << t.to_string()
            << "\nImages: isosurface_full.ppm / isosurface_adaptive.ppm /"
               " isosurface_compressed.ppm\n"
               "(the paper's Fig. 6 side-by-side comparison, regenerated)\n";
  return 0;
}
