// Fig. 6 reproduction: entropy-based adaptive down-sampling on a real
// Polytropic Gas field. The paper renders two isosurface close-ups (we cannot
// ship images); the decision data behind the figure is reproduced instead:
// per-block entropy (paper: finest-level blocks between 5.14 and 9.85 bits),
// the per-block factor (low-entropy blocks reduced 4x, high-entropy kept),
// and the quantitative fidelity of the result (triangle counts + RMSE/PSNR
// of the reconstruction vs. the full-resolution field).
#include <algorithm>
#include <iostream>
#include <memory>
#include <sstream>

#include "amr/amr_simulation.hpp"
#include "amr/polytropic_gas.hpp"
#include "analysis/downsample.hpp"
#include "analysis/entropy.hpp"
#include "analysis/statistics.hpp"
#include "common/table.hpp"
#include "viz/marching_cubes.hpp"

using namespace xl;

namespace {

/// One evolved density field (run once, reused across the table).
const mesh::Fab& density_field() {
  static const mesh::Fab field = [] {
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
  }();
  return field;
}

analysis::EntropyConfig entropy_config() {
  analysis::EntropyConfig cfg;
  cfg.comp = amr::PolytropicGas::kRho;
  cfg.bins = 256;
  const auto stats =
      analysis::descriptive_stats(density_field(), density_field().box(), cfg.comp);
  cfg.range_lo = stats.min();
  cfg.range_hi = stats.max();
  return cfg;
}

void print_figure() {
  const mesh::Fab& field = density_field();
  const analysis::EntropyConfig ecfg = entropy_config();

  // Threshold between "keep" and "reduce 4x": midway through the observed
  // block-entropy range, mirroring the paper's 5.14-vs-9.21 example.
  const auto probe = analysis::entropy_downsample_plan(field, 8, {0.0}, {1, 1}, ecfg);
  double h_lo = 1e300, h_hi = -1e300;
  for (const auto& d : probe) {
    h_lo = std::min(h_lo, d.entropy);
    h_hi = std::max(h_hi, d.entropy);
  }
  const double threshold = 0.5 * (h_lo + h_hi);
  const auto plan =
      analysis::entropy_downsample_plan(field, 8, {threshold}, {1, 4}, ecfg);

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

}  // namespace

int main() {
  print_figure();
  return 0;
}
