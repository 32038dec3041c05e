// Tests for the finite-volume solvers and the AMR time-stepping driver:
// conservation, positivity, transport direction, CFL stability, and the
// full adaptive loop (init -> advance -> regrid).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>

#include "amr/advection_diffusion.hpp"
#include "amr/amr_simulation.hpp"
#include "amr/polytropic_gas.hpp"
#include "common/thread_pool.hpp"
#include "digest.hpp"
#include "seed_kernels.hpp"
#include "viz/amr_isosurface.hpp"

namespace xl::amr {
namespace {

AmrConfig single_level_config(int n) {
  AmrConfig cfg;
  cfg.base_domain = Box::domain({n, n, n});
  cfg.max_levels = 1;
  cfg.max_box_size = n;
  cfg.nghost = 2;
  cfg.nranks = 1;
  cfg.periodic = true;
  return cfg;
}

TEST(AdvectionDiffusion, InitialConditionPeaksAtCenter) {
  AdvectionDiffusionConfig pc;
  pc.center[0] = pc.center[1] = pc.center[2] = 0.5;
  AdvectionDiffusion phys(pc);
  double at_center = 0.0, at_corner = 0.0;
  const double dx = 1.0 / 16.0;
  phys.initial_value({8, 8, 8}, dx, &at_center);
  phys.initial_value({0, 0, 0}, dx, &at_corner);
  EXPECT_GT(at_center, at_corner);
  EXPECT_NEAR(at_corner, pc.background, 0.05);
}

TEST(AdvectionDiffusion, SingleLevelConservesMassExactly) {
  auto phys = std::make_shared<AdvectionDiffusion>();
  AmrSimulation sim(single_level_config(16), phys, {}, 0.4);
  sim.initialize();
  const double mass0 = sim.hierarchy().level(0).data.sum(0);
  for (int i = 0; i < 5; ++i) sim.advance();
  const double mass1 = sim.hierarchy().level(0).data.sum(0);
  // Periodic domain + conservative fluxes: mass preserved to roundoff.
  EXPECT_NEAR(mass1, mass0, 1e-9 * std::fabs(mass0));
}

TEST(AdvectionDiffusion, BlobMovesDownwind) {
  AdvectionDiffusionConfig pc;
  pc.velocity[0] = 1.0;
  pc.velocity[1] = 0.0;
  pc.velocity[2] = 0.0;
  pc.diffusivity = 0.0;
  pc.center[0] = 0.25;
  auto phys = std::make_shared<AdvectionDiffusion>(pc);
  AmrSimulation sim(single_level_config(16), phys, {}, 0.4);
  sim.initialize();

  auto centroid_x = [&] {
    double num = 0.0, den = 0.0;
    const auto& level = sim.hierarchy().level(0);
    for (std::size_t i = 0; i < level.layout.num_boxes(); ++i) {
      for (mesh::BoxIterator it(level.layout.box(i)); it.ok(); ++it) {
        const double u = level.data[i](*it);
        num += u * ((*it)[0] + 0.5);
        den += u;
      }
    }
    return num / den;
  };
  const double x0 = centroid_x();
  for (int i = 0; i < 8; ++i) sim.advance();
  EXPECT_GT(centroid_x(), x0 + 0.1);  // moved in +x
}

TEST(AdvectionDiffusion, DiffusionReducesPeak) {
  AdvectionDiffusionConfig pc;
  pc.velocity[0] = pc.velocity[1] = pc.velocity[2] = 0.0;
  pc.diffusivity = 0.005;
  auto phys = std::make_shared<AdvectionDiffusion>(pc);
  AmrSimulation sim(single_level_config(16), phys, {}, 0.4);
  sim.initialize();
  const auto [lo0, hi0] = sim.hierarchy().level(0).data.min_max(0);
  for (int i = 0; i < 10; ++i) sim.advance();
  const auto [lo1, hi1] = sim.hierarchy().level(0).data.min_max(0);
  EXPECT_LT(hi1, hi0);
  EXPECT_GE(lo1, 0.0);
}

TEST(PolytropicGas, InitialConditionHasPressureJump) {
  PolytropicGas phys;
  double inside[5], outside[5];
  const double dx = 1.0 / 32.0;
  phys.initial_value({16, 16, 16}, dx, inside);
  phys.initial_value({0, 0, 0}, dx, outside);
  EXPECT_GT(seed::polytropic_pressure(phys.gamma(), inside),
            seed::polytropic_pressure(phys.gamma(), outside));
  EXPECT_GT(inside[PolytropicGas::kEnergy], outside[PolytropicGas::kEnergy]);
  EXPECT_DOUBLE_EQ(inside[PolytropicGas::kMomX], 0.0);
}

TEST(PolytropicGas, ConservesMassMomentumEnergySingleLevel) {
  auto phys = std::make_shared<PolytropicGas>();
  AmrSimulation sim(single_level_config(16), phys, {}, 0.3);
  sim.initialize();
  const auto& data0 = sim.hierarchy().level(0).data;
  const double mass0 = data0.sum(PolytropicGas::kRho);
  const double momx0 = data0.sum(PolytropicGas::kMomX);
  const double energy0 = data0.sum(PolytropicGas::kEnergy);
  for (int i = 0; i < 5; ++i) sim.advance();
  const auto& data1 = sim.hierarchy().level(0).data;
  EXPECT_NEAR(data1.sum(PolytropicGas::kRho), mass0, 1e-9 * mass0);
  EXPECT_NEAR(data1.sum(PolytropicGas::kMomX), momx0, 1e-9 * mass0);
  EXPECT_NEAR(data1.sum(PolytropicGas::kEnergy), energy0, 1e-9 * energy0);
}

TEST(PolytropicGas, ShockExpandsOutward) {
  auto phys = std::make_shared<PolytropicGas>();
  AmrSimulation sim(single_level_config(16), phys, {}, 0.3);
  sim.initialize();
  // Density at a point outside the initial sphere rises as the blast arrives.
  const IntVect probe{13, 8, 8};
  const double rho0 = sim.hierarchy().level(0).data[0](probe, PolytropicGas::kRho);
  for (int i = 0; i < 12; ++i) sim.advance();
  const double rho1 = sim.hierarchy().level(0).data[0](probe, PolytropicGas::kRho);
  EXPECT_GT(rho1, rho0 * 1.01);
}

TEST(PolytropicGas, DensityStaysPositive) {
  auto phys = std::make_shared<PolytropicGas>();
  AmrSimulation sim(single_level_config(16), phys, {}, 0.3);
  sim.initialize();
  for (int i = 0; i < 10; ++i) sim.advance();
  const auto [lo, hi] = sim.hierarchy().level(0).data.min_max(PolytropicGas::kRho);
  EXPECT_GT(lo, 0.0);
  EXPECT_LT(hi, 100.0);  // and no blowup
}

TEST(AmrSimulation, DtPositiveAndBounded) {
  auto phys = std::make_shared<PolytropicGas>();
  AmrSimulation sim(single_level_config(8), phys, {}, 0.3);
  sim.initialize();
  const StepStats s = sim.advance();
  EXPECT_GT(s.dt, 0.0);
  EXPECT_LT(s.dt, 1.0);
  EXPECT_EQ(s.step, 1);
  EXPECT_GT(s.total_cells, 0);
  EXPECT_GT(s.bytes, 0u);
}

AmrConfig adaptive_config() {
  AmrConfig cfg;
  cfg.base_domain = Box::domain({16, 16, 16});
  cfg.max_levels = 2;
  cfg.ref_ratio = 2;
  cfg.max_box_size = 8;
  cfg.blocking_factor = 4;
  cfg.nghost = 2;
  cfg.nranks = 2;
  cfg.fill_ratio = 0.7;
  return cfg;
}

TEST(AmrSimulation, InitializeRefinesAroundShock) {
  auto phys = std::make_shared<PolytropicGas>();
  TagCriterion crit;
  crit.comp = PolytropicGas::kRho;
  crit.rel_threshold = 0.05;
  AmrSimulation sim(adaptive_config(), phys, crit, 0.3);
  sim.initialize();
  ASSERT_EQ(sim.hierarchy().num_levels(), 2u);
  EXPECT_GT(sim.hierarchy().level(1).layout.total_cells(), 0);
  // Fine cells hug the interface: far corners are not refined.
  for (const Box& b : sim.hierarchy().level(1).layout.boxes()) {
    EXPECT_TRUE(sim.hierarchy().domain_of(1).contains(b));
  }
  EXPECT_LT(sim.hierarchy().level(1).layout.total_cells(),
            sim.hierarchy().domain_of(1).num_cells());
}

TEST(AmrSimulation, AdaptiveRunRegridsAndTracksShock) {
  auto phys = std::make_shared<PolytropicGas>();
  TagCriterion crit;
  crit.comp = PolytropicGas::kRho;
  crit.rel_threshold = 0.05;
  AmrSimulation sim(adaptive_config(), phys, crit, 0.3, /*regrid_interval=*/2);
  sim.initialize();
  const double mass0 = sim.hierarchy().level(0).data.sum(PolytropicGas::kRho);
  bool saw_regrid = false;
  for (int i = 0; i < 6; ++i) {
    const StepStats s = sim.advance();
    saw_regrid = saw_regrid || s.regridded;
    EXPECT_EQ(s.cells_per_level.size(), sim.hierarchy().num_levels());
  }
  EXPECT_TRUE(saw_regrid);
  // Multi-level mass conservation is approximate (no refluxing): within 5%.
  // (The paper's data-management behaviour does not depend on refluxing.)
  const double mass = sim.hierarchy().level(0).data.sum(PolytropicGas::kRho);
  EXPECT_NEAR(mass, mass0, 0.05 * mass0);
}

TEST(AmrSimulation, ConfigValidation) {
  auto phys = std::make_shared<PolytropicGas>();
  AmrConfig cfg = single_level_config(8);
  cfg.nghost = 1;  // below the physics stencil
  EXPECT_THROW(AmrSimulation(cfg, phys, {}, 0.3), ContractError);
  EXPECT_THROW(AmrSimulation(single_level_config(8), nullptr, {}, 0.3), ContractError);
  EXPECT_THROW(AmrSimulation(single_level_config(8), phys, {}, 1.5), ContractError);
}

TEST(AmrSimulation, DxHalvesPerLevel) {
  auto phys = std::make_shared<PolytropicGas>();
  AmrSimulation sim(adaptive_config(), phys, {}, 0.3);
  EXPECT_DOUBLE_EQ(sim.dx(0), 1.0 / 16.0);
  EXPECT_DOUBLE_EQ(sim.dx(1), 1.0 / 32.0);
}

/// Appends the raw bytes of `n` values at `p` to `out`.
template <typename T>
void append_bytes(std::string& out, const T* p, std::size_t n) {
  out.append(reinterpret_cast<const char*>(p), n * sizeof(T));
}

/// Every level's boxes and fab bytes, ghosts included, in level and box order.
std::string hierarchy_bytes(const AmrHierarchy& h) {
  std::string bytes;
  for (std::size_t lev = 0; lev < h.num_levels(); ++lev) {
    const AmrLevel& level = h.level(lev);
    for (std::size_t i = 0; i < level.layout.num_boxes(); ++i) {
      const Box& fab_box = level.data[i].box();
      for (const Box& b : {level.layout.box(i), fab_box}) {
        const int corners[6] = {b.lo()[0], b.lo()[1], b.lo()[2],
                                b.hi()[0], b.hi()[1], b.hi()[2]};
        append_bytes(bytes, corners, 6);
      }
      const auto flat = level.data[i].flat();
      append_bytes(bytes, flat.data(), flat.size());
    }
  }
  return bytes;
}

/// amr_isosurface_demo's run (32^3, 2 levels, boxes of at most 16 cells,
/// regrid every 4 steps, CFL 0.3) pinned byte for byte: an FNV-1a 64 digest
/// of the whole hierarchy after each of 8 steps, and of the step-8 AMR
/// isosurface's vertices and stats. The digests were recorded before the
/// solver's row-buffer rewrite (DESIGN.md §3.12), so any change to the
/// operations or their order in the advance, the ghost fill, the restriction
/// or the masked isosurface shows here, at 0 and 4 workers alike.
TEST(RealSolver, EightStepsMatchTheRecordedBytes) {
  constexpr std::uint64_t kStepDigests[8] = {
      12601781366638225074ull, 17760145851038102806ull, 9580872275867958527ull,
      2280040510968211495ull,  2752409150086127489ull,  8218723723038075985ull,
      14110332509404579719ull, 8354465110933371371ull};
  constexpr std::uint64_t kIsosurfaceDigest = 13714303357368132162ull;
  struct WorkersGuard {
    ~WorkersGuard() { ThreadPool::set_global_workers(0); }
  } guard;
  for (const std::size_t workers : {std::size_t{0}, std::size_t{4}}) {
    ThreadPool::set_global_workers(workers);
    AmrConfig cfg;
    cfg.base_domain = Box::domain({32, 32, 32});
    cfg.max_levels = 2;
    cfg.ref_ratio = 2;
    cfg.max_box_size = 16;
    cfg.nghost = 2;
    cfg.nranks = 4;
    TagCriterion crit;
    crit.comp = PolytropicGas::kRho;
    crit.rel_threshold = 0.05;
    AmrSimulation sim(cfg, std::make_shared<PolytropicGas>(), crit, 0.3,
                      /*regrid_interval=*/4);
    sim.initialize();
    for (int step = 0; step < 8; ++step) {
      sim.advance();
      EXPECT_EQ(test::fnv1a(hierarchy_bytes(sim.hierarchy())), kStepDigests[step])
          << "hierarchy after step " << step + 1 << " at " << workers << " workers";
    }
    const auto [rho_min, rho_max] = sim.hierarchy().level(0).data.min_max(0);
    viz::IsosurfaceStats stats;
    const viz::TriangleMesh mesh =
        viz::extract_amr_isosurface(sim.hierarchy(), 0.5 * (rho_min + rho_max),
                                    PolytropicGas::kRho, 1.0 / 32.0, &stats);
    std::string bytes;
    append_bytes(bytes, mesh.vertices.data(), mesh.vertices.size());
    for (const std::size_t n : {stats.triangles, stats.cells_scanned, stats.active_cells}) {
      append_bytes(bytes, &n, 1);
    }
    EXPECT_GT(stats.triangles, 0u);
    EXPECT_EQ(test::fnv1a(bytes), kIsosurfaceDigest)
        << "step-8 isosurface at " << workers << " workers";
  }
}

}  // namespace
}  // namespace xl::amr
