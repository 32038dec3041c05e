// Determinism contract of the threaded kernels (see common/thread_pool.hpp):
// every kernel that runs on the shared pool must produce BIT-IDENTICAL output
// for any worker count, because the adaptation experiments compare traces and
// goldens across machines and thread settings. Each test runs a kernel
// serially and at several awkward worker counts (2, 3, 5 — never dividing the
// range evenly) and compares raw bytes.
#include <cstdint>
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "amr/advection_diffusion.hpp"
#include "amr/amr_simulation.hpp"
#include "amr/interp.hpp"
#include "amr/polytropic_gas.hpp"
#include "amr/tagging.hpp"
#include "analysis/compress.hpp"
#include "analysis/downsample.hpp"
#include "analysis/entropy.hpp"
#include "common/thread_pool.hpp"
#include "seed_kernels.hpp"
#include "viz/amr_isosurface.hpp"
#include "viz/marching_cubes.hpp"

namespace xl {
namespace {

using mesh::Box;
using mesh::BoxIterator;
using mesh::Fab;

/// Restores the global pool to serial even when a test fails mid-way.
struct GlobalWorkersGuard {
  ~GlobalWorkersGuard() { ThreadPool::set_global_workers(0); }
};

const std::vector<std::size_t> kWorkerCounts = {0, 2, 3, 5};

/// Runs `make` once per worker count and checks every result's bytes against
/// the serial run via `as_bytes`.
template <typename T>
void expect_invariant_under_threading(
    const std::function<T()>& make,
    const std::function<std::vector<std::uint8_t>(const T&)>& as_bytes) {
  GlobalWorkersGuard guard;
  ThreadPool::set_global_workers(kWorkerCounts[0]);
  const T serial = make();
  const std::vector<std::uint8_t> want = as_bytes(serial);
  for (std::size_t i = 1; i < kWorkerCounts.size(); ++i) {
    ThreadPool::set_global_workers(kWorkerCounts[i]);
    const T threaded = make();
    EXPECT_EQ(as_bytes(threaded), want)
        << "output changed with " << kWorkerCounts[i] << " workers";
  }
}

std::vector<std::uint8_t> fab_bytes(const Fab& fab) {
  const std::span<const double> flat = fab.flat();
  std::vector<std::uint8_t> bytes(flat.size_bytes());
  std::memcpy(bytes.data(), flat.data(), flat.size_bytes());
  return bytes;
}

Fab wavy_field(int n, int ncomp = 1) {
  Fab fab(Box::domain({n, n, n}), ncomp);
  for (int c = 0; c < ncomp; ++c) {
    for (BoxIterator it(fab.box()); it.ok(); ++it) {
      const auto& p = *it;
      fab(p, c) = std::sin(0.3 * p[0] + c) * std::cos(0.2 * p[1]) +
                  0.05 * p[2] + 1e-3 * c;
    }
  }
  return fab;
}

TEST(ParallelKernels, BlockEntropyIsThreadCountInvariant) {
  const Fab field = wavy_field(19);  // odd size: uneven slabs
  expect_invariant_under_threading<double>(
      [&] { return analysis::block_entropy(field, field.box()); },
      [](const double& e) {
        std::vector<std::uint8_t> bytes(sizeof(double));
        std::memcpy(bytes.data(), &e, sizeof(double));
        return bytes;
      });
}

TEST(ParallelKernels, EntropyPlanIsThreadCountInvariant) {
  const Fab field = wavy_field(24);
  expect_invariant_under_threading<std::vector<analysis::BlockDecision>>(
      [&] {
        return analysis::entropy_downsample_plan(field, 8, {2.0, 4.0}, {4, 2, 1});
      },
      [](const std::vector<analysis::BlockDecision>& plan) {
        std::vector<std::uint8_t> bytes;
        for (const analysis::BlockDecision& d : plan) {
          const auto* p = reinterpret_cast<const std::uint8_t*>(&d.entropy);
          bytes.insert(bytes.end(), p, p + sizeof(double));
          bytes.push_back(static_cast<std::uint8_t>(d.factor));
          for (int dim = 0; dim < mesh::kDim; ++dim) {
            bytes.push_back(static_cast<std::uint8_t>(d.block.lo()[dim] & 0xff));
            bytes.push_back(static_cast<std::uint8_t>(d.block.hi()[dim] & 0xff));
          }
        }
        return bytes;
      });
}

TEST(ParallelKernels, DownsampleIsThreadCountInvariant) {
  const Fab field = wavy_field(21, 2);
  for (const auto method :
       {analysis::DownsampleMethod::Stride, analysis::DownsampleMethod::Average}) {
    expect_invariant_under_threading<Fab>(
        [&] { return analysis::downsample(field, 2, method); }, fab_bytes);
  }
}

TEST(ParallelKernels, CompressedStreamIsThreadCountInvariant) {
  const Fab field = wavy_field(17);
  analysis::CompressConfig cfg;
  expect_invariant_under_threading<analysis::CompressedField>(
      [&] { return analysis::compress(field, cfg); },
      [](const analysis::CompressedField& c) { return c.payload; });
  // Round trip decodes identically at any worker count, too.
  const analysis::CompressedField stream = analysis::compress(field, cfg);
  expect_invariant_under_threading<Fab>(
      [&] { return analysis::decompress(stream); }, fab_bytes);
}

TEST(ParallelKernels, MarchingCubesIsThreadCountInvariant) {
  const Fab field = wavy_field(23);
  const Box cells(field.box().lo(), field.box().hi() - 1);
  expect_invariant_under_threading<viz::TriangleMesh>(
      [&] { return viz::extract_isosurface(field, cells, 0.5); },
      [](const viz::TriangleMesh& mesh) {
        std::vector<std::uint8_t> bytes(mesh.vertices.size() * sizeof(viz::Vec3));
        std::memcpy(bytes.data(), mesh.vertices.data(), bytes.size());
        return bytes;
      });
  GlobalWorkersGuard guard;
  ThreadPool::set_global_workers(0);
  const std::size_t serial_active = viz::count_active_cells(field, cells, 0.5);
  for (std::size_t workers : kWorkerCounts) {
    ThreadPool::set_global_workers(workers);
    EXPECT_EQ(viz::count_active_cells(field, cells, 0.5), serial_active);
  }
}

amr::AmrConfig shock_config() {
  amr::AmrConfig cfg;
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

std::vector<std::uint8_t> hierarchy_bytes(const amr::AmrHierarchy& h) {
  std::vector<std::uint8_t> bytes;
  for (std::size_t lev = 0; lev < h.num_levels(); ++lev) {
    const amr::AmrLevel& level = h.level(lev);
    for (std::size_t i = 0; i < level.layout.num_boxes(); ++i) {
      const std::vector<std::uint8_t> fb = fab_bytes(level.data[i]);
      bytes.insert(bytes.end(), fb.begin(), fb.end());
    }
  }
  return bytes;
}

TEST(ParallelKernels, AmrAdvanceIsThreadCountInvariant) {
  amr::TagCriterion crit;
  crit.comp = amr::PolytropicGas::kRho;
  crit.rel_threshold = 0.05;
  expect_invariant_under_threading<std::vector<std::uint8_t>>(
      [&]() -> std::vector<std::uint8_t> {
        amr::AmrSimulation sim(shock_config(),
                               std::make_shared<amr::PolytropicGas>(), crit, 0.3,
                               /*regrid_interval=*/2);
        sim.initialize();
        for (int s = 0; s < 3; ++s) sim.advance();
        return hierarchy_bytes(sim.hierarchy());
      },
      [](const std::vector<std::uint8_t>& b) { return b; });
}

TEST(ParallelKernels, TaggingIsThreadCountInvariant) {
  amr::AmrSimulation sim(shock_config(), std::make_shared<amr::PolytropicGas>(),
                         {}, 0.3);
  sim.initialize();
  amr::TagCriterion crit;
  crit.comp = amr::PolytropicGas::kRho;
  crit.rel_threshold = 0.05;
  expect_invariant_under_threading<std::vector<mesh::IntVect>>(
      [&] { return amr::tag_cells(sim.hierarchy().level(0), crit); },
      [](const std::vector<mesh::IntVect>& tags) {
        // Tag ORDER matters: Berger-Rigoutsos consumes the list as-is.
        std::vector<std::uint8_t> bytes(tags.size() * sizeof(mesh::IntVect));
        std::memcpy(bytes.data(), tags.data(), bytes.size());
        return bytes;
      });
}

TEST(ParallelKernels, AmrIsosurfaceIsThreadCountInvariant) {
  amr::TagCriterion crit;
  crit.comp = amr::PolytropicGas::kRho;
  crit.rel_threshold = 0.05;
  amr::AmrSimulation sim(shock_config(), std::make_shared<amr::PolytropicGas>(),
                         crit, 0.3);
  sim.initialize();
  const double dx0 = 1.0 / 16.0;
  expect_invariant_under_threading<viz::TriangleMesh>(
      [&] {
        return viz::extract_amr_isosurface(sim.hierarchy(), 0.6,
                                           amr::PolytropicGas::kRho, dx0);
      },
      [](const viz::TriangleMesh& mesh) {
        std::vector<std::uint8_t> bytes(mesh.vertices.size() * sizeof(viz::Vec3));
        std::memcpy(bytes.data(), mesh.vertices.data(), bytes.size());
        return bytes;
      });
  // The per-level statistics are integer sums: also invariant.
  GlobalWorkersGuard guard;
  ThreadPool::set_global_workers(0);
  viz::IsosurfaceStats serial_stats;
  viz::extract_amr_isosurface(sim.hierarchy(), 0.6, amr::PolytropicGas::kRho, dx0,
                              &serial_stats);
  ThreadPool::set_global_workers(3);
  viz::IsosurfaceStats threaded_stats;
  viz::extract_amr_isosurface(sim.hierarchy(), 0.6, amr::PolytropicGas::kRho, dx0,
                              &threaded_stats);
  EXPECT_EQ(threaded_stats.cells_scanned, serial_stats.cells_scanned);
  EXPECT_EQ(threaded_stats.active_cells, serial_stats.active_cells);
  EXPECT_EQ(threaded_stats.triangles, serial_stats.triangles);
}

// --- seed-reference bit-identity suite ---------------------------------------
// DESIGN.md §3.10: the flat-row kernel rewrites must be
// indistinguishable from the seed per-cell formulations — not merely
// thread-invariant, but bit-identical to the original bounds-checked
// fab(p, c) code. The replicas in seed_kernels.hpp freeze the seed semantics
// (every access through operator(), streams packed one bit at a time); each
// test compares the library kernel against its replica at 0, 2, and 5
// workers. bench_kernels times the same replicas.

const std::vector<std::size_t> kSeedWorkerCounts = {0, 2, 5};

template <typename T>
void expect_matches_seed(
    const std::vector<std::uint8_t>& want, const std::function<T()>& make,
    const std::function<std::vector<std::uint8_t>(const T&)>& as_bytes) {
  GlobalWorkersGuard guard;
  for (std::size_t workers : kSeedWorkerCounts) {
    ThreadPool::set_global_workers(workers);
    EXPECT_EQ(as_bytes(make()), want)
        << "row kernel diverged from the seed per-cell path at " << workers
        << " workers";
  }
}

std::vector<std::uint8_t> double_bytes(const double& v) {
  std::vector<std::uint8_t> bytes(sizeof(double));
  std::memcpy(bytes.data(), &v, sizeof(double));
  return bytes;
}

TEST(SeedIdentity, BlockEntropyMatchesSeedPerCellPath) {
  Fab field = wavy_field(19);
  field({3, 4, 5}, 0) = std::nan("");  // NaN cells drop out of the histogram
  // Full box and an offset sub-region (exercises the row x-offset path).
  const Box sub({2, 1, 3}, {14, 17, 11});
  for (const Box& region : {field.box(), sub}) {
    expect_matches_seed<double>(
        double_bytes(seed::block_entropy(field, region)),
        [&] { return analysis::block_entropy(field, region); }, double_bytes);
  }
}

TEST(SeedIdentity, DownsampleMatchesSeedPerCellPath) {
  const Fab field = wavy_field(21, 2);
  // factor 2: clipped children at the high edge (21 odd); factor 3: exact.
  for (int factor : {2, 3}) {
    for (const auto method : {analysis::DownsampleMethod::Stride,
                              analysis::DownsampleMethod::Average}) {
      expect_matches_seed<Fab>(
          fab_bytes(seed::downsample(field, factor, method)),
          [&] { return analysis::downsample(field, factor, method); },
          fab_bytes);
    }
  }
}

TEST(SeedIdentity, CompressedPayloadMatchesSeedBitPacker) {
  const Fab field = wavy_field(17);
  analysis::CompressConfig cfg;
  expect_matches_seed<analysis::CompressedField>(
      seed::compress_payload(field, cfg),
      [&] { return analysis::compress(field, cfg); },
      [](const analysis::CompressedField& c) { return c.payload; });
}

TEST(SeedIdentity, FaceFluxAndGodunovMatchSeedPerCellPath) {
  const amr::AdvectionDiffusion model;
  const Box valid = Box::domain({12, 12, 12});
  const double dx = 1.0 / 12.0;
  Fab u(valid.grow(model.nghost()), 1);
  for (BoxIterator it(u.box()); it.ok(); ++it) {
    const auto& p = *it;
    u(p) = std::sin(0.4 * p[0]) * std::cos(0.3 * p[1]) + 0.07 * p[2];
  }
  for (int d = 0; d < mesh::kDim; ++d) {
    mesh::IntVect fhi = valid.hi();
    fhi[d] += 1;
    const Box faces(valid.lo(), fhi);
    Fab want(faces, 1);
    seed::face_flux(u, faces, d, model.config().velocity[d],
                   model.config().diffusivity * 12.0, want);
    expect_matches_seed<Fab>(
        fab_bytes(want),
        [&] {
          Fab flux(faces, 1);
          model.face_flux(u, faces, d, dx, flux);
          return flux;
        },
        fab_bytes);
  }
  const double dt = 0.4 * dx / model.max_wave_speed(u, valid, dx);
  expect_matches_seed<Fab>(
      fab_bytes(seed::godunov(model, u, valid, dx, dt)),
      [&] {
        Fab u_new(u.box(), 1);
        amr::godunov_update(model, u, valid, dx, dt, u_new);
        return u_new;
      },
      fab_bytes);
}

TEST(SeedIdentity, TagCellsMatchSeedPerCellPath) {
  amr::AmrSimulation sim(shock_config(), std::make_shared<amr::PolytropicGas>(),
                         {}, 0.3);
  sim.initialize();
  amr::TagCriterion crit;
  crit.comp = amr::PolytropicGas::kRho;
  crit.rel_threshold = 0.05;
  const std::vector<mesh::IntVect> want_tags =
      seed::tag_cells(sim.hierarchy().level(0), crit);
  std::vector<std::uint8_t> want(want_tags.size() * sizeof(mesh::IntVect));
  std::memcpy(want.data(), want_tags.data(), want.size());
  expect_matches_seed<std::vector<mesh::IntVect>>(
      want, [&] { return amr::tag_cells(sim.hierarchy().level(0), crit); },
      [](const std::vector<mesh::IntVect>& tags) {
        std::vector<std::uint8_t> bytes(tags.size() * sizeof(mesh::IntVect));
        std::memcpy(bytes.data(), tags.data(), bytes.size());
        return bytes;
      });
}

/// A PolytropicGas state over `box`: the Sedov initial condition (a 100x
/// pressure jump smoothed over one cell: the shock) plus a velocity field, so
/// every flux component is non-trivial.
Fab sedov_with_flow(const amr::PolytropicGas& gas, const Box& box, double dx) {
  using G = amr::PolytropicGas;
  Fab u(box, G::kNcomp);
  double cons[G::kNcomp];
  for (BoxIterator it(box); it.ok(); ++it) {
    const auto& p = *it;
    gas.initial_value(p, dx, cons);
    const double rho = cons[G::kRho];
    const double v[3] = {0.4 * std::sin(0.7 * p[1]), -0.3 * std::cos(0.5 * p[2]),
                         0.2 * std::sin(0.3 * p[0] + 1.0)};
    u(p, G::kRho) = rho;
    for (int d = 0; d < mesh::kDim; ++d) u(p, G::kMomX + d) = rho * v[d];
    u(p, G::kEnergy) =
        cons[G::kEnergy] + 0.5 * rho * (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]);
  }
  return u;
}

/// Sends reconstructed states through both floors of the equation of state:
/// a vacuum cell (rho = 0 <= 1e-12) and a block whose energy is a tenth of its
/// kinetic energy (p < 0 before the floor).
void add_floored_cells(Fab& u, const Box& block, const mesh::IntVect& vacuum) {
  using G = amr::PolytropicGas;
  u(vacuum, G::kRho) = 0.0;
  u(vacuum, G::kMomX) = 0.05;
  for (BoxIterator it(block); it.ok(); ++it) {
    const auto& p = *it;
    const double m2 = u(p, G::kMomX) * u(p, G::kMomX) + u(p, G::kMomY) * u(p, G::kMomY) +
                      u(p, G::kMomZ) * u(p, G::kMomZ);
    u(p, G::kEnergy) = 0.1 * 0.5 * m2 / u(p, G::kRho);
  }
}

TEST(SeedIdentity, PolytropicFluxAndGodunovMatchSeedPerFacePath) {
  const amr::PolytropicGas gas;
  const int ng = gas.nghost();
  struct Case {
    Box valid;
    Box faces_within;  ///< faces = this box extended by one face along dim.
    Box flux_box;      ///< the flux fab (larger than the faces: offset rows).
  };
  // A cube holding the shock; 70-wide rows, which span two 64-face chunks; an
  // offset sub-box written into a larger flux fab.
  const Box cube = Box::domain({12, 12, 12});
  const Box wide({0, 0, 0}, {69, 2, 2});
  const std::vector<Case> cases = {
      {cube, cube, cube.grow(1)},
      {wide, wide, wide.grow(1)},
      {cube, Box({3, 2, 1}, {9, 8, 7}), cube.grow(1)},
  };
  for (const Case& tc : cases) {
    const double dx = 1.0 / static_cast<double>(tc.valid.size()[0]);
    Fab u = sedov_with_flow(gas, tc.valid.grow(ng), dx);
    add_floored_cells(u, Box({2, 1, 0}, {4, 2, 2}), {6, 1, 1});
    for (int d = 0; d < mesh::kDim; ++d) {
      mesh::IntVect fhi = tc.faces_within.hi();
      fhi[d] += 1;
      const Box faces(tc.faces_within.lo(), fhi);
      Fab want(tc.flux_box, amr::PolytropicGas::kNcomp);
      seed::polytropic_face_flux(gas.gamma(), u, faces, d, want);
      expect_matches_seed<Fab>(
          fab_bytes(want),
          [&] {
            Fab flux(tc.flux_box, amr::PolytropicGas::kNcomp);
            gas.face_flux(u, faces, d, dx, flux);
            return flux;
          },
          fab_bytes);
    }
    const double dt = 1e-3 * dx;
    expect_matches_seed<Fab>(
        fab_bytes(seed::polytropic_godunov(gas.gamma(), u, tc.valid, dx, dt)),
        [&] {
          Fab u_new(u.box(), amr::PolytropicGas::kNcomp);
          amr::godunov_update(gas, u, tc.valid, dx, dt, u_new);
          return u_new;
        },
        fab_bytes);
  }
}

TEST(SeedIdentity, FillCfGhostsMatchesSeedPerCellPath) {
  constexpr int kRatio = 2;
  constexpr int kGhost = 2;
  // Eight 4^3 coarse boxes: their ghosted fabs overlap, and each holds its own
  // value in the overlap, so which box writes last shows in the bytes.
  amr::AmrLevel coarse;
  coarse.domain = Box::domain({8, 8, 8});
  coarse.layout = mesh::balance(mesh::decompose(coarse.domain, 4), 2);
  coarse.data = mesh::LevelData(coarse.layout, 2, kGhost);
  for (std::size_t i = 0; i < coarse.data.size(); ++i) {
    for (int c = 0; c < 2; ++c) {
      for (BoxIterator it(coarse.data[i].box()); it.ok(); ++it) {
        const auto& p = *it;
        coarse.data[i](p, c) = 1000.0 * static_cast<double>(i) + 100.0 * c + p[0] +
                               10.0 * p[1] + 0.01 * p[2];
      }
    }
  }
  // Fine boxes on the low and high domain edges, two of them touching, one
  // with a low corner that is not a multiple of the ratio.
  amr::AmrLevel fine;
  fine.domain = coarse.domain.refine(kRatio);
  fine.layout = mesh::BoxLayout({Box({0, 0, 0}, {7, 7, 7}), Box({8, 0, 0}, {11, 5, 7}),
                                 Box({9, 9, 9}, {15, 15, 15})},
                                {0, 1, 0}, 2);
  fine.data = mesh::LevelData(fine.layout, 2, kGhost);
  for (std::size_t i = 0; i < fine.data.size(); ++i) fine.data[i].set_all(-7.0);
  for (std::size_t i = 0; i < fine.data.size(); ++i) {
    for (int c = 0; c < 2; ++c) {
      for (BoxIterator it(fine.layout.box(i)); it.ok(); ++it) {
        fine.data[i](*it, c) = -1.0 - 0.5 * c - 0.001 * (*it)[0];
      }
    }
  }
  const auto level_bytes = [](const amr::AmrLevel& level) {
    std::vector<std::uint8_t> bytes;
    for (std::size_t i = 0; i < level.data.size(); ++i) {
      const std::vector<std::uint8_t> fb = fab_bytes(level.data[i]);
      bytes.insert(bytes.end(), fb.begin(), fb.end());
    }
    return bytes;
  };
  amr::AmrLevel want = fine;
  seed::fill_cf_ghosts(coarse, want, kRatio, kGhost);
  expect_matches_seed<std::vector<std::uint8_t>>(
      level_bytes(want),
      [&] {
        amr::AmrLevel got = fine;
        amr::fill_cf_ghosts(coarse, got, kRatio, kGhost);
        return level_bytes(got);
      },
      [](const std::vector<std::uint8_t>& b) { return b; });
}

/// Every fab of `level`, ghosts included, in box order.
std::vector<std::uint8_t> level_fab_bytes(const amr::AmrLevel& level) {
  std::vector<std::uint8_t> bytes;
  for (std::size_t i = 0; i < level.data.size(); ++i) {
    const std::vector<std::uint8_t> fb = fab_bytes(level.data[i]);
    bytes.insert(bytes.end(), fb.begin(), fb.end());
  }
  return bytes;
}

TEST(SeedIdentity, FillCfGhostsAndProlongMatchSeedAtRatiosThreeAndFour) {
  constexpr int kGhost = 2;
  for (const int ratio : {3, 4}) {
    SCOPED_TRACE(testing::Message() << "ratio " << ratio);
    // Eight 6^3 coarse boxes around the origin: negative corners, and ghosted
    // fabs that overlap and each hold their own values there.
    amr::AmrLevel coarse;
    coarse.domain = Box({-6, -6, -6}, {5, 5, 5});
    std::vector<Box> cboxes;
    for (const int z : {-6, 0}) {
      for (const int y : {-6, 0}) {
        for (const int x : {-6, 0}) cboxes.push_back(Box::cube({x, y, z}, 6));
      }
    }
    coarse.layout = mesh::BoxLayout(cboxes, std::vector<int>(cboxes.size(), 0), 1);
    coarse.data = mesh::LevelData(coarse.layout, 2, kGhost);
    for (std::size_t i = 0; i < coarse.data.size(); ++i) {
      for (int c = 0; c < 2; ++c) {
        for (BoxIterator it(coarse.data[i].box()); it.ok(); ++it) {
          const auto& p = *it;
          coarse.data[i](p, c) = 1000.0 * static_cast<double>(i) + 100.0 * c + p[0] +
                                 10.0 * p[1] + 0.01 * p[2];
        }
      }
    }
    // Fine boxes whose low corners are negative and not multiples of the
    // ratio: two touching in x across the origin, one in the domain's low
    // corner.
    amr::AmrLevel fine;
    fine.domain = coarse.domain.refine(ratio);
    const int lo = fine.domain.lo()[0];
    fine.layout = mesh::BoxLayout({Box({-7, -5, -5}, {2, 4, 5}), Box({3, -5, -5}, {8, 1, 5}),
                                   Box({lo, lo, lo + 1}, {lo + 6, lo + 8, lo + 5})},
                                  {0, 1, 0}, 2);
    fine.data = mesh::LevelData(fine.layout, 2, kGhost);
    for (std::size_t i = 0; i < fine.data.size(); ++i) {
      fine.data[i].set_all(-7.0);
      for (int c = 0; c < 2; ++c) {
        for (BoxIterator it(fine.layout.box(i)); it.ok(); ++it) {
          fine.data[i](*it, c) = -1.0 - 0.5 * c - 0.001 * (*it)[0];
        }
      }
    }
    amr::AmrLevel want = fine;
    seed::fill_cf_ghosts(coarse, want, ratio, kGhost);
    expect_matches_seed<std::vector<std::uint8_t>>(
        level_fab_bytes(want),
        [&] {
          amr::AmrLevel got = fine;
          amr::fill_cf_ghosts(coarse, got, ratio, kGhost);
          return level_fab_bytes(got);
        },
        [](const std::vector<std::uint8_t>& b) { return b; });
    want = fine;
    seed::prolong_constant(coarse, want, ratio);
    expect_matches_seed<std::vector<std::uint8_t>>(
        level_fab_bytes(want),
        [&] {
          amr::AmrLevel got = fine;
          amr::prolong_constant(coarse, got, ratio);
          return level_fab_bytes(got);
        },
        [](const std::vector<std::uint8_t>& b) { return b; });
  }
}

TEST(SeedIdentity, GodunovOnBoxesOneCellThickMatchesSeed) {
  // One cell thick in y, in z, and in both: the y and z sweeps each walk a
  // single pair of face rows.
  const amr::AdvectionDiffusion model;
  const amr::PolytropicGas gas;
  const double dx = 1.0 / 16.0;
  for (const Box& valid :
       {Box({-3, 2, -1}, {6, 2, 4}), Box({-3, -2, 5}, {6, 3, 5}), Box({0, 0, 0}, {69, 0, 0})}) {
    SCOPED_TRACE(testing::Message() << valid);
    Fab u(valid.grow(model.nghost()), 1);
    for (BoxIterator it(u.box()); it.ok(); ++it) {
      const auto& p = *it;
      u(p) = std::sin(0.4 * p[0]) * std::cos(0.3 * p[1]) + 0.07 * p[2];
    }
    const double dt = 0.4 * dx / model.max_wave_speed(u, valid, dx);
    expect_matches_seed<Fab>(
        fab_bytes(seed::godunov(model, u, valid, dx, dt)),
        [&] {
          Fab u_new(u.box(), 1);
          amr::godunov_update(model, u, valid, dx, dt, u_new);
          return u_new;
        },
        fab_bytes);
    const Fab g = sedov_with_flow(gas, valid.grow(gas.nghost()), dx);
    const double gdt = 1e-3 * dx;
    expect_matches_seed<Fab>(
        fab_bytes(seed::polytropic_godunov(gas.gamma(), g, valid, dx, gdt)),
        [&] {
          Fab u_new(g.box(), amr::PolytropicGas::kNcomp);
          amr::godunov_update(gas, g, valid, dx, gdt, u_new);
          return u_new;
        },
        fab_bytes);
  }
}

TEST(SeedIdentity, AmrIsosurfaceMatchesSeedPerCellPath) {
  amr::AmrConfig cfg;
  cfg.base_domain = Box::domain({16, 16, 16});
  cfg.max_levels = 3;
  cfg.ref_ratio = 2;
  cfg.nghost = 2;
  amr::AmrHierarchy h(cfg, 1);
  // Fine boxes whose low corners are not multiples of the ratio.
  h.regrid({mesh::BoxLayout({Box({5, 3, 7}, {20, 14, 18}), Box({22, 20, 2}, {29, 27, 9})},
                            {0, 1}, 2),
            mesh::BoxLayout({Box({13, 9, 17}, {24, 20, 30})}, {0}, 2)});
  ASSERT_EQ(h.num_levels(), 3u);
  // Distance from the domain centre, sampled at each level's cell centres
  // (ghosts included): the isosurface is a sphere crossing all three levels.
  double dx = 1.0 / 16.0;
  for (std::size_t lev = 0; lev < h.num_levels(); ++lev) {
    amr::AmrLevel& level = h.level(lev);
    for (std::size_t i = 0; i < level.data.size(); ++i) {
      for (BoxIterator it(level.data[i].box()); it.ok(); ++it) {
        double r2 = 0.0;
        for (int d = 0; d < mesh::kDim; ++d) {
          const double x = ((*it)[d] + 0.5) * dx - 0.5;
          r2 += x * x;
        }
        level.data[i](*it) = std::sqrt(r2);
      }
    }
    dx /= 2.0;
  }
  const auto as_bytes = [](const std::pair<viz::TriangleMesh, viz::IsosurfaceStats>& r) {
    std::vector<std::uint8_t> bytes(r.first.vertices.size() * sizeof(viz::Vec3));
    std::memcpy(bytes.data(), r.first.vertices.data(), bytes.size());
    for (const std::size_t n :
         {r.second.triangles, r.second.cells_scanned, r.second.active_cells}) {
      const auto* p = reinterpret_cast<const std::uint8_t*>(&n);
      bytes.insert(bytes.end(), p, p + sizeof n);
    }
    return bytes;
  };
  std::pair<viz::TriangleMesh, viz::IsosurfaceStats> want;
  want.first = seed::amr_isosurface(h, 0.3, 0, 1.0 / 16.0, want.second);
  ASSERT_GT(want.second.triangles, 0u);
  expect_matches_seed<std::pair<viz::TriangleMesh, viz::IsosurfaceStats>>(
      as_bytes(want),
      [&] {
        std::pair<viz::TriangleMesh, viz::IsosurfaceStats> got;
        got.first = viz::extract_amr_isosurface(h, 0.3, 0, 1.0 / 16.0, &got.second);
        return got;
      },
      as_bytes);
}

TEST(ParallelKernels, EntropyIgnoresNaNCells) {
  Fab field = wavy_field(8);
  field({1, 1, 1}, 0) = std::nan("");
  const double with_nan = analysis::block_entropy(field, field.box());
  EXPECT_TRUE(std::isfinite(with_nan));
  // An all-NaN block histograms nothing and reports zero entropy.
  Fab poisoned(Box::domain({4, 4, 4}), 1);
  for (BoxIterator it(poisoned.box()); it.ok(); ++it) poisoned(*it) = std::nan("");
  EXPECT_EQ(analysis::block_entropy(poisoned, poisoned.box()), 0.0);
}

}  // namespace
}  // namespace xl
