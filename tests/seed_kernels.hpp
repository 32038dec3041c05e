// Frozen copies of the seed per-cell kernels, the oracles of the determinism
// contract (DESIGN.md §3.10). Every cell access funnels through the
// bounds-checked fab(p, c) operator and compression packs its stream one bit
// at a time, exactly as the kernels did before the flat-row rewrites.
// The library kernels must match these bit-for-bit: test_parallel_kernels'
// SeedIdentity suite asserts it at several worker counts, and bench_kernels
// times them as its baseline and gates its exit status on the row path's
// speedup over them. Do not optimize or restyle them; they are the reference.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "amr/advection_diffusion.hpp"
#include "amr/hierarchy.hpp"
#include "amr/polytropic_gas.hpp"
#include "amr/tagging.hpp"
#include "analysis/compress.hpp"
#include "analysis/downsample.hpp"
#include "analysis/entropy.hpp"
#include "mesh/box.hpp"
#include "mesh/fab.hpp"
#include "viz/amr_isosurface.hpp"
#include "viz/marching_cubes.hpp"

namespace xl::seed {

inline double block_entropy(const mesh::Fab& fab, const mesh::Box& region,
                            const analysis::EntropyConfig& config = {}) {
  const mesh::Box scan = fab.box() & region;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  for (mesh::BoxIterator it(scan); it.ok(); ++it) {
    const double v = fab(*it, config.comp);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  if (hi <= lo) return 0.0;
  const auto bins = static_cast<std::size_t>(config.bins);
  const double scale = static_cast<double>(config.bins) / (hi - lo);
  const double last_bin = static_cast<double>(config.bins - 1);
  std::vector<std::size_t> counts(bins, 0);
  std::size_t total = 0;
  for (mesh::BoxIterator it(scan); it.ok(); ++it) {
    const double idx = (fab(*it, config.comp) - lo) * scale;
    if (std::isnan(idx)) continue;
    // xl-lint: allow(float-cast): NaN dropped and range clamped above.
    ++counts[static_cast<std::size_t>(std::clamp(idx, 0.0, last_bin))];
    ++total;
  }
  if (total == 0) return 0.0;
  double entropy = 0.0;
  for (std::size_t b = 0; b < bins; ++b) {
    if (counts[b] == 0) continue;
    const double p = static_cast<double>(counts[b]) / static_cast<double>(total);
    entropy -= p * std::log2(p);
  }
  return entropy;
}

inline mesh::Fab downsample(const mesh::Fab& src, int factor,
                            analysis::DownsampleMethod method) {
  const mesh::IntVect rvec = mesh::IntVect::uniform(factor);
  mesh::Fab out(src.box().coarsen(rvec), src.ncomp());
  const double inv_vol = 1.0 / static_cast<double>(factor) / factor / factor;
  const std::size_t full = static_cast<std::size_t>(factor) * factor * factor;
  const mesh::IntVect slo = src.box().lo(), shi = src.box().hi();
  for (int c = 0; c < src.ncomp(); ++c) {
    for (mesh::BoxIterator it(out.box()); it.ok(); ++it) {
      if (method == analysis::DownsampleMethod::Stride) {
        mesh::IntVect p;
        for (int d = 0; d < mesh::kDim; ++d) {
          p[d] = std::clamp(factor * (*it)[d], slo[d], shi[d]);
        }
        out(*it, c) = src(p, c);
        continue;
      }
      const mesh::IntVect base = (*it).refine(rvec);
      const mesh::Box children = mesh::Box(base, base + (factor - 1)) & src.box();
      double sum = 0.0;
      for (mesh::BoxIterator fit(children); fit.ok(); ++fit) sum += src(*fit, c);
      out(*it, c) = static_cast<std::size_t>(children.num_cells()) == full
                        ? sum * inv_vol
                        : sum / static_cast<double>(children.num_cells());
    }
  }
  return out;
}

inline void linear_fit(const double* v, std::size_t n, double& a, double& b) {
  if (n == 1) {
    a = v[0];
    b = 0.0;
    return;
  }
  double sum_v = 0.0, sum_iv = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum_v += v[i];
    sum_iv += static_cast<double>(i) * v[i];
  }
  const double nn = static_cast<double>(n);
  const double sum_i = nn * (nn - 1.0) / 2.0;
  const double sum_ii = (nn - 1.0) * nn * (2.0 * nn - 1.0) / 6.0;
  const double denom = nn * sum_ii - sum_i * sum_i;
  b = denom != 0.0 ? (nn * sum_iv - sum_i * sum_v) / denom : 0.0;
  a = (sum_v - b * sum_i) / nn;
}

/// Seed encoder: scalar quantize straight off the residual expression, the
/// packed stream set one bit at a time.
inline std::vector<std::uint8_t> compress_payload(
    const mesh::Fab& fab, const analysis::CompressConfig& config) {
  const std::span<const double> data = fab.flat();
  const auto levels = (1u << config.residual_bits) - 1u;
  const auto block = static_cast<std::size_t>(config.block);
  const int bits = config.residual_bits;
  const std::size_t header = 4 * sizeof(double);
  const auto payload_bytes = [&](std::size_t n) {
    return (n * static_cast<std::size_t>(bits) + 7) / 8;
  };
  const std::size_t nblocks = (data.size() + block - 1) / block;
  const std::size_t full_bytes = header + payload_bytes(block);
  const std::size_t tail_n = data.size() - (nblocks - 1) * block;
  std::vector<std::uint8_t> payload(
      (nblocks - 1) * full_bytes + header + payload_bytes(tail_n), 0);
  std::vector<std::uint32_t> q(block);
  for (std::size_t bi = 0; bi < nblocks; ++bi) {
    const std::size_t n = bi + 1 == nblocks ? tail_n : block;
    const double* v = data.data() + bi * block;
    std::uint8_t* dst = payload.data() + bi * full_bytes;
    double a, b;
    linear_fit(v, n, a, b);
    double rmin = 0.0, rmax = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double r = v[i] - (a + b * static_cast<double>(i));
      rmin = i == 0 ? r : std::min(rmin, r);
      rmax = i == 0 ? r : std::max(rmax, r);
    }
    const double step = rmax > rmin ? (rmax - rmin) / levels : 0.0;
    std::memcpy(dst + 0 * sizeof(double), &a, sizeof(double));
    std::memcpy(dst + 1 * sizeof(double), &b, sizeof(double));
    std::memcpy(dst + 2 * sizeof(double), &rmin, sizeof(double));
    std::memcpy(dst + 3 * sizeof(double), &step, sizeof(double));
    for (std::size_t i = 0; i < n; ++i) {
      if (step > 0.0) {
        const double r = v[i] - (a + b * static_cast<double>(i));
        // xl-lint: allow(float-cast): lround of a value in [0, levels].
        q[i] = static_cast<std::uint32_t>(std::lround((r - rmin) / step));
        if (q[i] > levels) q[i] = levels;
      } else {
        q[i] = 0;
      }
    }
    std::uint8_t* packed = dst + header;
    for (std::size_t i = 0; i < n; ++i) {
      for (int bit = 0; bit < bits; ++bit) {
        if ((q[i] >> bit) & 1u) {
          const std::size_t bitpos =
              i * static_cast<std::size_t>(bits) + static_cast<std::size_t>(bit);
          packed[bitpos >> 3] |= static_cast<std::uint8_t>(1u << (bitpos & 7));
        }
      }
    }
  }
  return payload;
}

inline void face_flux(const mesh::Fab& u, const mesh::Box& faces, int dim,
                      double vel, double d_over_dx, mesh::Fab& flux) {
  for (mesh::BoxIterator it(faces); it.ok(); ++it) {
    mesh::IntVect lo = *it;
    lo[dim] -= 1;
    const double ul = u(lo, 0);
    const double ur = u(*it, 0);
    const double advective = vel * (vel >= 0.0 ? ul : ur);
    const double diffusive = -d_over_dx * (ur - ul);
    flux(*it, 0) = advective + diffusive;
  }
}

/// Seed conservative update: seed fluxes plus the per-cell difference loop.
inline mesh::Fab godunov(const amr::AdvectionDiffusion& model, const mesh::Fab& u,
                         const mesh::Box& valid, double dx, double dt) {
  mesh::Fab u_new(u.box(), u.ncomp());
  u_new.copy_from(u, valid);
  const double lambda = dt / dx;
  for (int d = 0; d < mesh::kDim; ++d) {
    mesh::IntVect fhi = valid.hi();
    fhi[d] += 1;
    const mesh::Box faces(valid.lo(), fhi);
    mesh::Fab flux(faces, 1);
    face_flux(u, faces, d, model.config().velocity[d],
              model.config().diffusivity / dx, flux);
    for (mesh::BoxIterator it(valid); it.ok(); ++it) {
      mesh::IntVect hi = *it;
      hi[d] += 1;
      u_new(*it, 0) -= lambda * (flux(hi, 0) - flux(*it, 0));
    }
  }
  return u_new;
}

inline double polytropic_minmod(double a, double b) {
  if (a * b <= 0.0) return 0.0;
  return std::fabs(a) < std::fabs(b) ? a : b;
}

inline double polytropic_pressure(double gamma, const double* cons) {
  using G = amr::PolytropicGas;
  const double rho = std::max(cons[G::kRho], 1e-12);
  const double ke = 0.5 *
                    (cons[G::kMomX] * cons[G::kMomX] + cons[G::kMomY] * cons[G::kMomY] +
                     cons[G::kMomZ] * cons[G::kMomZ]) /
                    rho;
  return std::max((gamma - 1.0) * (cons[G::kEnergy] - ke), 1e-12);
}

inline double polytropic_sound_speed(double gamma, const double* cons) {
  const double rho = std::max(cons[amr::PolytropicGas::kRho], 1e-12);
  return std::sqrt(gamma * polytropic_pressure(gamma, cons) / rho);
}

inline void polytropic_physical_flux(double gamma, const double* cons, int dim,
                                     double* out) {
  using G = amr::PolytropicGas;
  const double rho = std::max(cons[G::kRho], 1e-12);
  const double vel = cons[G::kMomX + dim] / rho;
  const double p = polytropic_pressure(gamma, cons);
  out[G::kRho] = cons[G::kRho] * vel;
  out[G::kMomX] = cons[G::kMomX] * vel;
  out[G::kMomY] = cons[G::kMomY] * vel;
  out[G::kMomZ] = cons[G::kMomZ] * vel;
  out[G::kMomX + dim] += p;
  out[G::kEnergy] = (cons[G::kEnergy] + p) * vel;
}

/// Seed PolytropicGas::face_flux: per face, minmod-limited states on both
/// sides, two physical fluxes and two sound speeds, then the Rusanov flux.
inline void polytropic_face_flux(double gamma, const mesh::Fab& u, const mesh::Box& faces,
                                 int dim, mesh::Fab& flux) {
  constexpr int nc = amr::PolytropicGas::kNcomp;
  constexpr int mom = amr::PolytropicGas::kMomX;
  double left[nc], right[nc], fl[nc], fr[nc];
  for (mesh::BoxIterator it(faces); it.ok(); ++it) {
    mesh::IntVect pll = *it, pl = *it, prr = *it;
    pll[dim] -= 2;
    pl[dim] -= 1;
    prr[dim] += 1;
    for (int c = 0; c < nc; ++c) {
      const double ull = u(pll, c);
      const double ul = u(pl, c);
      const double ur = u(*it, c);
      const double urr = u(prr, c);
      const double slope_l = polytropic_minmod(ul - ull, ur - ul);
      const double slope_r = polytropic_minmod(ur - ul, urr - ur);
      left[c] = ul + 0.5 * slope_l;
      right[c] = ur - 0.5 * slope_r;
    }
    polytropic_physical_flux(gamma, left, dim, fl);
    polytropic_physical_flux(gamma, right, dim, fr);
    const double rho_l = std::max(left[amr::PolytropicGas::kRho], 1e-12);
    const double rho_r = std::max(right[amr::PolytropicGas::kRho], 1e-12);
    const double smax =
        std::max(std::fabs(left[mom + dim] / rho_l) + polytropic_sound_speed(gamma, left),
                 std::fabs(right[mom + dim] / rho_r) + polytropic_sound_speed(gamma, right));
    for (int c = 0; c < nc; ++c) {
      flux(*it, c) = 0.5 * (fl[c] + fr[c]) - 0.5 * smax * (right[c] - left[c]);
    }
  }
}

/// Seed conservative update of the polytropic gas: seed fluxes plus the
/// per-cell difference loop.
inline mesh::Fab polytropic_godunov(double gamma, const mesh::Fab& u, const mesh::Box& valid,
                                    double dx, double dt) {
  mesh::Fab u_new(u.box(), u.ncomp());
  u_new.copy_from(u, valid);
  const double lambda = dt / dx;
  for (int d = 0; d < mesh::kDim; ++d) {
    mesh::IntVect fhi = valid.hi();
    fhi[d] += 1;
    const mesh::Box faces(valid.lo(), fhi);
    mesh::Fab flux(faces, u.ncomp());
    polytropic_face_flux(gamma, u, faces, d, flux);
    for (int c = 0; c < u.ncomp(); ++c) {
      for (mesh::BoxIterator it(valid); it.ok(); ++it) {
        mesh::IntVect hi = *it;
        hi[d] += 1;
        u_new(*it, c) -= lambda * (flux(hi, c) - flux(*it, c));
      }
    }
  }
  return u_new;
}

/// Seed coarse-fine ghost fill: each fine ghost cell outside the fine level's
/// valid union copies its coarse parent, one cell at a time.
inline void fill_cf_ghosts(const amr::AmrLevel& coarse, amr::AmrLevel& fine, int ratio,
                           int nghost) {
  const mesh::IntVect rvec = mesh::IntVect::uniform(ratio);
  for (std::size_t fi = 0; fi < fine.layout.num_boxes(); ++fi) {
    mesh::Fab& ffab = fine.data[fi];
    const mesh::Box ghosted = fine.layout.box(fi).grow(nghost);
    std::vector<mesh::Box> halo;
    ghosted.subtract(fine.layout.box(fi), halo);
    for (const mesh::Box& piece : halo) {
      std::vector<mesh::Box> uncovered{piece};
      for (std::size_t fj = 0; fj < fine.layout.num_boxes(); ++fj) {
        if (fj == fi) continue;
        std::vector<mesh::Box> next;
        for (const mesh::Box& u : uncovered) u.subtract(fine.layout.box(fj), next);
        uncovered = std::move(next);
        if (uncovered.empty()) break;
      }
      for (const mesh::Box& u : uncovered) {
        const mesh::Box cneeded = u.coarsen(rvec);
        for (std::size_t ci = 0; ci < coarse.layout.num_boxes(); ++ci) {
          const mesh::Box coverlap = cneeded & coarse.data[ci].box();
          if (coverlap.empty()) continue;
          const mesh::Fab& cfab = coarse.data[ci];
          const mesh::Box ftarget = coverlap.refine(rvec) & u;
          for (int c = 0; c < ffab.ncomp(); ++c) {
            for (mesh::BoxIterator it(ftarget); it.ok(); ++it) {
              ffab(*it, c) = cfab((*it).coarsen(rvec), c);
            }
          }
        }
      }
    }
  }
}

/// Seed piecewise-constant prolongation: each fine valid cell over a coarse
/// valid box copies its coarse parent, one cell at a time.
inline void prolong_constant(const amr::AmrLevel& coarse, amr::AmrLevel& fine, int ratio) {
  const mesh::IntVect rvec = mesh::IntVect::uniform(ratio);
  for (std::size_t fi = 0; fi < fine.layout.num_boxes(); ++fi) {
    mesh::Fab& ffab = fine.data[fi];
    for (std::size_t ci = 0; ci < coarse.layout.num_boxes(); ++ci) {
      const mesh::Box ftarget = coarse.layout.box(ci).refine(rvec) & fine.layout.box(fi);
      for (int c = 0; c < ffab.ncomp(); ++c) {
        for (mesh::BoxIterator it(ftarget); it.ok(); ++it) {
          ffab(*it, c) = coarse.data[ci]((*it).coarsen(rvec), c);
        }
      }
    }
  }
}

/// Valid-region mask: true where level l's cell is NOT covered by level l+1,
/// tested one cell at a time against every finer box.
inline bool is_finest_at(const amr::AmrHierarchy& hierarchy, std::size_t l,
                         const mesh::IntVect& cell) {
  if (l + 1 >= hierarchy.num_levels()) return true;
  const int ratio = hierarchy.config().ref_ratio;
  const mesh::IntVect fine = cell.refine(mesh::IntVect::uniform(ratio));
  const mesh::Box child(fine, fine + (ratio - 1));
  for (const mesh::Box& b : hierarchy.level(l + 1).layout.boxes()) {
    if (b.intersects(child)) return false;
  }
  return true;
}

/// Seed AMR isosurface: every cell of a covered level asks is_finest_at.
inline viz::TriangleMesh amr_isosurface(const amr::AmrHierarchy& hierarchy,
                                        double isovalue, int comp, double dx0,
                                        viz::IsosurfaceStats& stats) {
  viz::TriangleMesh mesh;
  double dx = dx0;
  for (std::size_t lev = 0; lev < hierarchy.num_levels(); ++lev) {
    const amr::AmrLevel& level = hierarchy.level(lev);
    const bool finest = lev + 1 == hierarchy.num_levels();
    for (std::size_t i = 0; i < level.layout.num_boxes(); ++i) {
      const mesh::Box valid = level.layout.box(i);
      if (finest) {
        mesh.append(viz::extract_isosurface(level.data[i], valid, isovalue, comp, dx));
        stats.cells_scanned += static_cast<std::size_t>(valid.num_cells());
        stats.active_cells += viz::count_active_cells(level.data[i], valid, isovalue, comp);
        continue;
      }
      for (mesh::BoxIterator it(valid); it.ok(); ++it) {
        if (!is_finest_at(hierarchy, lev, *it)) continue;
        const mesh::Box cell(*it, *it);
        mesh.append(viz::extract_isosurface(level.data[i], cell, isovalue, comp, dx));
        ++stats.cells_scanned;
        stats.active_cells += viz::count_active_cells(level.data[i], cell, isovalue, comp);
      }
    }
    dx /= static_cast<double>(hierarchy.config().ref_ratio);
  }
  stats.triangles = mesh.triangle_count();
  return mesh;
}

inline std::vector<mesh::IntVect> tag_cells(const amr::AmrLevel& level,
                                            const amr::TagCriterion& criterion) {
  std::vector<mesh::IntVect> tags;
  for (std::size_t i = 0; i < level.layout.num_boxes(); ++i) {
    const mesh::Fab& fab = level.data[i];
    for (mesh::BoxIterator it(level.layout.box(i)); it.ok(); ++it) {
      double grad = 0.0;
      for (int d = 0; d < mesh::kDim; ++d) {
        mesh::IntVect lo = *it, hi = *it;
        lo[d] -= 1;
        hi[d] += 1;
        const double diff = 0.5 * (fab(hi, criterion.comp) - fab(lo, criterion.comp));
        grad += diff * diff;
      }
      grad = std::sqrt(grad);
      const double scale =
          std::max(std::fabs(fab(*it, criterion.comp)), criterion.abs_floor);
      if (grad / scale > criterion.rel_threshold) tags.push_back(*it);
    }
  }
  return tags;
}

}  // namespace xl::seed
