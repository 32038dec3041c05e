#include "amr/polytropic_gas.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace xl::amr {

namespace {

/// Floor of both the density and the pressure.
constexpr double kFloor = 1e-12;

/// Density and pressure of one conserved state.
struct Eos {
  double rho;
  double p;
};

/// The equation of state: density floored at kFloor, pressure
/// (gamma - 1)(E - |m|^2 / 2 rho) floored at kFloor. max_wave_speed() and the
/// flux kernel both go through here, so the floors and the formula exist once.
inline Eos eos(double gamma, double rho, double mx, double my, double mz, double e) {
  const double r = std::max(rho, kFloor);
  const double ke = 0.5 * (mx * mx + my * my + mz * mz) / r;
  return {r, std::max((gamma - 1.0) * (e - ke), kFloor)};
}

/// Faces per chunk of a flux row; the kernel's scratch is sized by it.
constexpr std::size_t kChunk = 64;

}  // namespace

PolytropicGas::PolytropicGas(const PolytropicGasConfig& config) : config_(config) {
  XL_REQUIRE(config.gamma > 1.0, "polytropic gamma must exceed 1");
  XL_REQUIRE(config.p_inside > 0 && config.p_outside > 0, "pressure must be positive");
  XL_REQUIRE(config.rho_inside > 0 && config.rho_outside > 0, "density must be positive");
}

void PolytropicGas::initial_value(const IntVect& p, double dx, double* out) const {
  const double x = (p[0] + 0.5) * dx;
  const double y = (p[1] + 0.5) * dx;
  const double z = (p[2] + 0.5) * dx;
  const double dx0 = x - config_.center[0] * config_.extent;
  const double dy0 = y - config_.center[1] * config_.extent;
  const double dz0 = z - config_.center[2] * config_.extent;
  const double r = std::sqrt(dx0 * dx0 + dy0 * dy0 + dz0 * dz0);
  // Smooth the interface over one coarse cell so tagging sees a gradient
  // rather than a jump aligned to the grid.
  const double s = 1.0 / (1.0 + std::exp((r - config_.radius * config_.extent) / (0.5 * dx + 1e-300)));
  const double rho = config_.rho_outside + (config_.rho_inside - config_.rho_outside) * s;
  const double pr = config_.p_outside + (config_.p_inside - config_.p_outside) * s;
  out[kRho] = rho;
  out[kMomX] = 0.0;
  out[kMomY] = 0.0;
  out[kMomZ] = 0.0;
  out[kEnergy] = pr / (config_.gamma - 1.0);
}

double PolytropicGas::max_wave_speed(const Fab& u, const Box& valid, double /*dx*/) const {
  double speed = 0.0;
  const auto nx = static_cast<std::size_t>(valid.size()[0]);
  const auto xoff = static_cast<std::size_t>(valid.lo()[0] - u.box().lo()[0]);
  mesh::for_each_row(valid, [&](int j, int k) {
    const double* rows[kNcomp];
    for (int c = 0; c < kNcomp; ++c) rows[c] = u.row(c, j, k) + xoff;
    for (std::size_t i = 0; i < nx; ++i) {
      const Eos s = eos(config_.gamma, rows[kRho][i], rows[kMomX][i], rows[kMomY][i],
                        rows[kMomZ][i], rows[kEnergy][i]);
      const double cs = std::sqrt(config_.gamma * s.p / s.rho);
      for (int d = 0; d < mesh::kDim; ++d) {
        speed = std::max(speed, std::fabs(rows[kMomX + d][i] / s.rho) + cs);
      }
    }
  });
  return speed;
}

void PolytropicGas::flux_row(const Fab& u, int dim, double /*dx*/, int j, int k, int x0,
                             std::size_t nx, double* const* out) const {
  const double gamma = config_.gamma;
  // The four-point stencil along `dim` is four flat rows per component: for
  // dim 0 they are the same row shifted, otherwise rows at j/k offsets. The
  // row runs in chunks of at most kChunk faces, one pass per stage over stack
  // scratch, so every stage but the square root is a branch-free loop the
  // compiler vectorizes. Each face still takes the same IEEE operations on
  // the same operands in the same order as a per-face loop (DESIGN.md §3.12).
  XL_REQUIRE(u.ncomp() == kNcomp, "component mismatch");
  const auto uxoff = static_cast<std::size_t>(x0 - u.box().lo()[0]);
  // Component 0's row `s` cells along `dim` from (j, k); component c's rows
  // lie c component strides further on.
  const auto row_at = [&](int s) {
    return u.row(0, dim == 1 ? j + s : j, dim == 2 ? k + s : k) + uxoff;
  };
  const double* const r0 = row_at(0);
  const double* const ll0 = dim == 0 ? r0 - 2 : row_at(-2);
  const double* const l0 = dim == 0 ? r0 - 1 : row_at(-1);
  const double* const rr0 = dim == 0 ? r0 + 1 : row_at(1);
  const std::size_t cstride = u.strides().c;
  const double* rll[kNcomp];
  const double* rl[kNcomp];
  const double* rr[kNcomp];
  const double* rrr[kNcomp];
  for (int c = 0; c < kNcomp; ++c) {
    const std::size_t off = static_cast<std::size_t>(c) * cstride;
    rll[c] = ll0 + off;
    rl[c] = l0 + off;
    rr[c] = r0 + off;
    rrr[c] = rr0 + off;
  }
  for (std::size_t i0 = 0; i0 < nx; i0 += kChunk) {
    const std::size_t n = std::min(kChunk, nx - i0);
    // Limited linear reconstruction of the conserved state on both sides.
    // The minmod slopes go to scratch first: a select feeding arithmetic
    // in the same loop is not if-converted under -ftrapping-math.
    double left[kNcomp][kChunk], right[kNcomp][kChunk];
    double slope_l[kChunk], slope_r[kChunk];
    for (int c = 0; c < kNcomp; ++c) {
      const double* ull = rll[c] + i0;
      const double* ul = rl[c] + i0;
      const double* ur = rr[c] + i0;
      const double* urr = rrr[c] + i0;
      for (std::size_t i = 0; i < n; ++i) {
        // minmod(a, b): 0 unless a and b share a sign, else the smaller.
        const double dl = ul[i] - ull[i];
        const double dc = ur[i] - ul[i];
        const double dr = urr[i] - ur[i];
        const double min_l = std::fabs(dl) < std::fabs(dc) ? dl : dc;
        const double min_r = std::fabs(dc) < std::fabs(dr) ? dc : dr;
        slope_l[i] = dl * dc <= 0.0 ? 0.0 : min_l;
        slope_r[i] = dc * dr <= 0.0 ? 0.0 : min_r;
      }
      for (std::size_t i = 0; i < n; ++i) {
        left[c][i] = ul[i] + 0.5 * slope_l[i];
        right[c][i] = ur[i] - 0.5 * slope_r[i];
      }
    }

    // Once per side: the normal velocity, the pressure and c^2.
    double un_l[kChunk], un_r[kChunk], p_l[kChunk], p_r[kChunk], c2_l[kChunk], c2_r[kChunk];
    const auto primitives = [&](const double (&s)[kNcomp][kChunk], double* un, double* p,
                                double* c2) {
      for (std::size_t i = 0; i < n; ++i) {
        const Eos e =
            eos(gamma, s[kRho][i], s[kMomX][i], s[kMomY][i], s[kMomZ][i], s[kEnergy][i]);
        un[i] = s[kMomX + dim][i] / e.rho;
        p[i] = e.p;
        c2[i] = gamma * e.p / e.rho;
      }
    };
    primitives(left, un_l, p_l, c2_l);
    primitives(right, un_r, p_r, c2_r);

    // Half the larger signal speed. std::sqrt keeps this loop scalar
    // (-fmath-errno), so it does nothing else.
    double half_smax[kChunk];
    for (std::size_t i = 0; i < n; ++i) {
      half_smax[i] = 0.5 * std::max(std::fabs(un_l[i]) + std::sqrt(c2_l[i]),
                                    std::fabs(un_r[i]) + std::sqrt(c2_r[i]));
    }

    // Rusanov flux: 0.5 (F(L) + F(R)) - 0.5 smax (R - L), with
    // F = (rho u_n, m u_n + p e_n, (E + p) u_n).
    const auto rusanov = [](double fl, double fr, double hs, double l, double r) {
      return 0.5 * (fl + fr) - hs * (r - l);
    };
    for (int c = 0; c < kNcomp; ++c) {
      const double* l = left[c];
      const double* r = right[c];
      double* f = out[c] + i0;
      if (c == kEnergy) {
        for (std::size_t i = 0; i < n; ++i) {
          f[i] = rusanov((l[i] + p_l[i]) * un_l[i], (r[i] + p_r[i]) * un_r[i],
                           half_smax[i], l[i], r[i]);
        }
      } else if (c == kMomX + dim) {
        for (std::size_t i = 0; i < n; ++i) {
          f[i] = rusanov(l[i] * un_l[i] + p_l[i], r[i] * un_r[i] + p_r[i], half_smax[i],
                           l[i], r[i]);
        }
      } else {
        for (std::size_t i = 0; i < n; ++i) {
          f[i] = rusanov(l[i] * un_l[i], r[i] * un_r[i], half_smax[i], l[i], r[i]);
        }
      }
    }
  }
}

}  // namespace xl::amr
