#include "amr/advection_diffusion.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace xl::amr {

AdvectionDiffusion::AdvectionDiffusion(const AdvectionDiffusionConfig& config)
    : config_(config) {
  XL_REQUIRE(config.diffusivity >= 0.0, "diffusivity must be non-negative");
  XL_REQUIRE(config.width > 0.0, "blob width must be positive");
}

void AdvectionDiffusion::initial_value(const IntVect& p, double dx, double* out) const {
  const double x = (p[0] + 0.5) * dx - config_.center[0] * config_.extent;
  const double y = (p[1] + 0.5) * dx - config_.center[1] * config_.extent;
  const double z = (p[2] + 0.5) * dx - config_.center[2] * config_.extent;
  const double s2 = config_.width * config_.extent;
  const double r2 = (x * x + y * y + z * z) / (2.0 * s2 * s2);
  out[0] = config_.background + config_.amplitude * std::exp(-r2);
}

double AdvectionDiffusion::max_wave_speed(const Fab& /*u*/, const Box& /*valid*/,
                                          double dx) const {
  double adv = 0.0;
  for (double v : config_.velocity) adv = std::max(adv, std::fabs(v));
  // Fold the explicit-diffusion stability limit into an effective speed so the
  // shared CFL machinery covers both terms: dt <= dx^2 / (6 D) becomes
  // speed >= 6 D / dx.
  const double diff_speed = config_.diffusivity > 0.0 ? 6.0 * config_.diffusivity / dx : 0.0;
  return std::max(adv, diff_speed);
}

void AdvectionDiffusion::flux_row(const Fab& u, int dim, double dx, int j, int k, int x0,
                                  std::size_t n, double* const* out) const {
  const double vel = config_.velocity[dim];
  const double d_over_dx = config_.diffusivity / dx;
  // Each face is computed from the two neighbouring cells. The left
  // neighbour of a whole row is the same row shifted one cell in `dim`, so
  // the stencil is three flat streams, and the upwind branch is on the
  // loop-invariant sign of `vel`, so the face loop is branch-free and
  // vectorizes with every face taking the per-face operations.
  const auto uxoff = static_cast<std::size_t>(x0 - u.box().lo()[0]);
  const double* ur_row = u.row(0, j, k) + uxoff;
  const double* ul_row = dim == 0   ? ur_row - 1
                         : dim == 1 ? u.row(0, j - 1, k) + uxoff
                                    : u.row(0, j, k - 1) + uxoff;
  const double* adv_row = vel >= 0.0 ? ul_row : ur_row;
  double* f = out[0];
  for (std::size_t i = 0; i < n; ++i) {
    const double advective = vel * adv_row[i];
    const double diffusive = -d_over_dx * (ur_row[i] - ul_row[i]);
    f[i] = advective + diffusive;
  }
}

}  // namespace xl::amr
