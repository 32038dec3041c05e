#include "amr/advection_diffusion.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace xl::amr {

using mesh::BoxIterator;

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

void AdvectionDiffusion::face_flux(const Fab& u, const Box& faces, int dim, double dx,
                                   Fab& flux) const {
  XL_REQUIRE(flux.box().contains(faces), "flux fab does not cover faces");
  const double vel = config_.velocity[dim];
  const double d_over_dx = config_.diffusivity / dx;
  // Each face is computed from the two neighbouring cells and written in
  // place: slab partitioning cannot change the result. Row form: the left
  // neighbour of a whole row is the same row shifted one cell in `dim`, so
  // the stencil is three flat streams, and the upwind branch is on the
  // loop-invariant sign of `vel`, so the face loop is branch-free and
  // vectorizes with every face taking the per-face operations.
  const auto nz = static_cast<std::size_t>(faces.size()[2]);
  parallel_for(ThreadPool::global(), 0, nz,
               [&](std::size_t zb, std::size_t ze) {
    const Box slab = mesh::z_slab(faces, zb, ze);
    const int x0 = slab.lo()[0];
    const auto nx = static_cast<std::size_t>(slab.size()[0]);
    const std::size_t uxoff = static_cast<std::size_t>(x0 - u.box().lo()[0]);
    const std::size_t fxoff = static_cast<std::size_t>(x0 - flux.box().lo()[0]);
    mesh::for_each_row(slab, [&](int j, int k) {
      const double* ur_row = u.row(0, j, k) + uxoff;
      const double* ul_row = dim == 0   ? ur_row - 1
                             : dim == 1 ? u.row(0, j - 1, k) + uxoff
                                        : u.row(0, j, k - 1) + uxoff;
      const double* adv_row = vel >= 0.0 ? ul_row : ur_row;
      double* f = flux.row(0, j, k) + fxoff;
      for (std::size_t i = 0; i < nx; ++i) {
        const double advective = vel * adv_row[i];
        const double diffusive = -d_over_dx * (ur_row[i] - ul_row[i]);
        f[i] = advective + diffusive;
      }
    });
  });
}

}  // namespace xl::amr
