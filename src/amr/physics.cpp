#include "amr/physics.hpp"

#include <utility>
#include <vector>

#include "common/error.hpp"

namespace xl::amr {

void Physics::face_flux(const Fab& u, const Box& faces, int dim, double dx, Fab& flux) const {
  XL_REQUIRE(flux.ncomp() == ncomp(), "component mismatch");
  XL_REQUIRE(flux.box().contains(faces), "flux fab does not cover faces");
  if (faces.empty()) return;
  const int x0 = faces.lo()[0];
  const auto nx = static_cast<std::size_t>(faces.size()[0]);
  const auto fxoff = static_cast<std::size_t>(x0 - flux.box().lo()[0]);
  std::vector<double*> out(static_cast<std::size_t>(ncomp()));
  mesh::for_each_row(faces, [&](int j, int k) {
    for (int c = 0; c < ncomp(); ++c) out[static_cast<std::size_t>(c)] = flux.row(c, j, k) + fxoff;
    flux_row(u, dim, dx, j, k, x0, nx, out.data());
  });
}

void godunov_update(const Physics& physics, const Fab& u, const Box& valid, double dx,
                    double dt, Fab& u_new) {
  const int nc = physics.ncomp();
  XL_REQUIRE(u.ncomp() == nc && u_new.ncomp() == nc, "component mismatch");
  XL_REQUIRE(u_new.box().contains(valid), "destination does not cover valid box");
  XL_REQUIRE(&u != &u_new, "the unsplit update reads one state: u_new must not be u");
  if (valid.empty()) return;
  const double lambda = dt / dx;
  const int x0 = valid.lo()[0];
  const auto nx = static_cast<std::size_t>(valid.size()[0]);
  const auto uxoff = static_cast<std::size_t>(x0 - u.box().lo()[0]);
  const auto nxoff = static_cast<std::size_t>(x0 - u_new.box().lo()[0]);
  const std::size_t ustride = u.strides().c;  // component strides
  const std::size_t nstride = u_new.strides().c;

  // Two face rows of every component: each face row is consumed as flux_row
  // produces it, and every face is computed exactly once.
  const std::size_t width = nx + 1;
  const auto ncs = static_cast<std::size_t>(nc);
  std::vector<double> store(2 * ncs * width);
  std::vector<double*> rows(2 * ncs);
  for (std::size_t r = 0; r < rows.size(); ++r) rows[r] = store.data() + r * width;
  double* const* lo = rows.data();
  double* const* hi = rows.data() + ncs;

  // x: the low and high faces of a cell row are one row of nx + 1 faces. The
  // copy of the current state folds in: u - lambda * (f[i+1] - f[i]) is
  // bitwise the copy followed by the subtraction.
  mesh::for_each_row(valid, [&](int j, int k) {
    physics.flux_row(u, 0, dx, j, k, x0, width, lo);
    const double* u0 = u.row(0, j, k) + uxoff;
    double* n0 = u_new.row(0, j, k) + nxoff;
    for (std::size_t c = 0; c < ncs; ++c) {
      const double* f = lo[c];
      const double* uc = u0 + c * ustride;
      double* un = n0 + c * nstride;
      for (std::size_t i = 0; i < nx; ++i) un[i] = uc[i] - lambda * (f[i + 1] - f[i]);
    }
  });

  // y, then z: walk the cell rows along `dim` with the two buffers. The high
  // faces of one row are the low faces of the next, so the buffers swap and
  // each cell takes the same subtraction after its x one, in the same order.
  for (int dim = 1; dim < mesh::kDim; ++dim) {
    const int across = 3 - dim;  // the transverse dimension of the outer loop
    for (int m = valid.lo()[across]; m <= valid.hi()[across]; ++m) {
      const auto j_of = [&](int w) { return dim == 1 ? w : m; };
      const auto k_of = [&](int w) { return dim == 1 ? m : w; };
      int w = valid.lo()[dim];
      physics.flux_row(u, dim, dx, j_of(w), k_of(w), x0, nx, lo);
      for (; w <= valid.hi()[dim]; ++w) {
        physics.flux_row(u, dim, dx, j_of(w + 1), k_of(w + 1), x0, nx, hi);
        double* n0 = u_new.row(0, j_of(w), k_of(w)) + nxoff;
        for (std::size_t c = 0; c < ncs; ++c) {
          const double* flo = lo[c];
          const double* fhi = hi[c];
          double* un = n0 + c * nstride;
          for (std::size_t i = 0; i < nx; ++i) un[i] -= lambda * (fhi[i] - flo[i]);
        }
        std::swap(lo, hi);
      }
    }
  }
}

}  // namespace xl::amr
