#include "amr/physics.hpp"

#include "common/error.hpp"

namespace xl::amr {

void godunov_update(const Physics& physics, const Fab& u, const Box& valid, double dx,
                    double dt, Fab& u_new) {
  const int nc = physics.ncomp();
  XL_REQUIRE(u.ncomp() == nc && u_new.ncomp() == nc, "component mismatch");
  XL_REQUIRE(u_new.box().contains(valid), "destination does not cover valid box");
  const double lambda = dt / dx;

  // Copy current state, then apply the flux differences of each dimension —
  // the "unsplit" update uses one state for all directional fluxes.
  u_new.copy_from(u, valid);
  const auto nx = static_cast<std::size_t>(valid.size()[0]);
  const auto nxoff =
      static_cast<std::size_t>(valid.lo()[0] - u_new.box().lo()[0]);
  for (int d = 0; d < mesh::kDim; ++d) {
    // Faces needed: low faces of every valid cell plus the face one past the
    // high end (hi+1 stores the high face of the last cell).
    IntVect hi = valid.hi();
    hi[d] += 1;
    const Box faces(valid.lo(), hi);
    Fab flux(faces, nc);
    physics.face_flux(u, faces, d, dx, flux);
    // The low and high faces of a whole row are two flat streams (the high
    // stream is the low one shifted in `d`), so the difference is one
    // elementwise loop the compiler vectorizes, each cell taking the cell
    // loop's operations.
    for (int c = 0; c < nc; ++c) {
      mesh::for_each_row(valid, [&](int j, int k) {
        const double* flo = flux.row(c, j, k);
        const double* fhi = d == 0   ? flo + 1
                            : d == 1 ? flux.row(c, j + 1, k)
                                     : flux.row(c, j, k + 1);
        double* un = u_new.row(c, j, k) + nxoff;
        for (std::size_t i = 0; i < nx; ++i) {
          un[i] -= lambda * (fhi[i] - flo[i]);
        }
      });
    }
  }
}

}  // namespace xl::amr
