// Physics interface for the unsplit finite-volume update. A Physics supplies
// initial conditions, the per-dimension numerical face flux, and the CFL
// signal speed; the AmrSimulation driver owns time stepping and AMR.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "mesh/fab.hpp"

namespace xl::amr {

using mesh::Box;
using mesh::Fab;
using mesh::IntVect;

class Physics {
 public:
  virtual ~Physics() = default;

  virtual std::string name() const = 0;
  virtual int ncomp() const = 0;

  /// Ghost cells the flux stencil needs (2 for the MUSCL schemes here).
  virtual int nghost() const = 0;

  /// Point value of the initial condition at cell `p` of the level-`level`
  /// index space with mesh spacing `dx` (level 0 spacing / ref^level).
  virtual void initial_value(const IntVect& p, double dx, double* out) const = 0;

  /// Largest |wave speed| over `valid` cells of `u` — bound for the CFL dt.
  virtual double max_wave_speed(const Fab& u, const Box& valid, double dx) const = 0;

  /// The one flux kernel: the numerical flux through the low faces of the
  /// cells (x0 + i, j, k), 0 <= i < n, along dimension `dim`. out[c][i]
  /// approximates F_c at the face between p - e_dim and p. `u` must have
  /// nghost() filled ghost layers around those faces.
  virtual void flux_row(const Fab& u, int dim, double dx, int j, int k, int x0,
                        std::size_t n, double* const* out) const = 0;

  /// flux(p, c) for every face p in `faces`: flux_row over the rows of
  /// `faces`, each written straight into `flux`.
  void face_flux(const Fab& u, const Box& faces, int dim, double dx, Fab& flux) const;
};

/// Conservative unsplit update: u_new = u - dt/dx * sum_d (F_d(p+e_d) - F_d(p))
/// over `valid`, with the faces of each dimension computed row by row by
/// physics.flux_row.
void godunov_update(const Physics& physics, const Fab& u, const Box& valid, double dx,
                    double dt, Fab& u_new);

}  // namespace xl::amr
