// 3-D Polytropic Gas: the compressible Euler equations with an ideal-gas
// (polytropic) equation of state, integrated with a MUSCL-Hancock-style
// limited reconstruction and a Rusanov (local Lax-Friedrichs) flux. This is
// the reproduction of Chombo's AMRGodunov PolytropicGas example — the memory-
// and compute-intensive workload of the paper's Figs. 1, 5, 6 and 9.
//
// Conserved components: [rho, rho*u, rho*v, rho*w, E].
#pragma once

#include "amr/physics.hpp"

namespace xl::amr {

struct PolytropicGasConfig {
  double gamma = 1.4;
  /// Spherical "explosion" initial condition (Sedov-like): an overpressured
  /// sphere at `center` (fractions of the unit domain) of radius `radius`.
  double center[3] = {0.5, 0.5, 0.5};
  double radius = 0.15;
  double rho_inside = 1.0;
  double rho_outside = 0.125;
  double p_inside = 10.0;
  double p_outside = 0.1;
  /// Domain extent in physical units; dx(level 0) = extent / ncells(level 0).
  double extent = 1.0;
};

class PolytropicGas final : public Physics {
 public:
  static constexpr int kRho = 0;
  static constexpr int kMomX = 1;
  static constexpr int kMomY = 2;
  static constexpr int kMomZ = 3;
  static constexpr int kEnergy = 4;
  static constexpr int kNcomp = 5;

  explicit PolytropicGas(const PolytropicGasConfig& config = {});

  std::string name() const override { return "PolytropicGas"; }
  int ncomp() const override { return kNcomp; }
  int nghost() const override { return 2; }

  void initial_value(const IntVect& p, double dx, double* out) const override;
  double max_wave_speed(const Fab& u, const Box& valid, double dx) const override;
  void flux_row(const Fab& u, int dim, double dx, int j, int k, int x0, std::size_t n,
                double* const* out) const override;

  double gamma() const noexcept { return config_.gamma; }
  const PolytropicGasConfig& config() const noexcept { return config_; }

 private:
  PolytropicGasConfig config_;
};

}  // namespace xl::amr
