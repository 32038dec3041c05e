// AMR Advection-Diffusion: an adaptive conservative transport solver for a
// passive scalar, matching the lighter-weight Chombo workload of the paper's
// Figs. 7, 8, 10, 11 experiments. Upwind advective flux plus central
// diffusive flux, explicit in time.
#pragma once

#include "amr/physics.hpp"

namespace xl::amr {

struct AdvectionDiffusionConfig {
  double velocity[3] = {1.0, 0.5, 0.25};  ///< constant advection velocity.
  double diffusivity = 0.001;
  /// Gaussian blob initial condition.
  double center[3] = {0.35, 0.35, 0.35};
  double width = 0.08;    ///< Gaussian sigma (fraction of extent).
  double amplitude = 1.0;
  double background = 0.01;
  double extent = 1.0;
};

class AdvectionDiffusion final : public Physics {
 public:
  explicit AdvectionDiffusion(const AdvectionDiffusionConfig& config = {});

  std::string name() const override { return "AdvectionDiffusion"; }
  int ncomp() const override { return 1; }
  int nghost() const override { return 2; }

  void initial_value(const IntVect& p, double dx, double* out) const override;
  double max_wave_speed(const Fab& u, const Box& valid, double dx) const override;
  void flux_row(const Fab& u, int dim, double dx, int j, int k, int x0, std::size_t n,
                double* const* out) const override;

  const AdvectionDiffusionConfig& config() const noexcept { return config_; }

 private:
  AdvectionDiffusionConfig config_;
};

}  // namespace xl::amr
