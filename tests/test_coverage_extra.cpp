// Depth-coverage tests for paths the module-level suites exercise only
// indirectly: the raw Godunov update, physics flux consistency, and copier
// plan details.
#include <gtest/gtest.h>

#include <cmath>

#include "amr/advection_diffusion.hpp"
#include "amr/polytropic_gas.hpp"
#include "mesh/level_data.hpp"
#include "seed_kernels.hpp"

namespace xl {
namespace {

using amr::AdvectionDiffusion;
using amr::AdvectionDiffusionConfig;
using amr::PolytropicGas;
using mesh::Box;
using mesh::BoxIterator;
using mesh::Fab;
using mesh::IntVect;

// --- godunov_update directly --------------------------------------------------

TEST(GodunovUpdate, ConstantStateIsFixedPoint) {
  PolytropicGas gas;
  const Box valid = Box::cube({0, 0, 0}, 4);
  Fab u(valid.grow(2), gas.ncomp());
  double state[5];
  gas.initial_value({0, 0, 0}, 1.0, state);  // a constant (center far away)
  for (int c = 0; c < gas.ncomp(); ++c) {
    for (BoxIterator it(u.box()); it.ok(); ++it) u(*it, c) = state[c];
  }
  Fab out(u.box(), gas.ncomp());
  out.copy_from(u, u.box());
  amr::godunov_update(gas, u, valid, 0.1, 0.01, out);
  for (int c = 0; c < gas.ncomp(); ++c) {
    for (BoxIterator it(valid); it.ok(); ++it) {
      EXPECT_NEAR(out(*it, c), state[c], 1e-12) << "comp " << c;
    }
  }
}

TEST(GodunovUpdate, FluxDifferenceIsConservative) {
  // Sum over the valid box changes only by boundary fluxes; with equal
  // boundary states the total is exactly preserved.
  AdvectionDiffusion adv;
  const Box valid = Box::cube({0, 0, 0}, 6);
  Fab u(valid.grow(2), 1, 1.0);
  // Interior bump; boundary ring stays constant.
  u(IntVect{3, 3, 3}) = 2.0;
  Fab out(u.box(), 1);
  out.copy_from(u, u.box());
  amr::godunov_update(adv, u, valid, 1.0 / 6.0, 1e-3, out);
  double before = 0.0, after = 0.0;
  for (BoxIterator it(valid); it.ok(); ++it) {
    before += u(*it);
    after += out(*it);
  }
  // Boundary fluxes: inflow == outflow for the constant far field.
  EXPECT_NEAR(after, before, 1e-9);
}

TEST(GodunovUpdate, RejectsMismatchedFabs) {
  PolytropicGas gas;
  const Box valid = Box::cube({0, 0, 0}, 4);
  Fab u(valid.grow(2), gas.ncomp());
  Fab wrong_comp(valid.grow(2), 1);
  EXPECT_THROW(amr::godunov_update(gas, u, valid, 0.1, 0.01, wrong_comp),
               ContractError);
  Fab too_small(valid.grow(-1).grow(0), gas.ncomp());
  EXPECT_THROW(amr::godunov_update(gas, u, valid, 0.1, 0.01, too_small),
               ContractError);
}

// --- physics internals ---------------------------------------------------------

TEST(PolytropicGasInternals, PressureAndSoundSpeed) {
  // The library's EOS shows through max_wave_speed (|u| + c); the seed
  // oracle's pressure is the one the flux identity tests compare against.
  PolytropicGas gas;
  const auto wave_speed = [&gas](const double (&cons)[5]) {
    Fab u(Box::cube({0, 0, 0}, 1), PolytropicGas::kNcomp);
    for (int c = 0; c < PolytropicGas::kNcomp; ++c) u(IntVect{0, 0, 0}, c) = cons[c];
    return gas.max_wave_speed(u, u.box(), 1.0);
  };
  const double rest[5] = {1.0, 0.0, 0.0, 0.0, 2.5};  // rho=1, E=2.5 -> p=1 (gamma=1.4)
  EXPECT_NEAR(seed::polytropic_pressure(gas.gamma(), rest), 1.0, 1e-12);
  EXPECT_NEAR(wave_speed(rest), std::sqrt(1.4), 1e-12);
  // Kinetic energy is subtracted before the EOS.
  const double moving[5] = {1.0, 1.0, 0.0, 0.0, 3.0};  // ke = 0.5
  EXPECT_NEAR(seed::polytropic_pressure(gas.gamma(), moving), 0.4 * 2.5, 1e-12);
  EXPECT_NEAR(wave_speed(moving), 1.0 + std::sqrt(1.4), 1e-12);
}

TEST(PolytropicGasInternals, WaveSpeedDominatedByFlow) {
  PolytropicGas gas;
  Fab u(Box::cube({0, 0, 0}, 2), 5);
  for (BoxIterator it(u.box()); it.ok(); ++it) {
    u(*it, PolytropicGas::kRho) = 1.0;
    u(*it, PolytropicGas::kMomX) = 10.0;  // fast flow in x
    u(*it, PolytropicGas::kEnergy) = 60.0;
  }
  const double speed = gas.max_wave_speed(u, u.box(), 0.1);
  EXPECT_GT(speed, 10.0);  // |u| + c > |u|
}

TEST(AdvectionInternals, UpwindingSelectsCorrectSide) {
  AdvectionDiffusionConfig cfg;
  cfg.velocity[0] = 1.0;
  cfg.velocity[1] = -1.0;
  cfg.velocity[2] = 0.0;
  cfg.diffusivity = 0.0;
  AdvectionDiffusion adv(cfg);
  Fab u(Box({-1, -1, -1}, {2, 2, 2}), 1);
  for (BoxIterator it(u.box()); it.ok(); ++it) {
    u(*it) = (*it)[0] * 100.0 + (*it)[1];  // distinguishable values
  }
  const Box faces(IntVect{1, 1, 1}, IntVect{1, 1, 1});
  Fab fx(faces, 1), fy(faces, 1);
  adv.face_flux(u, faces, 0, 1.0, fx);
  adv.face_flux(u, faces, 1, 1.0, fy);
  // +x velocity: upwind is the LEFT cell (0,1,1) -> value 1.
  EXPECT_DOUBLE_EQ(fx(IntVect{1, 1, 1}), 1.0 * u(IntVect{0, 1, 1}));
  // -y velocity: upwind is the RIGHT cell (1,1,1) -> flux = -u(1,1,1).
  EXPECT_DOUBLE_EQ(fy(IntVect{1, 1, 1}), -1.0 * u(IntVect{1, 1, 1}));
}

// --- copier plan details --------------------------------------------------------

TEST(CopierDetails, PlanNeverWritesOwnValidCells) {
  const Box domain = Box::domain({8, 8, 8});
  const mesh::BoxLayout layout = mesh::balance(mesh::decompose(domain, 4), 2);
  const mesh::Copier copier(layout, 2, domain, true);
  for (const mesh::CopyOp& op : copier.ops()) {
    if (op.shift == IntVect::zero()) {
      // The written region must not be fully inside the destination's valid
      // box (that data is already authoritative).
      EXPECT_NE(op.region & layout.box(op.dst), op.region);
    }
    EXPECT_FALSE(op.region.empty());
    EXPECT_LT(op.src, layout.num_boxes());
    EXPECT_LT(op.dst, layout.num_boxes());
  }
}

TEST(CopierDetails, PeriodicPlanHasShiftedOps) {
  const Box domain = Box::domain({8, 8, 8});
  const mesh::BoxLayout layout = mesh::balance(mesh::decompose(domain, 4), 1);
  const mesh::Copier periodic(layout, 1, domain, true);
  const mesh::Copier plain(layout, 1, domain, false);
  int shifted = 0;
  for (const auto& op : periodic.ops()) shifted += !(op.shift == IntVect::zero());
  EXPECT_GT(shifted, 0);
  for (const auto& op : plain.ops()) {
    EXPECT_EQ(op.shift, IntVect::zero());
  }
  EXPECT_GT(periodic.ops().size(), plain.ops().size());
}

}  // namespace
}  // namespace xl
