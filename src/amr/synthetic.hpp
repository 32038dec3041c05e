// Geometry-only AMR evolution for the paper's machine-scale experiments.
//
// The Fig. 7-11 / Table 2 runs use 2K-16K cores and domains up to
// 2048x2048x1024 — far beyond what one workstation can hold as field data.
// But the adaptation policies never read field values: they consume the
// *hierarchy geometry* per step (cells per level, per-rank distribution,
// generated data size). This class evolves exactly that geometry: an
// expanding spherical front plus drifting blobs produce refinement tags
// analytically (at tile granularity), the real Berger-Rigoutsos clusterer and
// the real load balancer turn them into per-step layouts, and the memory
// model prices them. Everything downstream (staging, policies, DES) is the
// same code path a field-carrying run uses.
#pragma once

#include <cstdint>
#include <vector>

#include "amr/berger_rigoutsos.hpp"
#include "common/rng.hpp"
#include "mesh/layout.hpp"

namespace xl::amr {

using mesh::Box;
using mesh::BoxLayout;
using mesh::IntVect;

struct SyntheticAmrConfig {
  Box base_domain;           ///< level-0 index domain.
  int max_levels = 3;
  int ref_ratio = 2;
  int max_box_size = 32;
  int tile_size = 8;         ///< tag granularity (cells per tile side, level-0 space).
  int nranks = 64;
  /// Read by no code here: balance() has one method. Kept for callers
  /// outside the library that still pass it on.
  mesh::BalanceMethod balance = mesh::BalanceMethod::MortonRoundRobin;
  double fill_ratio = 0.7;

  /// Expanding spherical front (fractions of the shortest domain edge for the
  /// radius; cells/step for the speed). Models the Sedov-like shock the
  /// Polytropic Gas run refines around.
  double front_radius0 = 0.10;
  double front_speed = 0.012;  ///< fraction of shortest edge per step.
  double front_thickness = 0.03;
  /// The refined band thins as the shock weakens: from `front_decay_onset`
  /// on, the band thickness shrinks by `front_decay` per step (1.0 = never).
  /// Gives runs the refine-then-coarsen life cycle of real AMR explosions.
  double front_decay = 1.0;
  int front_decay_onset = 0;

  /// Secondary drifting Gaussian blobs (turbulent features entering the
  /// refined set mid-run).
  int num_blobs = 3;
  double blob_radius = 0.05;
  int blob_onset_step = 10;  ///< blobs start refining after this step.

  std::uint64_t seed = 42;
};

/// One step's hierarchy geometry.
struct SyntheticStep {
  std::vector<BoxLayout> levels;         ///< level 0 first.
  std::vector<std::int64_t> cells_per_level;
  std::int64_t total_cells = 0;
};

class SyntheticAmrEvolution {
 public:
  explicit SyntheticAmrEvolution(const SyntheticAmrConfig& config);

  /// Geometry at time step `step` (deterministic in (config, step)).
  SyntheticStep at(int step) const;

  const SyntheticAmrConfig& config() const noexcept { return config_; }

  /// Level 0, the same layout in every step's geometry.
  const BoxLayout& base_layout() const noexcept { return base_layout_; }

 private:
  /// Tile-granular tags at refinement level `lev` (index space of level lev)
  /// for time step `step`. Returned points are tile indices.
  std::vector<IntVect> tile_tags(int step, int lev) const;

  SyntheticAmrConfig config_;
  double shortest_edge_;
  BoxLayout base_layout_;  ///< level 0 is static: built once, shared by every step.
  std::vector<std::array<double, 3>> blob_centers_;   ///< fractions of domain.
  std::vector<std::array<double, 3>> blob_velocity_;  ///< fractions per step.
};

}  // namespace xl::amr
