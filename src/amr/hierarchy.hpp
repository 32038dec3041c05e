// The AMR mesh hierarchy: a stack of properly-nested levels, each a disjoint
// box layout refined from the one below. Mirrors the part of Chombo's
// AMR/AMRLevel machinery the paper's workloads exercise.
//
// This library uses non-subcycled time stepping (all levels advance with the
// shared stable dt); Chombo subcycles, but the data-management behaviour the
// paper studies — dynamic per-step data volumes and imbalanced layouts — is
// identical, and non-subcycling keeps the driver simple (documented in
// DESIGN.md).
#pragma once

#include <cstdint>
#include <vector>

#include "common/lookup.hpp"
#include "mesh/layout.hpp"
#include "mesh/level_data.hpp"

namespace xl::amr {

using mesh::Box;
using mesh::BoxLayout;
using mesh::IntVect;
using mesh::LevelData;

/// Static description of the hierarchy shape.
struct AmrConfig {
  Box base_domain;              ///< level-0 problem domain.
  int max_levels = 3;           ///< including the base level.
  int ref_ratio = 2;            ///< uniform per-level refinement ratio.
  int max_box_size = 32;        ///< decomposition limit per side.
  int nghost = 2;               ///< ghost width for solver stencils.
  int blocking_factor = 4;      ///< grid coarsenability requirement.
  int tag_buffer = 1;           ///< cells to grow tags before clustering.
  double fill_ratio = 0.7;      ///< Berger-Rigoutsos efficiency target.
  int nranks = 4;               ///< ranks to balance each level over.
  bool periodic = true;
  /// Subcycled time stepping (Chombo's scheme): each finer level takes
  /// ref_ratio substeps per coarse step, with coarse-fine ghosts held at the
  /// coarse time (piecewise-constant in time; Chombo interpolates linearly).
  /// false = non-subcycled: all levels advance with the shared stable dt.
  bool subcycle = false;
};

/// One level: its layout, domain (in its own index space), and field data.
struct AmrLevel {
  Box domain;
  BoxLayout layout;
  LevelData data;
};

class AmrHierarchy {
 public:
  explicit AmrHierarchy(const AmrConfig& config, int ncomp);

  const AmrConfig& config() const noexcept { return config_; }
  int ncomp() const noexcept { return ncomp_; }
  std::size_t num_levels() const noexcept { return levels_.size(); }

  AmrLevel& level(std::size_t l) { return at_index(levels_, l, "AmrHierarchy level"); }
  const AmrLevel& level(std::size_t l) const {
    return at_index(levels_, l, "AmrHierarchy level");
  }

  /// Domain of level l (level-0 domain refined l times).
  Box domain_of(std::size_t l) const;

  /// Replace the layouts of levels [1, new_layouts.size()] and re-allocate
  /// their data, prolonging from the next-coarser level and copying from the
  /// previous data where it overlaps. Level 0 never changes.
  void regrid(const std::vector<BoxLayout>& fine_layouts);

  /// Total valid (non-ghost) cells over all levels.
  std::int64_t total_cells() const noexcept;

  /// Payload bytes of all level data (ghosts included).
  std::size_t bytes() const noexcept;

 private:
  AmrConfig config_;
  int ncomp_;
  std::vector<AmrLevel> levels_;
};

}  // namespace xl::amr
