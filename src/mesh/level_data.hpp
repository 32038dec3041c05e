// Data on one AMR level: one ghosted Fab per layout box plus the exchange
// machinery that fills ghost cells from neighbouring boxes (Chombo's
// LevelData<FArrayBox> + Copier).
#pragma once

#include <memory>
#include <vector>

#include "common/lookup.hpp"
#include "mesh/fab.hpp"
#include "mesh/layout.hpp"

namespace xl::mesh {

/// One copy operation of an exchange plan: fill `region` of fab `dst` from
/// fab `src`, where the source data is read at (cell - shift). shift is zero
/// except across periodic boundaries.
struct CopyOp {
  std::size_t src = 0;
  std::size_t dst = 0;
  Box region;
  IntVect shift;
};

/// Precomputed ghost-exchange plan for a (layout, ghost, domain, periodic)
/// tuple. A periodic plan images every source box by each domain shift
/// s * extent with |s| <= ceil(nghost / extent) per dimension, so a domain
/// thinner than the ghost width still fills every ghost layer.
class Copier {
 public:
  Copier() = default;
  Copier(const BoxLayout& layout, int nghost, const Box& domain, bool periodic);

  const std::vector<CopyOp>& ops() const noexcept { return ops_; }

 private:
  std::vector<CopyOp> ops_;
};

class LevelData {
 public:
  LevelData() = default;

  /// Allocates one Fab per layout box, each grown by `nghost` cells.
  LevelData(const BoxLayout& layout, int ncomp, int nghost);

  const BoxLayout& layout() const noexcept { return layout_; }
  int ncomp() const noexcept { return ncomp_; }
  int nghost() const noexcept { return nghost_; }
  std::size_t size() const noexcept { return fabs_.size(); }

  Fab& operator[](std::size_t i) { return at_index(fabs_, i, "LevelData fab"); }
  const Fab& operator[](std::size_t i) const { return at_index(fabs_, i, "LevelData fab"); }

  /// The un-ghosted (valid) region of box i.
  const Box& valid_box(std::size_t i) const { return layout_.box(i); }

  /// Fill ghost cells from the valid regions of neighbouring boxes using a
  /// prebuilt plan.
  void exchange(const Copier& copier);

  /// Exchange through this level's own plan for (domain, periodic). The plan
  /// is built on first use and kept while both match: the layout never
  /// changes (regrid builds a new LevelData), so they are its whole key.
  /// Copies share the plan.
  void exchange(const Box& domain, bool periodic = false);

  /// Total payload bytes across all fabs (ghosts included).
  std::size_t bytes() const noexcept;

  /// Sum over valid cells of component c (diagnostic / conservation checks).
  double sum(int c) const;

  /// Min/max over valid cells of component c.
  std::pair<double, double> min_max(int c) const;

 private:
  BoxLayout layout_;
  int ncomp_ = 0;
  int nghost_ = 0;
  std::vector<Fab> fabs_;
  std::shared_ptr<const Copier> plan_;
  Box plan_domain_;
  bool plan_periodic_ = false;
};

}  // namespace xl::mesh
