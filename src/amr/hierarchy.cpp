#include "amr/hierarchy.hpp"

#include "amr/interp.hpp"

#include <cstdint>

namespace xl::amr {

AmrHierarchy::AmrHierarchy(const AmrConfig& config, int ncomp)
    : config_(config), ncomp_(ncomp) {
  XL_REQUIRE(!config.base_domain.empty(), "base domain must be non-empty");
  XL_REQUIRE(config.max_levels >= 1, "need at least the base level");
  XL_REQUIRE(config.ref_ratio >= 2, "refinement ratio must be >= 2");
  XL_REQUIRE(ncomp >= 1, "need at least one component");
  AmrLevel base;
  base.domain = config.base_domain;
  base.layout =
      mesh::balance(mesh::decompose(config.base_domain, config.max_box_size), config.nranks);
  base.data = LevelData(base.layout, ncomp, config.nghost);
  levels_.push_back(std::move(base));
}

Box AmrHierarchy::domain_of(std::size_t l) const {
  Box d = config_.base_domain;
  for (std::size_t i = 0; i < l; ++i) d = d.refine(config_.ref_ratio);
  return d;
}

void AmrHierarchy::regrid(const std::vector<BoxLayout>& fine_layouts) {
  XL_REQUIRE(fine_layouts.size() + 1 <= static_cast<std::size_t>(config_.max_levels),
             "too many levels in regrid");
  std::vector<AmrLevel> old_levels = std::move(levels_);
  levels_.clear();
  levels_.push_back(std::move(old_levels[0]));

  for (std::size_t l = 0; l < fine_layouts.size(); ++l) {
    const std::size_t lev = l + 1;
    AmrLevel next;
    next.domain = domain_of(lev);
    next.layout = fine_layouts[l];
    next.data = LevelData(next.layout, ncomp_, config_.nghost);
    levels_.push_back(std::move(next));

    // Initialize from coarse, then overwrite with old same-level data where
    // the old level existed and overlaps.
    prolong_constant(levels_[lev - 1], levels_[lev], config_.ref_ratio);
    if (lev < old_levels.size()) {
      const AmrLevel& old = old_levels[lev];
      for (std::size_t ni = 0; ni < levels_[lev].layout.num_boxes(); ++ni) {
        for (std::size_t oi = 0; oi < old.layout.num_boxes(); ++oi) {
          const Box overlap = levels_[lev].layout.box(ni) & old.layout.box(oi);
          if (!overlap.empty()) {
            levels_[lev].data[ni].copy_from(old.data[oi], overlap);
          }
        }
      }
    }
  }
}

std::int64_t AmrHierarchy::total_cells() const noexcept {
  std::int64_t total = 0;
  for (const AmrLevel& lev : levels_) total += lev.layout.total_cells();
  return total;
}

std::size_t AmrHierarchy::bytes() const noexcept {
  std::size_t total = 0;
  for (const AmrLevel& lev : levels_) total += lev.data.bytes();
  return total;
}

}  // namespace xl::amr
