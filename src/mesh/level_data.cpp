#include "mesh/level_data.hpp"

#include <algorithm>
#include <limits>

namespace xl::mesh {

Copier::Copier(const BoxLayout& layout, int nghost, const Box& domain, bool periodic) {
  XL_REQUIRE(nghost >= 0, "ghost width must be non-negative");
  if (nghost == 0) return;
  const IntVect dsize = domain.size();
  // Candidate shifts: identity plus, when periodic, the wrap images. A ghost
  // layer reaches nghost cells past the domain, which is ceil(nghost / extent)
  // images away; on every domain at least as wide as the ghost layer that is
  // the 26 nearest images.
  std::vector<IntVect> shifts{IntVect::zero()};
  if (periodic) {
    XL_REQUIRE(!domain.empty(), "periodic exchange needs a non-empty domain");
    IntVect reach;
    for (int d = 0; d < kDim; ++d) reach[d] = (nghost + dsize[d] - 1) / dsize[d];
    for (int sx = -reach[0]; sx <= reach[0]; ++sx) {
      for (int sy = -reach[1]; sy <= reach[1]; ++sy) {
        for (int sz = -reach[2]; sz <= reach[2]; ++sz) {
          if (sx == 0 && sy == 0 && sz == 0) continue;
          shifts.push_back({sx * dsize[0], sy * dsize[1], sz * dsize[2]});
        }
      }
    }
  }
  for (std::size_t dst = 0; dst < layout.num_boxes(); ++dst) {
    const Box ghosted = layout.box(dst).grow(nghost);
    for (std::size_t src = 0; src < layout.num_boxes(); ++src) {
      for (const IntVect& shift : shifts) {
        if (src == dst && shift == IntVect::zero()) continue;
        // Source valid region, imaged by the shift, intersected with the
        // destination's ghosted region gives the cells this op fills.
        const Box imaged = layout.box(src).shift(shift);
        const Box region = ghosted & imaged;
        if (region.empty()) continue;
        // Never overwrite the destination's own valid cells.
        const Box clipped = region & layout.box(dst);
        if (clipped == region) continue;
        ops_.push_back(CopyOp{src, dst, region, shift});
      }
    }
  }
}

LevelData::LevelData(const BoxLayout& layout, int ncomp, int nghost)
    : layout_(layout), ncomp_(ncomp), nghost_(nghost) {
  XL_REQUIRE(ncomp > 0, "need at least one component");
  XL_REQUIRE(nghost >= 0, "ghost width must be non-negative");
  fabs_.reserve(layout.num_boxes());
  for (std::size_t i = 0; i < layout.num_boxes(); ++i) {
    fabs_.emplace_back(layout.box(i).grow(nghost), ncomp);
  }
}

void LevelData::exchange(const Copier& copier) {
  for (const CopyOp& op : copier.ops()) {
    if (op.shift == IntVect::zero()) {
      // Restrict the copy to the source's valid cells.
      Fab& dst = fabs_[op.dst];
      const Fab& src = fabs_[op.src];
      const Box region = op.region & layout_.box(op.src);
      dst.copy_from(src, region);
    } else {
      fabs_[op.dst].copy_from_shifted(fabs_[op.src], op.region, op.shift);
    }
  }
}

void LevelData::exchange(const Box& domain, bool periodic) {
  if (!plan_ || plan_domain_ != domain || plan_periodic_ != periodic) {
    plan_ = std::make_shared<const Copier>(layout_, nghost_, domain, periodic);
    plan_domain_ = domain;
    plan_periodic_ = periodic;
  }
  exchange(*plan_);
}

std::size_t LevelData::bytes() const noexcept {
  std::size_t total = 0;
  for (const Fab& f : fabs_) total += f.bytes();
  return total;
}

double LevelData::sum(int c) const {
  double total = 0.0;
  for (std::size_t i = 0; i < fabs_.size(); ++i) {
    for (BoxIterator it(layout_.box(i)); it.ok(); ++it) total += fabs_[i](*it, c);
  }
  return total;
}

std::pair<double, double> LevelData::min_max(int c) const {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < fabs_.size(); ++i) {
    for (BoxIterator it(layout_.box(i)); it.ok(); ++it) {
      const double v = fabs_[i](*it, c);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  return {lo, hi};
}

}  // namespace xl::mesh
