#include "amr/synthetic.hpp"

#include <algorithm>
#include <cmath>

#include "common/contract.hpp"
#include "common/error.hpp"

namespace xl::amr {

namespace {

/// Reflecting ("triangle wave") coordinate so blobs bounce off the walls.
double reflect01(double x) {
  x = std::fmod(std::fabs(x), 2.0);
  return x <= 1.0 ? x : 2.0 - x;
}

}  // namespace

SyntheticAmrEvolution::SyntheticAmrEvolution(const SyntheticAmrConfig& config)
    : config_(config) {
  XL_REQUIRE(!config.base_domain.empty(), "base domain must be non-empty");
  XL_REQUIRE(config.tile_size >= 1, "tile size must be positive");
  XL_REQUIRE(config.max_levels >= 1, "need at least one level");
  XL_REQUIRE(config.ref_ratio >= 2, "refinement ratio must be >= 2");
  XL_REQUIRE(config.base_domain.lo() == IntVect::zero(),
             "synthetic evolution assumes a zero-origin domain");
  const IntVect size = config.base_domain.size();
  shortest_edge_ = static_cast<double>(std::min({size[0], size[1], size[2]}));

  Rng rng(config.seed);
  for (int b = 0; b < config.num_blobs; ++b) {
    blob_centers_.push_back({rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8),
                             rng.uniform(0.2, 0.8)});
    blob_velocity_.push_back({rng.uniform(-0.02, 0.02), rng.uniform(-0.02, 0.02),
                              rng.uniform(-0.02, 0.02)});
  }

  // Level 0 never changes; build its layout once.
  base_layout_ =
      mesh::balance(mesh::decompose(config_.base_domain, config_.max_box_size), config_.nranks);
}

// Tags live in "base-tile space": the level-0 domain coarsened by tile_size.
// One tile is a fixed physical region regardless of level, so the tag domain
// (and hence the tagging cost) is scale-independent. Tagging enumerates, for
// every (y,z) tile column, the x-intervals intersecting the spherical band —
// O(surface tiles), never O(volume).
std::vector<IntVect> SyntheticAmrEvolution::tile_tags(int step, int lev) const {
  const Box tile_domain = config_.base_domain.coarsen(config_.tile_size);
  const double edge_tiles = shortest_edge_ / config_.tile_size;  // shortest edge in tiles
  const IntVect tsize = tile_domain.size();

  const double radius = config_.front_radius0 + config_.front_speed * step;
  // Finer levels refine a narrower band around the front; past the decay
  // onset the band thins step by step (the shock weakens and cells coarsen).
  double thickness = config_.front_thickness;
  if (config_.front_decay < 1.0 && step > config_.front_decay_onset) {
    thickness *= std::pow(config_.front_decay, step - config_.front_decay_onset);
  }
  const double band = thickness / static_cast<double>(1 << lev);

  std::vector<IntVect> tags;
  // Centers in tile units. fx etc. are fractions of the shortest edge.
  auto tag_sphere_band = [&](double fx, double fy, double fz, double r_lo, double r_hi) {
    const double cx = fx * edge_tiles, cy = fy * edge_tiles, cz = fz * edge_tiles;
    const double tr_lo = r_lo * edge_tiles, tr_hi = r_hi * edge_tiles;
    const int ty_lo = std::max(tile_domain.lo()[1],
                               f2i<int>(std::floor(cy - tr_hi)) - 1);
    const int ty_hi = std::min(tile_domain.hi()[1],
                               f2i<int>(std::ceil(cy + tr_hi)) + 1);
    const int tz_lo = std::max(tile_domain.lo()[2],
                               f2i<int>(std::floor(cz - tr_hi)) - 1);
    const int tz_hi = std::min(tile_domain.hi()[2],
                               f2i<int>(std::ceil(cz + tr_hi)) + 1);
    for (int tz = tz_lo; tz <= tz_hi; ++tz) {
      for (int ty = ty_lo; ty <= ty_hi; ++ty) {
        const double dy = (ty + 0.5) - cy;
        const double dz = (tz + 0.5) - cz;
        const double d2 = dy * dy + dz * dz;
        if (d2 > tr_hi * tr_hi) continue;
        const double half_out = std::sqrt(tr_hi * tr_hi - d2);
        const double half_in =
            d2 < tr_lo * tr_lo ? std::sqrt(tr_lo * tr_lo - d2) : 0.0;
        // Two x-intervals: [cx-half_out, cx-half_in] and [cx+half_in, cx+half_out]
        // (they merge when half_in == 0).
        auto emit = [&](double x_lo, double x_hi) {
          int i_lo = std::max(tsize[0] > 0 ? tile_domain.lo()[0] : 0,
                              f2i<int>(std::floor(x_lo - 0.5)));
          int i_hi = std::min(tile_domain.hi()[0],
                              f2i<int>(std::ceil(x_hi - 0.5)));
          for (int tx = i_lo; tx <= i_hi; ++tx) {
            const double dx = (tx + 0.5) - cx;
            const double dist2 = dx * dx + d2;
            if (dist2 >= tr_lo * tr_lo && dist2 <= tr_hi * tr_hi) {
              tags.push_back({tx, ty, tz});
            }
          }
        };
        if (half_in > 0.0) {
          emit(cx - half_out, cx - half_in);
          emit(cx + half_in, cx + half_out);
        } else {
          emit(cx - half_out, cx + half_out);
        }
      }
    }
  };

  // Front center sits at the domain center (fractions of the shortest edge).
  const IntVect dsize = config_.base_domain.size();
  tag_sphere_band(0.5 * dsize[0] / shortest_edge_, 0.5 * dsize[1] / shortest_edge_,
                  0.5 * dsize[2] / shortest_edge_, std::max(0.0, radius - band),
                  radius + band);

  if (step >= config_.blob_onset_step) {
    const double blob_r = config_.blob_radius / static_cast<double>(1 << lev);
    for (std::size_t b = 0; b < blob_centers_.size(); ++b) {
      const double fx = reflect01(blob_centers_[b][0] + blob_velocity_[b][0] * step) *
                        dsize[0] / shortest_edge_;
      const double fy = reflect01(blob_centers_[b][1] + blob_velocity_[b][1] * step) *
                        dsize[1] / shortest_edge_;
      const double fz = reflect01(blob_centers_[b][2] + blob_velocity_[b][2] * step) *
                        dsize[2] / shortest_edge_;
      tag_sphere_band(fx, fy, fz, 0.0, blob_r);
    }
  }
  return tags;
}

SyntheticStep SyntheticAmrEvolution::at(int step) const {
  XL_REQUIRE(step >= 0, "step must be non-negative");
  SyntheticStep out;
  out.levels.push_back(base_layout_);

  int level_ratio = config_.ref_ratio;  // base-cells -> level-(lev+1) cells factor
  for (int lev = 0; lev + 1 < config_.max_levels; ++lev) {
    std::vector<IntVect> tags = tile_tags(step, lev);
    if (tags.empty()) break;

    // Cluster in tile space. One tile refines into
    // tile_size * ratio^(lev+1) cells per side at the new level, so the BR
    // box cap in tiles is max_box_size over that span (at least 1).
    const int cells_per_tile = config_.tile_size * level_ratio;
    BrConfig br;
    br.fill_ratio = config_.fill_ratio;
    br.max_box_size = std::max(1, config_.max_box_size / cells_per_tile);
    br.min_box_size = 1;
    const Box tile_domain = config_.base_domain.coarsen(config_.tile_size);
    std::vector<Box> tile_boxes = berger_rigoutsos(tags, tile_domain, br);

    std::vector<Box> boxes;
    boxes.reserve(tile_boxes.size());
    const Box fine_domain = config_.base_domain.refine(IntVect::uniform(level_ratio));
    for (const Box& tb : tile_boxes) {
      const Box fine =
          tb.refine(IntVect::uniform(cells_per_tile)) & fine_domain;
      if (fine.empty()) continue;
      // Nesting holds by construction: each level's band is a concentric
      // subset of the coarser band (half the thickness, same center), and the
      // geometry-only pipeline consumes cell counts and layouts, never
      // coarse-fine stencils, so tile-rounding slack at the band edge is
      // harmless. An explicit clip would cost O(boxes^2) at 16K-core scale.
      boxes.push_back(fine);
    }
    if (boxes.empty()) break;
    out.levels.push_back(mesh::balance(std::move(boxes), config_.nranks));
    level_ratio *= config_.ref_ratio;
  }

  for (const BoxLayout& layout : out.levels) {
    out.cells_per_level.push_back(layout.total_cells());
    out.total_cells += layout.total_cells();
  }
  return out;
}

}  // namespace xl::amr
