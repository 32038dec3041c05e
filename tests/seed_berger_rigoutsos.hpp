// Frozen copy of Berger-Rigoutsos as it was before the clustering recursion
// inherited its signatures and the unit-cap path sorted packed keys: every
// node recounts all of its tags into three per-plane signatures, the unit-cap
// path sorts IntVects with an std::array comparator, and boxes over the cap
// go through mesh::decompose. The library's berger_rigoutsos must return the
// same boxes in the same order (test_amr's BergerRigoutsosDifferential
// suite). Do not optimize or restyle it; it is the reference.
#pragma once

#include <algorithm>
#include <array>
#include <cstdlib>
#include <span>
#include <vector>

#include "amr/berger_rigoutsos.hpp"
#include "common/error.hpp"
#include "mesh/layout.hpp"

namespace xl::seed {

using amr::BrConfig;
using mesh::Box;
using mesh::IntVect;
using mesh::kDim;

namespace br_detail {

/// Tag count per plane of one node's bounding box, one span per dimension.
using Signatures = std::array<std::span<const int>, kDim>;

struct Cut {
  int dim = -1;
  int at = 0;       ///< absolute coordinate; cells < at go left.
  int quality = -1; ///< larger is better.
};

/// Look for a zero plane (hole) in any signature — the best possible cut.
inline Cut find_hole(const Signatures& sigs, const Box& box, int min_size) {
  Cut best;
  for (int d = 0; d < kDim; ++d) {
    const auto& sig = sigs[static_cast<std::size_t>(d)];
    for (std::size_t i = 0; i < sig.size(); ++i) {
      if (sig[i] != 0) continue;
      const int at = box.lo()[d] + static_cast<int>(i);
      const int left = at - box.lo()[d];
      const int right = box.hi()[d] - at;
      if (left < min_size || right + 1 < min_size) continue;
      // Prefer the hole most central in its dimension.
      const int quality = std::min(left, right + 1);
      if (quality > best.quality) best = Cut{d, at, quality};
    }
  }
  return best;
}

/// Otherwise cut at the strongest inflection of the signature Laplacian.
inline Cut find_inflection(const Signatures& sigs, const Box& box, int min_size) {
  Cut best;
  for (int d = 0; d < kDim; ++d) {
    const auto& sig = sigs[static_cast<std::size_t>(d)];
    const int n = static_cast<int>(sig.size());
    // Second derivative of the signature; a sign change with large magnitude
    // marks the edge of a tag cluster.
    for (int i = 1; i + 2 < n; ++i) {
      const int d2a = sig[static_cast<std::size_t>(i - 1)] - 2 * sig[static_cast<std::size_t>(i)] +
                      sig[static_cast<std::size_t>(i + 1)];
      const int d2b = sig[static_cast<std::size_t>(i)] - 2 * sig[static_cast<std::size_t>(i + 1)] +
                      sig[static_cast<std::size_t>(i + 2)];
      if (static_cast<long>(d2a) * d2b >= 0) continue;
      const int strength = std::abs(d2a - d2b);
      const int at = box.lo()[d] + i + 1;
      const int left = at - box.lo()[d];
      const int right = box.hi()[d] - at;
      if (left < min_size || right + 1 < min_size) continue;
      if (strength > best.quality) best = Cut{d, at, strength};
    }
  }
  return best;
}

/// Fallback: bisect the longest splittable dimension.
inline Cut find_bisection(const Box& box, int min_size) {
  Cut best;
  for (int d = 0; d < kDim; ++d) {
    const int len = box.size()[d];
    if (len < 2 * min_size) continue;
    if (best.dim < 0 || len > box.size()[best.dim]) {
      best = Cut{d, box.lo()[d] + len / 2, len};
    }
  }
  return best;
}

/// Clusters the non-empty `tags`, all inside `region`, appending boxes to
/// `out` in recursion order. `scratch` holds at least the sum of `region`'s
/// edge lengths; each node overwrites it before recursing, so one buffer
/// serves the whole recursion. `tags` is reordered in place.
inline void cluster(std::span<IntVect> tags, const Box& region, const BrConfig& config,
                    std::vector<int>& scratch, std::vector<Box>& out) {
  // One pass over the tags: signatures of the whole region, from which the
  // tight bounding box is each signature's first and last non-zero plane.
  std::array<std::span<int>, kDim> planes;
  std::size_t offset = 0;
  for (int d = 0; d < kDim; ++d) {
    const auto len = static_cast<std::size_t>(region.size()[d]);
    planes[static_cast<std::size_t>(d)] = std::span<int>(scratch).subspan(offset, len);
    offset += len;
  }
  std::fill_n(scratch.begin(), offset, 0);
  for (const IntVect& t : tags) {
    for (int d = 0; d < kDim; ++d) {
      ++planes[static_cast<std::size_t>(d)][static_cast<std::size_t>(t[d] - region.lo()[d])];
    }
  }
  IntVect lo, hi;
  Signatures sigs;
  for (int d = 0; d < kDim; ++d) {
    const std::span<int> plane = planes[static_cast<std::size_t>(d)];
    std::size_t first = 0, last = plane.size() - 1;
    while (plane[first] == 0) ++first;
    while (plane[last] == 0) --last;
    lo[d] = region.lo()[d] + static_cast<int>(first);
    hi[d] = region.lo()[d] + static_cast<int>(last);
    sigs[static_cast<std::size_t>(d)] = plane.subspan(first, last - first + 1);
  }
  const Box bb(lo, hi);

  const double fill = static_cast<double>(tags.size()) /
                      static_cast<double>(bb.num_cells());
  const bool small_enough = bb.size()[bb.longest_dim()] <= config.max_box_size;
  if (small_enough && fill >= config.fill_ratio) {
    out.push_back(bb);
    return;
  }
  // Cannot split further -> accept regardless of fill.
  const bool splittable = bb.size()[bb.longest_dim()] >= 2 * config.min_box_size;
  if (!splittable) {
    out.push_back(bb);
    return;
  }

  Cut cut = find_hole(sigs, bb, config.min_box_size);
  if (cut.dim < 0) cut = find_inflection(sigs, bb, config.min_box_size);
  if (cut.dim < 0) cut = find_bisection(bb, config.min_box_size);
  if (cut.dim < 0) {
    out.push_back(bb);  // genuinely unsplittable
    return;
  }

  // Every cut lies strictly inside the tight bounding box, whose first and
  // last planes hold tags, so both sides keep at least one tag and the
  // recursion shrinks.
  const auto mid = std::partition(tags.begin(), tags.end(),
                                  [&](const IntVect& t) { return t[cut.dim] < cut.at; });
  const auto nleft = static_cast<std::size_t>(mid - tags.begin());
  XL_CHECK(nleft > 0 && nleft < tags.size(), "cut left one side without tags");
  Box upper = bb;
  const Box lower = upper.chop(cut.dim, cut.at);
  cluster(tags.first(nleft), lower, config, scratch, out);
  cluster(tags.subspan(nleft), upper, config, scratch, out);
}

}  // namespace br_detail

inline std::vector<Box> berger_rigoutsos(const std::vector<IntVect>& tags,
                                         const Box& domain, const BrConfig& config) {
  XL_REQUIRE(config.fill_ratio > 0.0 && config.fill_ratio <= 1.0,
             "fill ratio must be in (0,1]");
  XL_REQUIRE(config.min_box_size >= 1, "min box size must be positive");
  std::vector<IntVect> inside;
  inside.reserve(tags.size());
  for (const IntVect& t : tags) {
    if (domain.contains(t)) inside.push_back(t);
  }
  if (inside.empty()) return {};
  if (config.max_box_size == 1 && config.min_box_size == 1) {
    // Every leaf of the recursion is then one tagged cell, so the result is
    // the distinct tags as unit boxes (in another order than the recursion
    // would emit them).
    std::sort(inside.begin(), inside.end(),
              [](const IntVect& a, const IntVect& b) { return a.v < b.v; });
    inside.erase(std::unique(inside.begin(), inside.end()), inside.end());
    std::vector<Box> unit;
    unit.reserve(inside.size());
    for (const IntVect& t : inside) unit.emplace_back(t, t);
    return unit;
  }
  std::vector<Box> out;
  const IntVect dsize = domain.size();
  std::vector<int> scratch(static_cast<std::size_t>(dsize[0]) + static_cast<std::size_t>(dsize[1]) +
                           static_cast<std::size_t>(dsize[2]));
  br_detail::cluster(inside, domain, config, scratch, out);
  // Guarantee max_box_size: the fill-ratio early-accept can return oversized
  // boxes only when they were unsplittable, but decompose() enforces the cap.
  std::vector<Box> sized;
  sized.reserve(out.size());
  for (const Box& b : out) {
    if (b.size()[b.longest_dim()] <= config.max_box_size) {
      sized.push_back(b);
      continue;
    }
    const std::vector<Box> pieces = mesh::decompose(b, config.max_box_size);
    sized.insert(sized.end(), pieces.begin(), pieces.end());
  }
  return sized;
}

}  // namespace xl::seed
