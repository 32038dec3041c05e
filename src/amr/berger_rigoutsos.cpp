#include "amr/berger_rigoutsos.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <span>

#include "common/error.hpp"
#include "mesh/key_sort.hpp"
#include "mesh/layout.hpp"

namespace xl::amr {

using mesh::Box;
using mesh::IntVect;
using mesh::kDim;

namespace {

/// Tag count per plane of one node's bounding box, one span per dimension.
using Signatures = std::array<std::span<const int>, kDim>;

struct Cut {
  int dim = -1;
  int at = 0;       ///< absolute coordinate; cells < at go left.
  int quality = -1; ///< larger is better.
};

/// Look for a zero plane (hole) in any signature — the best possible cut.
Cut find_hole(const Signatures& sigs, const Box& box, int min_size) {
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
Cut find_inflection(const Signatures& sigs, const Box& box, int min_size) {
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
Cut find_bisection(const Box& box, int min_size) {
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

/// Offsets into the signature arena of one node's per-plane tag counts, one
/// per dimension: dimension d's counts cover the node region's
/// size()[d] planes from its lo()[d]. Offsets, not spans, because the arena
/// grows, and may reallocate, while a node's counts are still in use.
using SignatureOffsets = std::array<std::size_t, kDim>;

/// Clusters the non-empty `tags`, all inside `region`, appending boxes to
/// `out` in recursion order. `sig` holds the tags' signatures over `region`.
/// A node hands each child its signatures: along the cut, the matching
/// sub-range of its own; along the other two dimensions, the smaller child's
/// counted from its tags and the larger child's as the node's minus the
/// smaller's. They go on `arena` from `top`, the end of the counts still in
/// use, before the two recursive calls; the calls get the new end by value,
/// so returning from them pops the counts. The arena only grows. The counts
/// are exact, so every node sees the same signatures as a full recount would
/// give.
///
/// A node partitions its tags into `spare` (the same length), the left side
/// from the front and the right side from the back, with no branch on the
/// side; its children then swap the roles of the two buffers. Nothing in the
/// result depends on the order of the tags.
void cluster(std::span<IntVect> tags, std::span<IntVect> spare, const Box& region,
             const SignatureOffsets& sig, const BrConfig& config, std::vector<int>& arena,
             std::size_t top, std::vector<Box>& out) {
  // The tight bounding box is each signature's first and last non-zero plane.
  const IntVect rsize = region.size();
  IntVect lo, hi;
  SignatureOffsets tight{};
  for (int d = 0; d < kDim; ++d) {
    const auto dd = static_cast<std::size_t>(d);
    const int* plane = arena.data() + sig[dd];
    int first = 0, last = rsize[d] - 1;
    while (plane[first] == 0) ++first;
    while (plane[last] == 0) --last;
    lo[d] = region.lo()[d] + first;
    hi[d] = region.lo()[d] + last;
    tight[dd] = sig[dd] + static_cast<std::size_t>(first);
  }
  const Box bb(lo, hi);
  const IntVect size = hi - lo + 1;

  const double fill = static_cast<double>(tags.size()) /
                      static_cast<double>(bb.num_cells());
  const bool small_enough = size[bb.longest_dim()] <= config.max_box_size;
  if (small_enough && fill >= config.fill_ratio) {
    out.push_back(bb);
    return;
  }
  // Cannot split further -> accept regardless of fill.
  const bool splittable = size[bb.longest_dim()] >= 2 * config.min_box_size;
  if (!splittable) {
    out.push_back(bb);
    return;
  }

  Signatures sigs;
  for (int d = 0; d < kDim; ++d) {
    const auto dd = static_cast<std::size_t>(d);
    sigs[dd] = std::span<const int>(arena.data() + tight[dd], static_cast<std::size_t>(size[d]));
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
  std::size_t nleft = 0, rend = tags.size();
  for (const IntVect& t : tags) {
    const bool goes_left = t[cut.dim] < cut.at;
    spare[nleft] = t;
    spare[rend - 1] = t;
    nleft += goes_left;
    rend -= !goes_left;
  }
  XL_CHECK(nleft > 0 && nleft < tags.size(), "cut left one side without tags");

  // Along the cut each child takes its sub-range of this node's signature;
  // along the other two dimensions the smaller child is counted from its tags
  // and the larger one is this node's counts minus the smaller's.
  const int c = cut.dim;
  SignatureOffsets left = tight, right = tight;
  right[static_cast<std::size_t>(c)] += static_cast<std::size_t>(cut.at - lo[c]);
  const bool count_left = nleft <= tags.size() - nleft;
  SignatureOffsets& smaller = count_left ? left : right;
  SignatureOffsets& larger = count_left ? right : left;
  const std::array<int, 2> across{(c + 1) % kDim, (c + 2) % kDim};
  for (const int d : across) {
    const auto len = static_cast<std::size_t>(size[d]);
    smaller[static_cast<std::size_t>(d)] = top;
    larger[static_cast<std::size_t>(d)] = top + len;
    top += 2 * len;
  }
  if (arena.size() < top) arena.resize(std::max(top, 2 * arena.size()));
  const auto [a, b] = across;
  int* const count_a = arena.data() + smaller[static_cast<std::size_t>(a)];
  int* const count_b = arena.data() + smaller[static_cast<std::size_t>(b)];
  std::fill_n(count_a, size[a], 0);
  std::fill_n(count_b, size[b], 0);
  const int lo_a = lo[a], lo_b = lo[b];
  for (const IntVect& t : count_left ? spare.first(nleft) : spare.subspan(nleft)) {
    ++count_a[t[a] - lo_a];
    ++count_b[t[b] - lo_b];
  }
  for (const int d : across) {
    const auto ud = static_cast<std::size_t>(d);
    const int* const node = arena.data() + tight[ud];
    const int* const small = arena.data() + smaller[ud];
    int* const large = arena.data() + larger[ud];
    for (int i = 0; i < size[d]; ++i) large[i] = node[i] - small[i];
  }

  Box upper = bb;
  const Box lower = upper.chop(cut.dim, cut.at);
  cluster(spare.first(nleft), tags.first(nleft), lower, left, config, arena, top, out);
  cluster(spare.subspan(nleft), tags.subspan(nleft), upper, right, config, arena, top, out);
}

/// Bits per axis of a packed unit-cap tag key.
constexpr int kPackBits = 21;

/// The distinct in-domain `tags` as unit boxes, in IntVect::v's lexicographic
/// order: each tag packs into (x-lo)<<42 | (y-lo)<<21 | (z-lo), whose order
/// is that order, and the keys are sorted and deduplicated. Every domain
/// extent must be below 2^kPackBits.
std::vector<Box> unit_boxes(const std::vector<IntVect>& tags, const Box& domain) {
  const IntVect lo = domain.lo();
  std::vector<std::uint64_t> keys;
  keys.reserve(tags.size());
  for (const IntVect& t : tags) {
    if (!domain.contains(t)) continue;
    keys.push_back(static_cast<std::uint64_t>(t[0] - lo[0]) << (2 * kPackBits) |
                   static_cast<std::uint64_t>(t[1] - lo[1]) << kPackBits |
                   static_cast<std::uint64_t>(t[2] - lo[2]));
  }
  mesh::sort_keys(keys);
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  constexpr std::uint64_t kMask = (std::uint64_t{1} << kPackBits) - 1;
  std::vector<Box> unit;
  unit.reserve(keys.size());
  for (const std::uint64_t k : keys) {
    const IntVect t{lo[0] + static_cast<int>(k >> (2 * kPackBits)),
                    lo[1] + static_cast<int>((k >> kPackBits) & kMask),
                    lo[2] + static_cast<int>(k & kMask)};
    unit.emplace_back(t, t);
  }
  return unit;
}

}  // namespace

std::vector<Box> berger_rigoutsos(const std::vector<IntVect>& tags, const Box& domain,
                                  const BrConfig& config) {
  XL_REQUIRE(config.fill_ratio > 0.0 && config.fill_ratio <= 1.0,
             "fill ratio must be in (0,1]");
  XL_REQUIRE(config.min_box_size >= 1, "min box size must be positive");
  if (config.max_box_size == 1 && config.min_box_size == 1) {
    // Every leaf of the recursion is then one tagged cell, so the result is
    // the distinct tags as unit boxes (in another order than the recursion
    // would emit them).
    XL_REQUIRE(domain.size().all_lt(IntVect::uniform(1 << kPackBits)),
               "unit-cap Berger-Rigoutsos packs tags into 21 bits per axis: every "
               "domain extent must be below 2^21 cells");
    return unit_boxes(tags, domain);
  }
  // One allocation holds the in-domain tags and, after them, the spare
  // buffer the recursion partitions into.
  std::vector<IntVect> inside;
  inside.reserve(2 * tags.size());
  for (const IntVect& t : tags) {
    if (domain.contains(t)) inside.push_back(t);
  }
  const std::size_t n = inside.size();
  if (n == 0) return {};
  inside.resize(2 * n);
  // The root counts its tags once; every other node inherits its counts.
  // The arena starts at nine root signatures: the synthetic geometries push
  // at most five (policy-sized domains) to ten (Titan) beyond the root's, and
  // growing it costs small inputs more than their clustering.
  const IntVect dsize = domain.size();
  const SignatureOffsets root{0, static_cast<std::size_t>(dsize[0]),
                              static_cast<std::size_t>(dsize[0]) +
                                  static_cast<std::size_t>(dsize[1])};
  const std::size_t root_len = root[2] + static_cast<std::size_t>(dsize[2]);
  std::vector<int> arena(9 * root_len);
  for (std::size_t i = 0; i < n; ++i) {
    for (int d = 0; d < kDim; ++d) {
      ++arena[root[static_cast<std::size_t>(d)] +
              static_cast<std::size_t>(inside[i][d] - domain.lo()[d])];
    }
  }
  std::vector<Box> out;
  const std::span<IntVect> both(inside);
  cluster(both.first(n), both.subspan(n), domain, root, config, arena, root_len, out);
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

}  // namespace xl::amr
