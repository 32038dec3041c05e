#include "mesh/layout.hpp"

#include <algorithm>
#include <cstdint>

#include "common/contract.hpp"
#include "mesh/key_sort.hpp"

namespace xl::mesh {

BoxLayout::BoxLayout() {
  static const std::shared_ptr<const Data> empty = std::make_shared<const Data>();
  data_ = empty;
}

BoxLayout::BoxLayout(std::vector<Box> boxes, std::vector<int> ranks, int nranks) {
  XL_REQUIRE(boxes.size() == ranks.size(), "one rank per box");
  XL_REQUIRE(nranks > 0, "layout needs at least one rank");
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    XL_REQUIRE(!boxes[i].empty(), "layout contains an empty box");
    XL_REQUIRE(ranks[i] >= 0 && ranks[i] < nranks, "rank out of range");
  }
  // Disjointness is verified pairwise for small layouts (the ones tests and
  // in-process runs build by hand). Large layouts — the machine-scale
  // synthetic runs with 10^4..10^5 boxes — come from decompose() and
  // berger_rigoutsos(), which produce disjoint boxes by construction, and an
  // O(n^2) check would dominate the experiment wall time.
  if (boxes.size() <= kVerifyDisjointLimit) {
    for (std::size_t i = 0; i < boxes.size(); ++i) {
      for (std::size_t j = i + 1; j < boxes.size(); ++j) {
        XL_REQUIRE(!boxes[i].intersects(boxes[j]), "layout boxes overlap");
      }
    }
  }
  auto data = std::make_shared<Data>();
  data->cells_per_rank.assign(static_cast<std::size_t>(nranks), 0);
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    data->total_cells += boxes[i].num_cells();
    data->cells_per_rank[static_cast<std::size_t>(ranks[i])] += boxes[i].num_cells();
  }
  data->boxes = std::move(boxes);
  data->ranks = std::move(ranks);
  data->nranks = nranks;
  data_ = std::move(data);
}

std::vector<Box> decompose(const Box& domain, int max_box_size) {
  XL_REQUIRE(max_box_size > 0, "max box size must be positive");
  std::vector<Box> out;
  if (domain.empty()) return out;
  std::vector<Box> work{domain};
  while (!work.empty()) {
    Box b = work.back();
    work.pop_back();
    const int dim = b.longest_dim();
    if (b.size()[dim] <= max_box_size) {
      out.push_back(b);
      continue;
    }
    // Cut at a multiple of max_box_size from the low side so most boxes end up
    // exactly max_box_size long (regular tiling).
    const int at = b.lo()[dim] + max_box_size;
    const Box lower = b.chop(dim, at);
    work.push_back(lower);
    work.push_back(b);
  }
  return out;
}

std::uint64_t morton_key(const IntVect& p) {
  auto spread = [](std::uint64_t x) {
    // Spread the low 21 bits of x so there are two zero bits between each.
    x &= 0x1FFFFF;
    x = (x | (x << 32)) & 0x1F00000000FFFFull;
    x = (x | (x << 16)) & 0x1F0000FF0000FFull;
    x = (x | (x << 8)) & 0x100F00F00F00F00Full;
    x = (x | (x << 4)) & 0x10C30C30C30C30C3ull;
    x = (x | (x << 2)) & 0x1249249249249249ull;
    return x;
  };
  // Offset so negative coordinates (ghost-adjacent boxes) still order sanely.
  const auto ux = spread(static_cast<std::uint64_t>(p[0] + kMortonBias));
  const auto uy = spread(static_cast<std::uint64_t>(p[1] + kMortonBias));
  const auto uz = spread(static_cast<std::uint64_t>(p[2] + kMortonBias));
  return ux | (uy << 1) | (uz << 2);
}

BoxLayout balance(std::vector<Box> boxes, int nranks, BalanceMethod) {
  XL_REQUIRE(nranks > 0, "need at least one rank");
  // Each key is computed once. Disjoint boxes have distinct low corners, hence
  // distinct keys, so the order does not depend on the order of `boxes`.
  std::vector<KeyedIndex> keyed(boxes.size());
  for (std::size_t i = 0; i < boxes.size(); ++i) keyed[i] = {morton_key(boxes[i].lo()), i};
  sort_keys(keyed);
  // Walk the Morton order accumulating cells; advance to the next rank once
  // the running share exceeds the ideal per-rank share.
  std::int64_t total = 0;
  for (const Box& b : boxes) total += b.num_cells();
  const double share = static_cast<double>(total) / static_cast<double>(nranks);

  std::vector<Box> ordered;
  std::vector<int> ranks;
  ordered.reserve(boxes.size());
  ranks.reserve(boxes.size());
  std::int64_t acc = 0;
  for (const KeyedIndex& k : keyed) {
    const Box& b = boxes[k.second];
    int rank = std::min(nranks - 1, f2i<int>(static_cast<double>(acc) / share));
    acc += b.num_cells();
    ordered.push_back(b);
    ranks.push_back(rank);
  }
  return BoxLayout(std::move(ordered), std::move(ranks), nranks);
}

}  // namespace xl::mesh
