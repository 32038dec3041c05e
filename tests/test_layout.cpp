// Tests for domain decomposition, load balancing and layout accounting.
#include <algorithm>
#include <array>
#include <cstdint>
#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <set>
#include <utility>

#include "common/contract.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "mesh/key_sort.hpp"
#include "mesh/layout.hpp"

namespace xl::mesh {
namespace {

TEST(Decompose, TilesDomainExactly) {
  const Box domain = Box::domain({64, 32, 16});
  const auto boxes = decompose(domain, 16);
  std::int64_t cells = 0;
  for (const Box& b : boxes) {
    cells += b.num_cells();
    EXPECT_TRUE(domain.contains(b));
    for (int d = 0; d < kDim; ++d) EXPECT_LE(b.size()[d], 16);
  }
  EXPECT_EQ(cells, domain.num_cells());
  EXPECT_EQ(boxes.size(), 4u * 2u * 1u);
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    for (std::size_t j = i + 1; j < boxes.size(); ++j) {
      EXPECT_FALSE(boxes[i].intersects(boxes[j]));
    }
  }
}

TEST(Decompose, NonMultipleSizesStillCover) {
  const Box domain = Box::domain({10, 7, 5});
  const auto boxes = decompose(domain, 4);
  std::int64_t cells = 0;
  for (const Box& b : boxes) cells += b.num_cells();
  EXPECT_EQ(cells, domain.num_cells());
}

TEST(Decompose, EmptyAndSingle) {
  EXPECT_TRUE(decompose(Box(), 8).empty());
  const auto one = decompose(Box::cube({0, 0, 0}, 4), 8);
  ASSERT_EQ(one.size(), 1u);
}

TEST(MortonKey, OrdersLocally) {
  // Z-order: nearby points get nearby keys; key is strictly monotone along
  // the diagonal.
  std::uint64_t prev = 0;
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t k = morton_key({i, i, i});
    if (i > 0) {
      EXPECT_GT(k, prev);
    }
    prev = k;
  }
  EXPECT_NE(morton_key({1, 0, 0}), morton_key({0, 1, 0}));
  // Negative coordinates remain valid (biased).
  EXPECT_LT(morton_key({-4, -4, -4}), morton_key({4, 4, 4}));
}

class BalanceTest : public ::testing::TestWithParam<BalanceMethod> {};

TEST_P(BalanceTest, AssignsAllBoxesToValidRanks) {
  const auto boxes = decompose(Box::domain({32, 32, 32}), 8);
  const BoxLayout layout = balance(boxes, 7, GetParam());
  EXPECT_EQ(layout.num_boxes(), boxes.size());
  EXPECT_EQ(layout.num_ranks(), 7);
  for (std::size_t i = 0; i < layout.num_boxes(); ++i) {
    EXPECT_GE(layout.rank_of(i), 0);
    EXPECT_LT(layout.rank_of(i), 7);
  }
  EXPECT_EQ(layout.total_cells(), 32 * 32 * 32);
}

TEST_P(BalanceTest, ReasonableImbalance) {
  const auto boxes = decompose(Box::domain({64, 64, 64}), 8);  // 512 equal boxes
  const BoxLayout layout = balance(boxes, 8, GetParam());
  const auto cells = layout.cells_per_rank();
  EXPECT_EQ(std::accumulate(cells.begin(), cells.end(), std::int64_t{0}),
            layout.total_cells());
  // Max over mean: equal boxes and a divisible count.
  const double mean = static_cast<double>(layout.total_cells()) / 8.0;
  const double imbalance =
      static_cast<double>(*std::max_element(cells.begin(), cells.end())) / mean;
  EXPECT_GE(imbalance, 1.0);
  EXPECT_LE(imbalance, 1.05);
}

TEST_P(BalanceTest, MoreRanksThanBoxes) {
  const auto boxes = decompose(Box::domain({16, 16, 16}), 16);  // 1 box
  const BoxLayout layout = balance(boxes, 4, GetParam());
  EXPECT_EQ(layout.num_boxes(), 1u);
  const auto cells = layout.cells_per_rank();
  int nonzero = 0;
  for (auto c : cells) nonzero += c > 0;
  EXPECT_EQ(nonzero, 1);
}

TEST_P(BalanceTest, AssignmentIndependentOfInputOrder) {
  // 512 equal boxes over 7 ranks, shuffled: the Morton key of each low corner,
  // not the input order, decides the mapping.
  const auto boxes = decompose(Box::domain({64, 64, 64}), 8);
  std::vector<Box> shuffled = boxes;
  Rng rng(19);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  ASSERT_NE(shuffled, boxes);
  using Corners = std::pair<std::array<int, kDim>, std::array<int, kDim>>;
  auto assignment = [](const BoxLayout& layout) {
    std::map<Corners, int> rank_of_box;
    for (std::size_t i = 0; i < layout.num_boxes(); ++i) {
      rank_of_box[{layout.box(i).lo().v, layout.box(i).hi().v}] = layout.rank_of(i);
    }
    return rank_of_box;
  };
  const auto expected = assignment(balance(boxes, 7, GetParam()));
  EXPECT_EQ(expected.size(), boxes.size());
  EXPECT_EQ(assignment(balance(shuffled, 7, GetParam())), expected);
}

INSTANTIATE_TEST_SUITE_P(Methods, BalanceTest,
                         ::testing::Values(BalanceMethod::MortonRoundRobin));

// --- The key sort and the Morton balance against std::sort ------------------

/// Sizes on both sides of the radix cutoff.
const std::vector<std::size_t> kSortSizes{
    0, 1, 2, 100, kRadixSortMinKeys - 1, kRadixSortMinKeys, kRadixSortMinKeys + 1, 5000};

/// `n` keys: full 64-bit words, or few distinct values that share most bytes.
std::vector<std::uint64_t> random_keys(std::size_t n, bool repeats, Rng& rng) {
  std::vector<std::uint64_t> keys(n);
  for (std::uint64_t& k : keys) {
    k = repeats ? 0x5A00000000000000ull | (rng.next_u64() % 37) << 20 : rng.next_u64();
  }
  return keys;
}

TEST(KeySort, SortKeysMatchesStdSort) {
  Rng rng(71);
  for (const std::size_t n : kSortSizes) {
    for (const bool repeats : {false, true}) {
      std::vector<std::uint64_t> keys = random_keys(n, repeats, rng);
      std::vector<std::uint64_t> expected = keys;
      std::sort(expected.begin(), expected.end());
      sort_keys(keys);
      EXPECT_EQ(keys, expected) << n << " keys, repeats " << repeats;
    }
  }
  std::vector<std::uint64_t> same(3000, 42);  // no byte varies: no pass runs
  sort_keys(same);
  EXPECT_EQ(same, std::vector<std::uint64_t>(3000, 42));
}

TEST(KeySort, EqualKeysKeepIndexOrderOnBothSidesOfTheCutoff) {
  Rng rng(72);
  for (const std::size_t n : kSortSizes) {
    for (const bool repeats : {false, true}) {
      const std::vector<std::uint64_t> keys = random_keys(n, repeats, rng);
      std::vector<std::size_t> expected(n);
      std::iota(expected.begin(), expected.end(), std::size_t{0});
      std::stable_sort(expected.begin(), expected.end(),
                       [&](std::size_t a, std::size_t b) { return keys[a] < keys[b]; });
      std::vector<KeyedIndex> keyed(n);
      for (std::size_t i = 0; i < n; ++i) keyed[i] = {keys[i], i};
      sort_keys(keyed);
      std::vector<std::size_t> order(n);
      for (std::size_t k = 0; k < n; ++k) order[k] = keyed[k].second;
      EXPECT_EQ(order, expected) << n << " keys, repeats " << repeats;
    }
  }
}

/// balance() as it was before the key sort: std::sort on (Morton key of the
/// low corner, index) pairs, then the same walk.
BoxLayout reference_balance(const std::vector<Box>& boxes, int nranks) {
  std::vector<std::pair<std::uint64_t, std::size_t>> keyed(boxes.size());
  for (std::size_t i = 0; i < boxes.size(); ++i) keyed[i] = {morton_key(boxes[i].lo()), i};
  std::sort(keyed.begin(), keyed.end());
  std::int64_t total = 0;
  for (const Box& b : boxes) total += b.num_cells();
  const double share = static_cast<double>(total) / static_cast<double>(nranks);
  std::vector<Box> ordered;
  std::vector<int> ranks;
  std::int64_t acc = 0;
  for (const auto& [key, i] : keyed) {
    ranks.push_back(std::min(nranks - 1, f2i<int>(static_cast<double>(acc) / share)));
    acc += boxes[i].num_cells();
    ordered.push_back(boxes[i]);
  }
  return BoxLayout(std::move(ordered), std::move(ranks), nranks);
}

/// `n` disjoint boxes in shuffled order, with negative corners (as
/// ghost-adjacent boxes have): one to two cells a side at distinct points of
/// a lattice of spacing 2.
std::vector<Box> shuffled_disjoint_boxes(std::size_t n, Rng& rng) {
  std::vector<Box> boxes;
  std::set<std::array<int, kDim>> used;
  while (boxes.size() < n) {
    const std::array<int, kDim> p{static_cast<int>(rng.uniform_int(-60, 40)),
                                  static_cast<int>(rng.uniform_int(-30, 10)),
                                  static_cast<int>(rng.uniform_int(-45, 5))};
    if (!used.insert(p).second) continue;
    const IntVect lo{2 * p[0], 2 * p[1], 2 * p[2]};
    const IntVect extent{static_cast<int>(rng.uniform_int(0, 1)),
                         static_cast<int>(rng.uniform_int(0, 1)),
                         static_cast<int>(rng.uniform_int(0, 1))};
    boxes.emplace_back(lo, lo + extent);
  }
  return boxes;
}

TEST(KeySort, BalanceMatchesTheStdSortOracle) {
  Rng rng(73);
  for (const std::size_t n : kSortSizes) {
    const std::vector<Box> boxes = shuffled_disjoint_boxes(n, rng);
    for (const int nranks : {1, 7, 64}) {
      const BoxLayout got = balance(boxes, nranks);
      const BoxLayout want = reference_balance(boxes, nranks);
      ASSERT_EQ(got.boxes(), want.boxes()) << n << " boxes over " << nranks << " ranks";
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got.rank_of(i), want.rank_of(i)) << "box " << i << " of " << n;
      }
    }
  }
}

TEST(BoxLayout, BoxesOfRankPartition) {
  const auto boxes = decompose(Box::domain({32, 16, 16}), 8);
  const BoxLayout layout = balance(boxes, 3);
  // Every box is on exactly one rank, and the per-rank totals count its
  // cells there once.
  std::vector<std::int64_t> cells(3, 0);
  for (std::size_t i = 0; i < layout.num_boxes(); ++i) {
    cells[static_cast<std::size_t>(layout.rank_of(i))] += layout.box(i).num_cells();
  }
  EXPECT_EQ(cells, layout.cells_per_rank());
  EXPECT_EQ(layout.total_cells(), Box::domain({32, 16, 16}).num_cells());
}

TEST(BoxLayout, RejectsOverlapsAndBadRanks) {
  std::vector<Box> overlapping{Box::cube({0, 0, 0}, 4), Box::cube({2, 2, 2}, 4)};
  EXPECT_THROW(BoxLayout(overlapping, {0, 0}, 1), ContractError);
  std::vector<Box> ok{Box::cube({0, 0, 0}, 2)};
  EXPECT_THROW(BoxLayout(ok, {5}, 2), ContractError);
  EXPECT_THROW(BoxLayout(ok, {0, 1}, 2), ContractError);  // size mismatch
}

TEST(BoxLayout, EmptyLayoutStats) {
  const BoxLayout layout({}, {}, 4);
  EXPECT_EQ(layout.total_cells(), 0);
  EXPECT_EQ(layout.cells_per_rank(), std::vector<std::int64_t>(4, 0));
}

}  // namespace
}  // namespace xl::mesh
