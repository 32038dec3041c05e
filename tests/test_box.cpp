// Box calculus tests: the algebra every other module builds on. Includes
// parameterized property sweeps over sizes and refinement ratios.
#include <cstdint>
#include <gtest/gtest.h>

#include <set>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "mesh/box.hpp"

namespace xl::mesh {
namespace {

TEST(IntVect, ComponentwiseOps) {
  const IntVect a{1, 2, 3}, b{3, 2, 1};
  EXPECT_EQ(a + b, IntVect(4, 4, 4));
  EXPECT_EQ(a - b, IntVect(-2, 0, 2));
  EXPECT_EQ(a * 2, IntVect(2, 4, 6));
  EXPECT_EQ(a.min(b), IntVect(1, 2, 1));
  EXPECT_EQ(a.max(b), IntVect(3, 2, 3));
  EXPECT_TRUE(a.all_le(IntVect(1, 2, 3)));
  EXPECT_FALSE(a.all_lt(IntVect(2, 3, 3)));
  EXPECT_EQ(a.product(), 6);
}

TEST(IntVect, CoarsenRoundsTowardMinusInfinity) {
  EXPECT_EQ(IntVect(-1, -2, -4).coarsen(IntVect::uniform(2)), IntVect(-1, -1, -2));
  EXPECT_EQ(IntVect(3, 4, 5).coarsen(IntVect::uniform(2)), IntVect(1, 2, 2));
  EXPECT_EQ(IntVect(-5, 0, 7).coarsen(IntVect::uniform(4)), IntVect(-2, 0, 1));
}

TEST(IntVect, RefineInvertsCoarsenOnAlignedPoints) {
  const IntVect p{-8, 4, 12};
  EXPECT_EQ(p.coarsen(IntVect::uniform(4)).refine(IntVect::uniform(4)), p);
}

TEST(Box, EmptyBoxBehaviour) {
  const Box e;
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(e.num_cells(), 0);
  EXPECT_FALSE(e.contains(IntVect::zero()));
  EXPECT_TRUE((e & Box::cube({0, 0, 0}, 4)).empty());
  // Inverted construction canonicalizes to empty.
  EXPECT_TRUE(Box({5, 0, 0}, {2, 9, 9}).empty());
}

TEST(Box, SizeAndContains) {
  const Box b({1, 2, 3}, {4, 5, 6});
  EXPECT_EQ(b.size(), IntVect(4, 4, 4));
  EXPECT_EQ(b.num_cells(), 64);
  EXPECT_TRUE(b.contains(IntVect(1, 2, 3)));
  EXPECT_TRUE(b.contains(IntVect(4, 5, 6)));
  EXPECT_FALSE(b.contains(IntVect(0, 2, 3)));
  EXPECT_TRUE(b.contains(Box({2, 3, 4}, {3, 4, 5})));
  EXPECT_FALSE(b.contains(Box({2, 3, 4}, {9, 4, 5})));
}

TEST(Box, IntersectionCommutesAndClips) {
  const Box a({0, 0, 0}, {7, 7, 7});
  const Box b({4, -2, 5}, {12, 3, 20});
  EXPECT_EQ(a & b, b & a);
  EXPECT_EQ(a & b, Box({4, 0, 5}, {7, 3, 7}));
  EXPECT_TRUE(a.intersects(b));
  EXPECT_FALSE(a.intersects(Box({8, 0, 0}, {9, 7, 7})));
}

TEST(Box, GrowShrinkShift) {
  const Box b = Box::cube({0, 0, 0}, 4);
  EXPECT_EQ(b.grow(2), Box({-2, -2, -2}, {5, 5, 5}));
  EXPECT_EQ(b.grow(2).grow(-2), b);
  EXPECT_TRUE(b.grow(-2).empty());
  EXPECT_EQ(b.shift({1, 0, -1}), Box({1, 0, -1}, {4, 3, 2}));
}

TEST(Box, RefineCoarsenVolumeRelation) {
  const Box b({-2, 0, 1}, {3, 5, 4});
  const Box r = b.refine(2);
  EXPECT_EQ(r.num_cells(), b.num_cells() * 8);
  EXPECT_EQ(r.coarsen(2), b);
}

TEST(Box, CoarsenCoversAllFineCells) {
  const Box fine({-3, 1, 5}, {6, 9, 11});
  const Box coarse = fine.coarsen(4);
  for (BoxIterator it(fine); it.ok(); ++it) {
    EXPECT_TRUE(coarse.contains((*it).coarsen(IntVect::uniform(4))));
  }
}

TEST(Box, ChopSplitsExactly) {
  Box b({0, 0, 0}, {9, 9, 9});
  const Box lower = b.chop(0, 4);
  EXPECT_EQ(lower, Box({0, 0, 0}, {3, 9, 9}));
  EXPECT_EQ(b, Box({4, 0, 0}, {9, 9, 9}));
  EXPECT_EQ(lower.num_cells() + b.num_cells(), 1000);
  EXPECT_FALSE(lower.intersects(b));
}

TEST(Box, ChopRejectsBoundaryPlanes) {
  Box b({0, 0, 0}, {9, 9, 9});
  EXPECT_THROW(b.chop(0, 0), ContractError);
  EXPECT_THROW(b.chop(0, 11), ContractError);
  EXPECT_THROW(b.chop(3, 5), ContractError);
}

TEST(Box, SubtractProducesDisjointTiling) {
  const Box a({0, 0, 0}, {9, 9, 9});
  const Box cut({3, 3, 3}, {6, 6, 6});
  std::vector<Box> rest;
  a.subtract(cut, rest);
  std::int64_t cells = 0;
  for (const Box& r : rest) {
    cells += r.num_cells();
    EXPECT_FALSE(r.intersects(cut));
    EXPECT_TRUE(a.contains(r));
    for (const Box& other : rest) {
      if (&r != &other) {
        EXPECT_FALSE(r.intersects(other));
      }
    }
  }
  EXPECT_EQ(cells, a.num_cells() - cut.num_cells());
}

TEST(Box, SubtractDisjointReturnsSelf) {
  const Box a = Box::cube({0, 0, 0}, 4);
  std::vector<Box> rest;
  a.subtract(Box::cube({10, 10, 10}, 4), rest);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0], a);
}

TEST(Box, SubtractFullCoverReturnsNothing) {
  const Box a = Box::cube({1, 1, 1}, 3);
  std::vector<Box> rest;
  a.subtract(a.grow(1), rest);
  EXPECT_TRUE(rest.empty());
}

TEST(Box, IndexOfIsDenseFortranOrder) {
  const Box b({2, 3, 4}, {4, 5, 6});
  std::set<std::int64_t> seen;
  std::int64_t expected = 0;
  for (BoxIterator it(b); it.ok(); ++it) {
    EXPECT_EQ(b.index_of(*it), expected++);  // iterator is Fortran-ordered too
    seen.insert(b.index_of(*it));
  }
  EXPECT_EQ(static_cast<std::int64_t>(seen.size()), b.num_cells());
  EXPECT_THROW(b.index_of({0, 0, 0}), ContractError);
}

TEST(BoxIterator, CountsCellsAndHandlesEmpty) {
  int n = 0;
  for (BoxIterator it(Box::cube({-1, -1, -1}, 3)); it.ok(); ++it) ++n;
  EXPECT_EQ(n, 27);
  int m = 0;
  for (BoxIterator it{Box()}; it.ok(); ++it) ++m;
  EXPECT_EQ(m, 0);
}

TEST(Box, LongestDim) {
  EXPECT_EQ(Box({0, 0, 0}, {1, 5, 3}).longest_dim(), 1);
  EXPECT_EQ(Box({0, 0, 0}, {5, 5, 3}).longest_dim(), 0);  // tie -> lowest dim
}

// ---------------------------------------------------------------------------
// Property sweep: refine/coarsen/subtract invariants over random boxes.
class BoxPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(BoxPropertyTest, RandomizedAlgebraInvariants) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 50; ++trial) {
    const IntVect lo{static_cast<int>(rng.uniform_int(-20, 20)),
                     static_cast<int>(rng.uniform_int(-20, 20)),
                     static_cast<int>(rng.uniform_int(-20, 20))};
    const IntVect sz{static_cast<int>(rng.uniform_int(1, 12)),
                     static_cast<int>(rng.uniform_int(1, 12)),
                     static_cast<int>(rng.uniform_int(1, 12))};
    const Box a(lo, lo + sz - 1);
    const int ratio = GetParam();

    // refine then coarsen is identity.
    EXPECT_EQ(a.refine(ratio).coarsen(ratio), a);
    // coarsen covers: a is contained in coarsen(a).refine.
    EXPECT_TRUE(a.coarsen(ratio).refine(ratio).contains(a));
    const Box b = a.shift({static_cast<int>(rng.uniform_int(-6, 6)), 0, 1});
    // intersection is contained in both.
    const Box i = a & b;
    if (!i.empty()) {
      EXPECT_TRUE(a.contains(i));
      EXPECT_TRUE(b.contains(i));
    }
    // subtract then total cells balance.
    std::vector<Box> rest;
    a.subtract(b, rest);
    std::int64_t cells = 0;
    for (const Box& r : rest) cells += r.num_cells();
    EXPECT_EQ(cells, a.num_cells() - i.num_cells());
  }
}

INSTANTIATE_TEST_SUITE_P(Ratios, BoxPropertyTest, ::testing::Values(2, 3, 4));

}  // namespace
}  // namespace xl::mesh
