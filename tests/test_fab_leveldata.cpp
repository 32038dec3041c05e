// Tests for Fab storage, pack/unpack wire format, and LevelData ghost
// exchange (including periodic wrapping) — the communication substrate of
// the AMR library.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "mesh/level_data.hpp"

namespace xl::mesh {
namespace {

double cell_value(const IntVect& p, int c) {
  return 100.0 * c + p[0] + 10.0 * p[1] + 0.01 * p[2];
}

TEST(Fab, IndexingAndComponents) {
  Fab f(Box::cube({1, 1, 1}, 3), 2, -1.0);
  EXPECT_EQ(f.cells(), 27);
  EXPECT_EQ(f.size(), 54u);
  EXPECT_EQ(f.bytes(), 54 * sizeof(double));
  for (BoxIterator it(f.box()); it.ok(); ++it) {
    EXPECT_DOUBLE_EQ(f(*it, 0), -1.0);
    f(*it, 1) = cell_value(*it, 1);
  }
  EXPECT_DOUBLE_EQ(f(IntVect(2, 3, 1), 1), cell_value({2, 3, 1}, 1));
  EXPECT_EQ(f.comp(0).size(), 27u);
  EXPECT_THROW(f.comp(2), ContractError);
}

TEST(Fab, CopyFromRestrictsToOverlapAndRegion) {
  Fab src(Box::cube({0, 0, 0}, 4), 1);
  for (BoxIterator it(src.box()); it.ok(); ++it) src(*it) = cell_value(*it, 0);
  Fab dst(Box::cube({2, 2, 2}, 4), 1, 0.0);
  dst.copy_from(src, Box::cube({2, 2, 2}, 2));  // only a 2^3 corner
  int copied = 0;
  for (BoxIterator it(dst.box()); it.ok(); ++it) {
    if (Box::cube({2, 2, 2}, 2).contains(*it)) {
      EXPECT_DOUBLE_EQ(dst(*it), cell_value(*it, 0));
      ++copied;
    } else {
      EXPECT_DOUBLE_EQ(dst(*it), 0.0);
    }
  }
  EXPECT_EQ(copied, 8);
}

TEST(Fab, PackUnpackRoundTrip) {
  Fab src(Box::cube({0, 0, 0}, 4), 3);
  for (int c = 0; c < 3; ++c) {
    for (BoxIterator it(src.box()); it.ok(); ++it) src(*it, c) = cell_value(*it, c);
  }
  const Box region({1, 0, 2}, {3, 3, 3});
  std::vector<double> wire(1, -1.0);  // stale contents are overwritten
  src.pack_into(region, wire);
  EXPECT_EQ(wire.size(),
            static_cast<std::size_t>((region & src.box()).num_cells()) * 3);

  Fab dst(src.box(), 3, 0.0);
  dst.unpack(region, wire);
  for (int c = 0; c < 3; ++c) {
    for (BoxIterator it(region & src.box()); it.ok(); ++it) {
      EXPECT_DOUBLE_EQ(dst(*it, c), src(*it, c));
    }
  }
}

TEST(Fab, UnpackRejectsWrongSize) {
  Fab f(Box::cube({0, 0, 0}, 2), 1);
  std::vector<double> tooShort(3, 0.0);
  EXPECT_THROW(f.unpack(f.box(), tooShort), ContractError);
}

TEST(Fab, ContractChecks) {
  EXPECT_THROW(Fab(Box(), 1), ContractError);
  EXPECT_THROW(Fab(Box::cube({0, 0, 0}, 2), 0), ContractError);
  EXPECT_THROW(Fab(Box::cube({0, 0, 0}, 2), -1), ContractError);
}

// Fab::row is the flat-traversal primitive of the kernel rewrites: one bounds
// check per row, then a raw pointer walk that must address exactly the cells
// operator() addresses — ghost rows and negative coordinates included.
TEST(Fab, RowMatchesPerCellAccessorIncludingGhosts) {
  // Ghosted box with a negative low corner, as AMR fabs have.
  const Box valid = Box::cube({0, 0, 0}, 4);
  Fab f(valid.grow(2), 2);
  for (BoxIterator it(f.box()); it.ok(); ++it) {
    for (int c = 0; c < f.ncomp(); ++c) f(*it, c) = cell_value(*it, c);
  }
  EXPECT_EQ(f.row_length(), 8u);  // rows span the ghosts: 4 + 2*2
  const int x0 = f.box().lo()[0];
  for (int c = 0; c < f.ncomp(); ++c) {
    for (int k = f.box().lo()[2]; k <= f.box().hi()[2]; ++k) {
      for (int j = f.box().lo()[1]; j <= f.box().hi()[1]; ++j) {
        const double* r = f.row(c, j, k);
        for (std::size_t i = 0; i < f.row_length(); ++i) {
          ASSERT_EQ(r[i], f(IntVect{x0 + static_cast<int>(i), j, k}, c))
              << "row mismatch at c=" << c << " j=" << j << " k=" << k
              << " i=" << i;
        }
      }
    }
  }
  // Writes through the row pointer land in the same cells.
  double* w = f.row(1, 0, 0);
  w[2] = 123.5;  // x = lo + 2 = 0
  EXPECT_EQ(f(IntVect{0, 0, 0}, 1), 123.5);
}

TEST(Fab, RowSubBoxOffsetAddressesTheSubRow) {
  const Box valid = Box::cube({0, 0, 0}, 6);
  Fab f(valid.grow(1), 1);
  for (BoxIterator it(f.box()); it.ok(); ++it) f(*it) = cell_value(*it, 0);
  // The documented sub-box idiom: row(...) + (sub.lo()[0] - box().lo()[0]).
  const Box sub({2, 1, 3}, {4, 4, 5});
  const int xoff = sub.lo()[0] - f.box().lo()[0];
  for_each_row(sub, [&](int j, int k) {
    const double* r = f.row(0, j, k) + xoff;
    for (int i = 0; i < sub.size()[0]; ++i) {
      ASSERT_EQ(r[i], f(IntVect{sub.lo()[0] + i, j, k}, 0));
    }
  });
}

TEST(Fab, RowOutsideBoxIsAContractViolation) {
  Fab f(Box::cube({0, 0, 0}, 4), 1);
  EXPECT_THROW(f.row(0, -1, 0), ContractError);  // j below the box
  EXPECT_THROW(f.row(0, 0, 4), ContractError);   // k past the box
  EXPECT_THROW(f.row(1, 0, 0), ContractError);   // component out of range
  EXPECT_NO_THROW(f.row(0, 3, 3));
}

// --- the copy walk against a per-cell reference -------------------------------
// copy_from, copy_from_shifted, pack_into and unpack share one stride walk;
// each must move exactly the cells a BoxIterator loop through operator()
// moves, for short and long rows, negative corners and regions that stick
// out of either box.

/// A fab over `box` whose every cell and component holds its own value.
Fab numbered(const Box& box, int ncomp, double base) {
  Fab f(box, ncomp);
  for (int c = 0; c < ncomp; ++c) {
    for (BoxIterator it(box); it.ok(); ++it) f(*it, c) = base + cell_value(*it, c);
  }
  return f;
}

/// dst(p) = src(p - shift) for p in `region` and both boxes, one cell at a time.
void copy_per_cell(const Fab& src, Fab& dst, const Box& region, const IntVect& shift) {
  for (int c = 0; c < dst.ncomp(); ++c) {
    for (BoxIterator it(dst.box() & region); it.ok(); ++it) {
      if (src.box().contains(*it - shift)) dst(*it, c) = src(*it - shift, c);
    }
  }
}

std::vector<double> values(const Fab& f) { return {f.flat().begin(), f.flat().end()}; }

TEST(FabCopy, StrideWalkMatchesPerCellReference) {
  for (const int ncomp : {1, 5}) {
    for (const int nx : {1, 2, 3, 4, 5, 6, 70}) {
      SCOPED_TRACE(testing::Message() << ncomp << " components, rows of " << nx);
      // Negative corners; the region sticks out of both boxes in y and z, and
      // its rows, clipped to both, hold nx cells.
      const Box dbox({-5, -4, -3}, {nx - 2, 2, 1});
      const Box sbox({-7, -6, -2}, {nx - 2, 0, 4});
      const Box region({-3, -5, -4}, {nx - 4, 1, 3});
      const Fab src = numbered(sbox, ncomp, 0.5);
      ASSERT_EQ((dbox & sbox & region).size()[0], nx);

      Fab got = numbered(dbox, ncomp, -1000.0);
      Fab want = got;
      got.copy_from(src, region);
      copy_per_cell(src, want, region, IntVect::zero());
      EXPECT_EQ(values(got), values(want)) << "copy_from";

      // Shifted copies: periodic images in every direction, partly missing.
      for (const IntVect& shift : {IntVect{nx + 1, 0, 0}, IntVect{-2, 5, 0}, IntVect{1, -3, -4}}) {
        ASSERT_FALSE((dbox & region & sbox.shift(shift)).empty()) << shift;
        got = numbered(dbox, ncomp, -1000.0);
        want = got;
        got.copy_from_shifted(src, region, shift);
        copy_per_cell(src, want, region, shift);
        EXPECT_EQ(values(got), values(want)) << "copy_from_shifted by " << shift;
      }

      // The wire format: the overlap's cells in BoxIterator order, component
      // slowest.
      std::vector<double> wire;
      src.pack_into(region, wire);
      std::vector<double> wire_want;
      for (int c = 0; c < ncomp; ++c) {
        for (BoxIterator it(sbox & region); it.ok(); ++it) wire_want.push_back(src(*it, c));
      }
      EXPECT_EQ(wire, wire_want) << "pack_into";

      got = numbered(sbox, ncomp, -1000.0);
      want = got;
      got.unpack(region, wire);
      std::size_t next = 0;
      for (int c = 0; c < ncomp; ++c) {
        for (BoxIterator it(sbox & region); it.ok(); ++it) want(*it, c) = wire[next++];
      }
      EXPECT_EQ(values(got), values(want)) << "unpack";
    }
  }
}

TEST(Box, ForEachRowVisitsRowsInBoxIteratorOrder) {
  const Box b({-2, 1, 0}, {3, 4, 2});
  // The (j, k) sequence BoxIterator produces, one entry per x-row.
  std::vector<std::pair<int, int>> want;
  for (BoxIterator it(b); it.ok(); ++it) {
    if ((*it)[0] == b.lo()[0]) want.emplace_back((*it)[1], (*it)[2]);
  }
  std::vector<std::pair<int, int>> got;
  for_each_row(b, [&](int j, int k) { got.emplace_back(j, k); });
  EXPECT_EQ(got, want);
  EXPECT_EQ(got.size(), static_cast<std::size_t>(b.size()[1] * b.size()[2]));
}

/// One exchange configuration: a ghost width and the domain the layout tiles.
struct ExchangeCase {
  int nghost;
  IntVect domain;
};

/// Prints the ghost width alone on the 8^3 domain, so those cases keep the
/// names they had when the width was the whole parameter.
void PrintTo(const ExchangeCase& c, std::ostream* os) {
  *os << c.nghost;
  if (c.domain != IntVect{8, 8, 8}) {
    *os << "_on_" << c.domain[0] << "x" << c.domain[1] << "x" << c.domain[2];
  }
}

class ExchangeTest : public ::testing::TestWithParam<ExchangeCase> {};

TEST_P(ExchangeTest, InteriorGhostsFilledFromNeighbours) {
  const int nghost = GetParam().nghost;
  const Box domain = Box::domain(GetParam().domain);
  const BoxLayout layout = balance(decompose(domain, 4), 2);
  LevelData data(layout, 1, nghost);
  // Valid cells get their analytic value; ghosts start poisoned.
  for (std::size_t i = 0; i < data.size(); ++i) data[i].set_all(-999.0);
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (BoxIterator it(layout.box(i)); it.ok(); ++it) {
      data[i](*it) = cell_value(*it, 0);
    }
  }
  data.exchange(domain, /*periodic=*/false);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const Box ghosted = layout.box(i).grow(nghost);
    for (BoxIterator it(ghosted); it.ok(); ++it) {
      if (domain.contains(*it)) {
        EXPECT_DOUBLE_EQ(data[i](*it), cell_value(*it, 0))
            << "cell " << *it << " of box " << i;
      } else {
        EXPECT_DOUBLE_EQ(data[i](*it), -999.0);  // outside domain: untouched
      }
    }
  }
}

TEST_P(ExchangeTest, PeriodicGhostsWrapAround) {
  const int nghost = GetParam().nghost;
  const Box domain = Box::domain(GetParam().domain);
  const BoxLayout layout = balance(decompose(domain, 4), 2);
  LevelData data(layout, 1, nghost);
  for (std::size_t i = 0; i < data.size(); ++i) data[i].set_all(-999.0);
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (BoxIterator it(layout.box(i)); it.ok(); ++it) {
      data[i](*it) = cell_value(*it, 0);
    }
  }
  data.exchange(domain, /*periodic=*/true);
  const IntVect dsize = domain.size();
  for (std::size_t i = 0; i < data.size(); ++i) {
    const Box ghosted = layout.box(i).grow(nghost);
    for (BoxIterator it(ghosted); it.ok(); ++it) {
      IntVect wrapped = *it;
      for (int d = 0; d < kDim; ++d) {
        wrapped[d] = ((wrapped[d] % dsize[d]) + dsize[d]) % dsize[d];
      }
      EXPECT_DOUBLE_EQ(data[i](*it), cell_value(wrapped, 0))
          << "ghost " << *it << " should wrap to " << wrapped;
    }
  }
}

// The 4x4x1 domain is thinner than the ghost width: its z = +-2 ghost layers
// wrap from two domain images away.
INSTANTIATE_TEST_SUITE_P(GhostWidths, ExchangeTest,
                         ::testing::Values(ExchangeCase{1, {8, 8, 8}}, ExchangeCase{2, {8, 8, 8}},
                                           ExchangeCase{2, {4, 4, 1}}));

/// Valid cells at their analytic value, every ghost poisoned.
void fill_valid(LevelData& data) {
  for (std::size_t i = 0; i < data.size(); ++i) data[i].set_all(-999.0);
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (BoxIterator it(data.valid_box(i)); it.ok(); ++it) data[i](*it) = cell_value(*it, 0);
  }
}

std::vector<std::uint8_t> level_bytes(const LevelData& data) {
  std::vector<std::uint8_t> bytes;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto flat = data[i].flat();
    const auto* p = reinterpret_cast<const std::uint8_t*>(flat.data());
    bytes.insert(bytes.end(), p, p + flat.size_bytes());
  }
  return bytes;
}

// exchange(domain, periodic) keeps its plan between calls; switching the
// periodicity or the domain, or exchanging a copy, must give what a freshly
// built Copier gives on fresh data.
TEST(LevelData, KeptExchangePlanMatchesAFreshCopier) {
  const Box domain = Box::domain({8, 8, 8});
  const BoxLayout layout = balance(decompose(domain, 4), 2);
  const auto fresh = [&](const Box& dom, bool periodic) {
    LevelData ref(layout, 1, 2);
    fill_valid(ref);
    ref.exchange(Copier(layout, 2, dom, periodic));
    return level_bytes(ref);
  };
  LevelData data(layout, 1, 2);
  for (const bool periodic : {false, true, false}) {
    fill_valid(data);
    data.exchange(domain, periodic);
    EXPECT_EQ(level_bytes(data), fresh(domain, periodic)) << "periodic " << periodic;
  }
  LevelData copy = data;
  for (const bool periodic : {false, true}) {
    fill_valid(copy);
    copy.exchange(domain, periodic);
    EXPECT_EQ(level_bytes(copy), fresh(domain, periodic)) << "copy, periodic " << periodic;
  }
  // A wider periodic domain images the boxes 16 cells apart in x.
  const Box wider = Box::domain({16, 8, 8});
  fill_valid(copy);
  copy.exchange(wider, true);
  EXPECT_EQ(level_bytes(copy), fresh(wider, true));
  EXPECT_NE(level_bytes(copy), fresh(domain, true));
}

TEST(Copier, OffRankBytesCountsOnlyCrossRankOps) {
  const Box domain = Box::domain({8, 4, 4});
  // Two boxes, forced onto different ranks.
  std::vector<Box> boxes{Box({0, 0, 0}, {3, 3, 3}), Box({4, 0, 0}, {7, 3, 3})};
  const BoxLayout split(boxes, {0, 1}, 2);
  const BoxLayout together(boxes, {0, 0}, 2);
  const Copier copier(split, 1, domain, false);
  // One component: each off-rank cell the plan copies is one double.
  const auto off_rank_bytes = [&copier](const BoxLayout& layout) {
    std::size_t bytes = 0;
    for (const CopyOp& op : copier.ops()) {
      if (layout.rank_of(op.src) == layout.rank_of(op.dst)) continue;
      bytes += static_cast<std::size_t>(op.region.num_cells()) * sizeof(double);
    }
    return bytes;
  };
  EXPECT_EQ(off_rank_bytes(together), 0u);
  // One face of 4x4 cells each direction.
  EXPECT_EQ(off_rank_bytes(split), 2 * 16 * sizeof(double));
}

TEST(Copier, ZeroGhostMeansNoOps) {
  const BoxLayout layout = balance(decompose(Box::domain({8, 8, 8}), 4), 2);
  Copier copier(layout, 0, Box::domain({8, 8, 8}), true);
  EXPECT_TRUE(copier.ops().empty());
}

TEST(LevelData, SumAndMinMaxOverValidOnly) {
  const Box domain = Box::domain({4, 4, 4});
  const BoxLayout layout = balance(decompose(domain, 2), 1);
  LevelData data(layout, 1, 1);
  for (std::size_t i = 0; i < data.size(); ++i) data[i].set_all(5.0);  // ghosts too
  EXPECT_DOUBLE_EQ(data.sum(0), 5.0 * 64);
  const auto [lo, hi] = data.min_max(0);
  EXPECT_DOUBLE_EQ(lo, 5.0);
  EXPECT_DOUBLE_EQ(hi, 5.0);
}

TEST(LevelData, BytesIncludeGhosts) {
  const BoxLayout layout = balance(decompose(Box::domain({4, 4, 4}), 4), 1);
  LevelData data(layout, 2, 1);
  // Each 4^3 box ghosted to 6^3, 2 comps.
  EXPECT_EQ(data.bytes(), 216u * 2u * sizeof(double));
}

}  // namespace
}  // namespace xl::mesh
