// Tests for plotfile serialization: round trips through memory and disk,
// hierarchy restoration, and malformed-input rejection.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>

#include "amr/plotfile.hpp"
#include "common/buffer_pool.hpp"

namespace xl::amr {
namespace {

using mesh::BoxIterator;

AmrHierarchy sample_hierarchy() {
  AmrConfig cfg;
  cfg.base_domain = Box::domain({16, 16, 16});
  cfg.max_levels = 2;
  cfg.ref_ratio = 2;
  cfg.max_box_size = 8;
  cfg.nghost = 1;
  cfg.nranks = 2;
  AmrHierarchy h(cfg, 2);
  std::vector<Box> fine{Box({8, 8, 8}, {15, 15, 15}), Box({16, 8, 8}, {23, 15, 15})};
  h.regrid({mesh::BoxLayout(fine, {0, 1}, 2)});
  // Distinctive data: value = level*1000 + linear index + 10*comp.
  for (std::size_t l = 0; l < h.num_levels(); ++l) {
    AmrLevel& level = h.level(l);
    for (std::size_t i = 0; i < level.layout.num_boxes(); ++i) {
      for (BoxIterator it(level.layout.box(i)); it.ok(); ++it) {
        for (int c = 0; c < 2; ++c) {
          level.data[i](*it, c) =
              1000.0 * static_cast<double>(l) + (*it)[0] + 0.1 * (*it)[1] + 10.0 * c;
        }
      }
    }
  }
  return h;
}

TEST(Plotfile, StreamRoundTripPreservesEverything) {
  const AmrHierarchy h = sample_hierarchy();
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  write_plotfile(buffer, h, 7, 0.125);
  const PlotFileData data = read_plotfile(buffer);

  EXPECT_EQ(data.step, 7);
  EXPECT_DOUBLE_EQ(data.time, 0.125);
  EXPECT_EQ(data.ncomp, 2);
  EXPECT_EQ(data.ref_ratio, 2);
  ASSERT_EQ(data.levels.size(), 2u);
  EXPECT_EQ(data.total_cells(), h.total_cells());
  EXPECT_EQ(data.levels[1].boxes.size(), 2u);
  EXPECT_EQ(data.levels[1].ranks, (std::vector<int>{0, 1}));

  // Spot-check payloads on both levels.
  const mesh::Fab& fine0 = data.levels[1].data[0];
  EXPECT_DOUBLE_EQ(fine0(mesh::IntVect{9, 10, 11}, 1), 1000.0 + 9 + 1.0 + 10.0);
  const mesh::Fab& coarse0 = data.levels[0].data[0];
  const mesh::IntVect p = data.levels[0].boxes[0].lo();
  EXPECT_DOUBLE_EQ(coarse0(p, 0), p[0] + 0.1 * p[1]);
}

TEST(Plotfile, FileRoundTrip) {
  const AmrHierarchy h = sample_hierarchy();
  const std::string path = "test_plotfile_roundtrip.xlpf";
  write_plotfile(path, h, 3, 1.5);
  const PlotFileData data = read_plotfile(path);
  EXPECT_EQ(data.step, 3);
  EXPECT_EQ(data.total_cells(), h.total_cells());
  std::remove(path.c_str());
}

TEST(Plotfile, HierarchyRestorationMatchesOriginal) {
  const AmrHierarchy h = sample_hierarchy();
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  write_plotfile(buffer, h, 0, 0.0);
  const PlotFileData data = read_plotfile(buffer);

  const AmrHierarchy restored = hierarchy_from_plotfile(data, h.config());
  ASSERT_EQ(restored.num_levels(), h.num_levels());
  EXPECT_EQ(restored.total_cells(), h.total_cells());
  for (std::size_t l = 0; l < h.num_levels(); ++l) {
    // Valid data identical (compare through the level sums and a probe).
    EXPECT_NEAR(restored.level(l).data.sum(0), h.level(l).data.sum(0), 1e-9);
    EXPECT_NEAR(restored.level(l).data.sum(1), h.level(l).data.sum(1), 1e-9);
  }
}

TEST(Plotfile, RejectsGarbageAndTruncation) {
  std::stringstream garbage(std::ios::in | std::ios::out | std::ios::binary);
  garbage << "not a plotfile at all";
  EXPECT_THROW(read_plotfile(garbage), ContractError);

  const AmrHierarchy h = sample_hierarchy();
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  write_plotfile(buffer, h, 0, 0.0);
  const std::string full = buffer.str();
  std::stringstream truncated(std::ios::in | std::ios::out | std::ios::binary);
  truncated << full.substr(0, full.size() / 2);
  EXPECT_THROW(read_plotfile(truncated), ContractError);
}

/// A one-level plotfile header whose domain and only box are `box`, ending
/// right after the box's rank: the payload it claims is missing.
std::string header_claiming(const Box& box) {
  std::ostringstream os(std::ios::binary);
  auto put = [&os](auto v) { os.write(reinterpret_cast<const char*>(&v), sizeof(v)); };
  auto put_box = [&put](const Box& b) {
    for (int d = 0; d < mesh::kDim; ++d) put(std::int32_t{b.lo()[d]});
    for (int d = 0; d < mesh::kDim; ++d) put(std::int32_t{b.hi()[d]});
  };
  os.write("XLPF", 4);
  put(std::uint32_t{1});  // version
  put(std::int32_t{0});   // step
  put(0.0);               // time
  put(std::int32_t{1});   // ncomp
  put(std::int32_t{2});   // ref_ratio
  put(std::uint32_t{1});  // num_levels
  put_box(box);           // level domain
  put(std::uint32_t{1});  // nboxes
  put_box(box);
  put(std::int32_t{0});  // rank
  return os.str();
}

TEST(Plotfile, RejectsAMissingPayloadBeforeAllocatingIt) {
  std::stringstream is(header_claiming(Box::domain({128, 128, 128})),
                       std::ios::in | std::ios::binary);
  const PoolStats before = BufferPool::global().stats();
  try {
    (void)read_plotfile(is);
    ADD_FAILURE() << "a 128^3 box without its payload was accepted";
  } catch (const ContractError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("level 0 box 0"), std::string::npos) << what;
    EXPECT_NE(what.find("missing 16777216 payload bytes"), std::string::npos) << what;
  }
  const PoolStats after = BufferPool::global().stats();
  EXPECT_EQ(after.hits + after.misses, before.hits + before.misses);
}

TEST(Plotfile, RejectsABoxSpanningTheWholeIntRange) {
  // Each extent is 2^32 cells: Box::size() would overflow int.
  constexpr int kMin = std::numeric_limits<std::int32_t>::min();
  constexpr int kMax = std::numeric_limits<std::int32_t>::max();
  std::stringstream is(header_claiming(Box({kMin, kMin, kMin}, {kMax, kMax, kMax})),
                       std::ios::in | std::ios::binary);
  EXPECT_THROW(read_plotfile(is), ContractError);
}

TEST(Plotfile, RestorationRejectsMismatchedDomain) {
  const AmrHierarchy h = sample_hierarchy();
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  write_plotfile(buffer, h, 0, 0.0);
  const PlotFileData data = read_plotfile(buffer);
  AmrConfig wrong = h.config();
  wrong.base_domain = Box::domain({32, 32, 32});
  EXPECT_THROW(hierarchy_from_plotfile(data, wrong), ContractError);
}

TEST(Plotfile, RestorationRejectsRanksOutsideTheConfig) {
  const AmrHierarchy h = sample_hierarchy();
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  write_plotfile(buffer, h, 0, 0.0);
  const PlotFileData data = read_plotfile(buffer);
  const int nranks = h.config().nranks;
  for (const int rank : {1 << 30, std::numeric_limits<std::int32_t>::max(), -1, nranks}) {
    PlotFileData bad = data;
    bad.levels[1].ranks[0] = rank;
    try {
      (void)hierarchy_from_plotfile(bad, h.config());
      ADD_FAILURE() << "rank " << rank << " accepted";
    } catch (const ContractError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("level 1 box 0"), std::string::npos) << what;
      EXPECT_NE(what.find("rank " + std::to_string(rank)), std::string::npos) << what;
    }
  }
}

TEST(Plotfile, MissingFileThrows) {
  EXPECT_THROW(read_plotfile("definitely/not/here.xlpf"), ContractError);
}

}  // namespace
}  // namespace xl::amr
