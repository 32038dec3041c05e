// Tests for plotfile serialization: round trips through memory and disk,
// write failures, and malformed-input rejection.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <utility>

#include "amr/plotfile.hpp"
#include "mutants.hpp"
#include "plotfile_bytes.hpp"

namespace xl::amr {
namespace {

using mesh::BoxIterator;
using plotfile_bytes::box_bytes;
using plotfile_bytes::header_claiming;

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

/// Every level, box, rank and valid value of `h` is in `data`, in order.
void expect_matches(const PlotFileData& data, const AmrHierarchy& h) {
  ASSERT_EQ(data.ncomp, h.ncomp());
  ASSERT_EQ(data.levels.size(), h.num_levels());
  for (std::size_t l = 0; l < h.num_levels(); ++l) {
    const AmrLevel& level = h.level(l);
    const PlotLevel& read = data.levels[l];
    EXPECT_EQ(read.domain, level.domain) << "level " << l;
    ASSERT_EQ(read.boxes, level.layout.boxes()) << "level " << l;
    ASSERT_EQ(read.data.size(), read.boxes.size()) << "level " << l;
    for (std::size_t i = 0; i < read.boxes.size(); ++i) {
      EXPECT_EQ(read.ranks[i], level.layout.rank_of(i)) << "level " << l << " box " << i;
      for (int c = 0; c < h.ncomp(); ++c) {
        for (BoxIterator it(read.boxes[i]); it.ok(); ++it) {
          ASSERT_EQ(read.data[i](*it, c), level.data[i](*it, c))
              << "level " << l << " box " << i << " comp " << c;
        }
      }
    }
  }
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
  expect_matches(data, h);
}

TEST(Plotfile, FileRoundTrip) {
  const AmrHierarchy h = sample_hierarchy();
  const std::string path = "test_plotfile_roundtrip.xlpf";
  write_plotfile(path, h, 3, 1.5);
  const PlotFileData data = read_plotfile(path);
  EXPECT_EQ(data.step, 3);
  EXPECT_EQ(data.total_cells(), h.total_cells());
  expect_matches(data, h);
  std::remove(path.c_str());
}

TEST(Plotfile, WriteFailuresNameThePath) {
  const AmrHierarchy h = sample_hierarchy();
  // /dev/full takes the open and fails the write, which shows only at close.
  for (const auto& [path, message] :
       {std::pair<std::string, std::string>{"/dev/full", "cannot write plotfile output: /dev/full"},
        {"no/such/dir/out.xlpf", "cannot open plotfile output: no/such/dir/out.xlpf"}}) {
    try {
      write_plotfile(path, h, 0, 0.0);
      ADD_FAILURE() << "writing " << path << " succeeded";
    } catch (const ContractError& e) {
      EXPECT_EQ(std::string(e.what()), message);
    }
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

TEST(Plotfile, RejectsTrailingBytesNamingTheCount) {
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  write_plotfile(buffer, sample_hierarchy(), 0, 0.0);
  const std::string file = buffer.str();
  // Junk appended, and two plotfiles concatenated.
  for (const std::string& bytes : {file + std::string(4096, '\x5a'), file + file}) {
    std::stringstream is(bytes, std::ios::in | std::ios::binary);
    try {
      (void)read_plotfile(is);
      ADD_FAILURE() << "a plotfile with " << bytes.size() - file.size()
                    << " bytes appended was accepted";
    } catch (const ContractError& e) {
      EXPECT_EQ(std::string(e.what()), "plotfile has " +
                                           std::to_string(bytes.size() - file.size()) +
                                           " bytes after its last level");
    }
  }
}

TEST(Plotfile, RejectsABoxSpanningTheWholeIntRange) {
  // Each extent is 2^32 cells: Box::size() would overflow int.
  constexpr int kMin = std::numeric_limits<std::int32_t>::min();
  constexpr int kMax = std::numeric_limits<std::int32_t>::max();
  std::stringstream is(header_claiming(Box({kMin, kMin, kMin}, {kMax, kMax, kMax})),
                       std::ios::in | std::ios::binary);
  EXPECT_THROW(read_plotfile(is), ContractError);
}

TEST(Plotfile, RejectsOverlappingBoxesNamingBoth) {
  const AmrHierarchy h = sample_hierarchy();
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  write_plotfile(buffer, h, 0, 0.0);
  std::string bytes = buffer.str();
  // Level 1 records its second box over its first. Both are 8^3, so every
  // payload still fits.
  const std::string first = box_bytes(Box({8, 8, 8}, {15, 15, 15}));
  const std::string second = box_bytes(Box({16, 8, 8}, {23, 15, 15}));
  bytes.replace(bytes.find(second), second.size(), first);
  std::stringstream is(bytes, std::ios::in | std::ios::binary);
  try {
    (void)read_plotfile(is);
    ADD_FAILURE() << "overlapping boxes accepted";
  } catch (const ContractError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("plotfile level 1 box 1"), std::string::npos) << what;
    EXPECT_NE(what.find("overlaps box 0"), std::string::npos) << what;
  }
}

TEST(Plotfile, RejectsARefinementRatioBelowTwo) {
  const AmrHierarchy h = sample_hierarchy();
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  write_plotfile(buffer, h, 0, 0.0);
  const std::string good = buffer.str();
  // ref_ratio follows magic, version, step, time and ncomp.
  constexpr std::size_t kRatioOffset = 4 + 4 + 4 + 8 + 4;
  for (const std::int32_t ratio : {1, 0, -2}) {
    std::string bad = good;
    std::memcpy(bad.data() + kRatioOffset, &ratio, sizeof(ratio));
    std::stringstream is(bad, std::ios::in | std::ios::binary);
    try {
      (void)read_plotfile(is);
      ADD_FAILURE() << "ref_ratio " << ratio << " accepted";
    } catch (const ContractError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("ref_ratio " + std::to_string(ratio)), std::string::npos)
          << what;
    }
  }
}

TEST(Plotfile, SeededMutantsParseOrFailAsInputErrors) {
  // Boxes of 2^3 cells and one component keep the headers near half of the
  // file, so many mutants hit a field rather than a payload value.
  AmrConfig cfg;
  cfg.base_domain = Box::domain({4, 4, 4});
  cfg.max_levels = 2;
  cfg.ref_ratio = 2;
  cfg.max_box_size = 2;
  cfg.nghost = 1;
  cfg.nranks = 2;
  AmrHierarchy h(cfg, 1);
  h.regrid({mesh::BoxLayout({Box({0, 0, 0}, {1, 1, 1}), Box({4, 4, 4}, {5, 5, 5})}, {0, 1}, 2)});
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  write_plotfile(buffer, h, 3, 0.5);
  mutants::expect_parse_or_input_error(
      buffer.str(), 1, mutants::binary, [](const std::string& bytes) {
        std::stringstream is(bytes, std::ios::in | std::ios::binary);
        (void)read_plotfile(is);
      });
}

TEST(Plotfile, MissingFileThrows) {
  EXPECT_THROW(read_plotfile("definitely/not/here.xlpf"), ContractError);
}

}  // namespace
}  // namespace xl::amr
