// Tests for the AMR machinery: tagging, Berger-Rigoutsos clustering,
// inter-level interpolation, hierarchy regridding, the memory model and the
// synthetic geometry evolution.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <unordered_set>

#include "amr/berger_rigoutsos.hpp"
#include "amr/hierarchy.hpp"
#include "amr/interp.hpp"
#include "amr/memory_model.hpp"
#include "amr/synthetic.hpp"
#include "amr/tagging.hpp"
#include "common/contract.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "digest.hpp"
#include "mesh/key_sort.hpp"
#include "seed_berger_rigoutsos.hpp"
#include "seed_kernels.hpp"
#include "workflow/experiment.hpp"

namespace xl::amr {
namespace {

using mesh::BoxIterator;
using mesh::IntVectHash;

// --- Berger-Rigoutsos ------------------------------------------------------

std::vector<IntVect> sphere_shell_tags(const Box& domain, double r_lo, double r_hi) {
  std::vector<IntVect> tags;
  const IntVect c{domain.size()[0] / 2, domain.size()[1] / 2, domain.size()[2] / 2};
  for (BoxIterator it(domain); it.ok(); ++it) {
    const IntVect d = *it - c;
    const double r = std::sqrt(double(d[0]) * d[0] + double(d[1]) * d[1] +
                               double(d[2]) * d[2]);
    if (r >= r_lo && r <= r_hi) tags.push_back(*it);
  }
  return tags;
}

TEST(BergerRigoutsos, CoversEveryTag) {
  const Box domain = Box::domain({32, 32, 32});
  const auto tags = sphere_shell_tags(domain, 8.0, 11.0);
  ASSERT_FALSE(tags.empty());
  BrConfig cfg;
  cfg.fill_ratio = 0.7;
  cfg.max_box_size = 16;
  cfg.min_box_size = 2;
  const auto boxes = berger_rigoutsos(tags, domain, cfg);
  for (const IntVect& t : tags) {
    bool covered = false;
    for (const Box& b : boxes) covered = covered || b.contains(t);
    EXPECT_TRUE(covered) << "tag " << t << " uncovered";
  }
}

TEST(BergerRigoutsos, BoxesDisjointWithinDomainAndSized) {
  const Box domain = Box::domain({32, 32, 32});
  const auto tags = sphere_shell_tags(domain, 8.0, 11.0);
  BrConfig cfg;
  cfg.max_box_size = 8;
  cfg.min_box_size = 2;
  const auto boxes = berger_rigoutsos(tags, domain, cfg);
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    EXPECT_TRUE(domain.contains(boxes[i]));
    EXPECT_LE(boxes[i].size()[boxes[i].longest_dim()], 8);
    for (std::size_t j = i + 1; j < boxes.size(); ++j) {
      EXPECT_FALSE(boxes[i].intersects(boxes[j]));
    }
  }
}

TEST(BergerRigoutsos, AchievesFillRatioOnClusteredTags) {
  // Two well-separated dense clusters must produce tight boxes, not one hull.
  const Box domain = Box::domain({64, 16, 16});
  std::vector<IntVect> tags;
  for (BoxIterator it(Box::cube({2, 2, 2}, 6)); it.ok(); ++it) tags.push_back(*it);
  for (BoxIterator it(Box::cube({50, 8, 8}, 6)); it.ok(); ++it) tags.push_back(*it);
  BrConfig cfg;
  cfg.fill_ratio = 0.8;
  cfg.max_box_size = 32;
  cfg.min_box_size = 2;
  const auto boxes = berger_rigoutsos(tags, domain, cfg);
  std::int64_t box_cells = 0;
  for (const Box& b : boxes) box_cells += b.num_cells();
  const double fill = static_cast<double>(tags.size()) / static_cast<double>(box_cells);
  EXPECT_GE(fill, 0.8);
  EXPECT_GE(boxes.size(), 2u);
}

TEST(BergerRigoutsos, SingleTagGivesSingleCellBox) {
  const Box domain = Box::domain({16, 16, 16});
  const auto boxes = berger_rigoutsos({{5, 6, 7}}, domain, {});
  ASSERT_EQ(boxes.size(), 1u);
  EXPECT_EQ(boxes[0], Box({5, 6, 7}, {5, 6, 7}));
}

TEST(BergerRigoutsos, IgnoresTagsOutsideDomain) {
  const Box domain = Box::domain({8, 8, 8});
  const auto boxes = berger_rigoutsos({{100, 100, 100}}, domain, {});
  EXPECT_TRUE(boxes.empty());
}

/// Boxes in lexicographic order of their corners, for comparing box sets.
std::vector<Box> sorted_boxes(std::vector<Box> boxes) {
  std::sort(boxes.begin(), boxes.end(), [](const Box& a, const Box& b) {
    return std::pair(a.lo().v, a.hi().v) < std::pair(b.lo().v, b.hi().v);
  });
  return boxes;
}

TEST(BergerRigoutsos, BoxSetIndependentOfTagOrder) {
  const Box domain = Box::domain({32, 32, 32});
  const auto tags = sphere_shell_tags(domain, 8.0, 11.0);
  std::vector<IntVect> shuffled = tags;
  Rng rng(19);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  ASSERT_NE(shuffled, tags);
  for (const auto& [cap, min_size] : {std::pair(8, 2), std::pair(1, 1)}) {
    BrConfig cfg;
    cfg.max_box_size = cap;
    cfg.min_box_size = min_size;
    const auto boxes = berger_rigoutsos(tags, domain, cfg);
    ASSERT_FALSE(boxes.empty());
    EXPECT_EQ(sorted_boxes(berger_rigoutsos(shuffled, domain, cfg)), sorted_boxes(boxes))
        << "cap " << cap << ", min " << min_size;
  }
}

TEST(BergerRigoutsos, UnitCapReturnsTheDistinctInDomainTags) {
  const Box domain = Box::domain({8, 8, 8});
  const std::vector<IntVect> tags{{1, 2, 3}, {7, 7, 7}, {1, 2, 3}, {0, 0, 0}, {8, 0, 0},
                                  {4, 2, 3}, {-1, 5, 5}, {7, 7, 7}, {2, 2, 3}, {5, 5, 99}};
  BrConfig cfg;
  cfg.max_box_size = 1;
  cfg.min_box_size = 1;
  const std::vector<Box> expected{Box({0, 0, 0}, {0, 0, 0}), Box({1, 2, 3}, {1, 2, 3}),
                                  Box({2, 2, 3}, {2, 2, 3}), Box({4, 2, 3}, {4, 2, 3}),
                                  Box({7, 7, 7}, {7, 7, 7})};
  EXPECT_EQ(sorted_boxes(berger_rigoutsos(tags, domain, cfg)), expected);
}

// --- Berger-Rigoutsos against the frozen reference ---------------------------

enum class Cloud { Shell, Blobs, Scatter };

/// A seeded tag cloud over `domain`: a thin spherical shell, Gaussian blobs
/// or uniform scatter. Every kind repeats some tags and puts a few outside
/// the domain.
std::vector<IntVect> tag_cloud(Cloud kind, const Box& domain, std::uint64_t seed) {
  Rng rng(seed);
  const IntVect lo = domain.lo(), size = domain.size();
  const int shortest = std::min({size[0], size[1], size[2]});
  auto inside = [&](int d) {
    return lo[d] + static_cast<int>(rng.uniform_int(0, size[d] - 1));
  };
  std::vector<IntVect> tags;
  switch (kind) {
    case Cloud::Shell: {
      const double cx = lo[0] + size[0] * rng.uniform(0.35, 0.65);
      const double cy = lo[1] + size[1] * rng.uniform(0.35, 0.65);
      const double cz = lo[2] + size[2] * rng.uniform(0.35, 0.65);
      const double r = shortest * rng.uniform(0.2, 0.35);
      const double width = rng.uniform(0.8, 2.5);
      for (BoxIterator it(domain); it.ok(); ++it) {
        const double dx = (*it)[0] - cx, dy = (*it)[1] - cy, dz = (*it)[2] - cz;
        if (std::abs(std::sqrt(dx * dx + dy * dy + dz * dz) - r) <= width) tags.push_back(*it);
      }
      break;
    }
    case Cloud::Blobs:
      for (int b = 0; b < 4; ++b) {
        const IntVect c{inside(0), inside(1), inside(2)};
        const double spread = shortest * rng.uniform(0.03, 0.12);
        for (int i = 0; i < 600; ++i) {
          tags.push_back({c[0] + f2i<int>(std::round(rng.normal(0.0, spread))),
                          c[1] + f2i<int>(std::round(rng.normal(0.0, spread))),
                          c[2] + f2i<int>(std::round(rng.normal(0.0, spread)))});
        }
      }
      break;
    case Cloud::Scatter:
      for (std::int64_t i = 0; i < domain.num_cells() / 40; ++i) {
        tags.push_back({inside(0), inside(1), inside(2)});
      }
      break;
  }
  for (int i = 0; i < 20 && !tags.empty(); ++i) {
    tags.push_back(tags[static_cast<std::size_t>(rng.uniform_int(0, 99)) % tags.size()]);
  }
  tags.push_back(lo - 1);
  tags.push_back(domain.hi() + IntVect{0, 1, 0});
  return tags;
}

/// Success when `got` equals the reference's `want`, order included.
::testing::AssertionResult same_boxes(const std::vector<Box>& got, const std::vector<Box>& want) {
  if (got == want) return ::testing::AssertionSuccess();
  std::size_t i = 0;
  while (i < got.size() && i < want.size() && got[i] == want[i]) ++i;
  return ::testing::AssertionFailure() << got.size() << " boxes against the reference's "
                                       << want.size() << ", first difference at box " << i;
}

TEST(BergerRigoutsosDifferential, MatchesTheFrozenReferenceBoxForBox) {
  // Domains with negative corners and non-cubic extents, and one at the origin.
  const std::vector<Box> domains{Box({-7, 3, -20}, {28, 26, 5}), Box({-16, -16, -16}, {15, 31, 7}),
                                 Box::domain({40, 24, 16})};
  std::uint64_t seed = 500;
  std::size_t nonempty = 0, runs = 0;
  for (const Box& domain : domains) {
    for (const Cloud kind : {Cloud::Shell, Cloud::Blobs, Cloud::Scatter}) {
      const std::vector<IntVect> tags = tag_cloud(kind, domain, ++seed);
      for (const int cap : {1, 2, 4, 16}) {
        for (const int min_size : {1, 2}) {
          for (const double fill : {0.5, 0.7, 0.9}) {
            BrConfig cfg;
            cfg.max_box_size = cap;
            cfg.min_box_size = min_size;
            cfg.fill_ratio = fill;
            const std::vector<Box> want = seed::berger_rigoutsos(tags, domain, cfg);
            EXPECT_TRUE(same_boxes(berger_rigoutsos(tags, domain, cfg), want))
                << "domain " << domain << ", cloud " << static_cast<int>(kind) << " ("
                << tags.size() << " tags), cap " << cap << ", min " << min_size << ", fill "
                << fill;
            nonempty += !want.empty();
            ++runs;
          }
        }
      }
    }
  }
  EXPECT_EQ(nonempty, runs);
}

TEST(BergerRigoutsosDifferential, UnitCapMatchesTheComparatorSort) {
  // A domain offset from the origin whose x extent needs all 21 bits of its
  // packed key; tags repeat and some fall outside. Sizes span the key sort's
  // cutoff.
  const Box domain({-1000000, -5, 300}, {1000000, 2000, 900});
  BrConfig cfg;
  cfg.max_box_size = 1;
  cfg.min_box_size = 1;
  Rng rng(88);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{500},
                              mesh::kRadixSortMinKeys - 1, mesh::kRadixSortMinKeys,
                              std::size_t{6000}}) {
    std::vector<IntVect> tags;
    for (std::size_t i = 0; i < n; ++i) {
      tags.push_back({static_cast<int>(rng.uniform_int(-1000001, 1000001)),
                      static_cast<int>(rng.uniform_int(-6, 10)),
                      static_cast<int>(rng.uniform_int(299, 310))});
    }
    for (std::size_t i = 0; i < n / 4; ++i) tags.push_back(tags[i]);
    std::vector<IntVect> inside;
    for (const IntVect& t : tags) {
      if (domain.contains(t)) inside.push_back(t);
    }
    std::sort(inside.begin(), inside.end(),
              [](const IntVect& a, const IntVect& b) { return a.v < b.v; });
    inside.erase(std::unique(inside.begin(), inside.end()), inside.end());
    std::vector<Box> want;
    for (const IntVect& t : inside) want.emplace_back(t, t);
    EXPECT_TRUE(same_boxes(berger_rigoutsos(tags, domain, cfg), want)) << n << " tags";
  }
}

TEST(BergerRigoutsosDifferential, UnitCapRejectsADomainPastThePackLimit) {
  BrConfig cfg;
  cfg.max_box_size = 1;
  cfg.min_box_size = 1;
  const int limit = 1 << 21;
  const Box widest({-5, 0, 0}, {limit - 7, 3, 3});  // 2^21 - 1 cells in x
  EXPECT_EQ(berger_rigoutsos({widest.hi(), widest.lo()}, widest, cfg),
            (std::vector<Box>{Box(widest.lo(), widest.lo()), Box(widest.hi(), widest.hi())}));
  for (const Box& too_wide : {Box({-5, 0, 0}, {limit - 6, 3, 3}), Box({0, 0, 0}, {3, limit, 3}),
                              Box({0, 0, -limit}, {3, 3, 0})}) {
    try {
      berger_rigoutsos({{0, 0, 0}}, too_wide, cfg);
      ADD_FAILURE() << "domain " << too_wide << " accepted";
    } catch (const ContractError& e) {
      EXPECT_NE(std::string(e.what()).find("every domain extent must be below 2^21 cells"),
                std::string::npos)
          << e.what();
    }
  }
}

// --- Tagging ---------------------------------------------------------------

TEST(Tagging, TagsSteepGradientOnly) {
  const Box domain = Box::domain({16, 16, 16});
  const mesh::BoxLayout layout = mesh::balance(mesh::decompose(domain, 16), 1);
  AmrLevel level;
  level.domain = domain;
  level.layout = layout;
  level.data = mesh::LevelData(layout, 1, 2);
  // Step function at x == 8 (fill ghosts consistently).
  for (BoxIterator it(level.data[0].box()); it.ok(); ++it) {
    level.data[0](*it) = (*it)[0] < 8 ? 1.0 : 2.0;
  }
  TagCriterion crit;
  crit.rel_threshold = 0.1;
  const auto tags = tag_cells(level, crit);
  ASSERT_FALSE(tags.empty());
  for (const IntVect& t : tags) {
    EXPECT_TRUE(t[0] == 7 || t[0] == 8) << "tag at " << t;
  }
}

TEST(Tagging, ConstantFieldProducesNoTags) {
  const Box domain = Box::domain({8, 8, 8});
  const mesh::BoxLayout layout = mesh::balance(mesh::decompose(domain, 8), 1);
  AmrLevel level{domain, layout, mesh::LevelData(layout, 1, 2)};
  for (std::size_t i = 0; i < level.data.size(); ++i) level.data[i].set_all(3.0);
  EXPECT_TRUE(tag_cells(level, {}).empty());
}

TEST(Tagging, BufferGrowsAndClipsToDomain) {
  const Box domain = Box::domain({8, 8, 8});
  const auto grown = buffer_tags({{0, 0, 0}}, 1, domain);
  // Corner cell + buffer 1 clipped to domain: 2x2x2 = 8 cells.
  EXPECT_EQ(grown.size(), 8u);
  std::unordered_set<IntVect, IntVectHash> set(grown.begin(), grown.end());
  EXPECT_TRUE(set.count({1, 1, 1}));
  EXPECT_FALSE(set.count({2, 0, 0}));
}

// --- Interpolation ---------------------------------------------------------

AmrLevel make_level(const Box& domain, int max_box, int ncomp, int nghost) {
  AmrLevel lev;
  lev.domain = domain;
  lev.layout = mesh::balance(mesh::decompose(domain, max_box), 1);
  lev.data = mesh::LevelData(lev.layout, ncomp, nghost);
  return lev;
}

TEST(Interp, ProlongConstantCopiesParentValue) {
  AmrLevel coarse = make_level(Box::domain({8, 8, 8}), 8, 1, 1);
  for (BoxIterator it(coarse.data[0].box()); it.ok(); ++it) {
    coarse.data[0](*it) = (*it)[0];
  }
  AmrLevel fine = make_level(Box::domain({16, 16, 16}), 16, 1, 1);
  prolong_constant(coarse, fine, 2);
  for (BoxIterator it(fine.layout.box(0)); it.ok(); ++it) {
    EXPECT_DOUBLE_EQ(fine.data[0](*it), (*it)[0] / 2);
  }
}

TEST(Interp, RestrictAverageIsExactForLinear) {
  // Restriction of a (cell-centered) linear function reproduces the coarse
  // cell-centered values exactly.
  AmrLevel fine = make_level(Box::domain({16, 16, 16}), 16, 1, 0);
  for (BoxIterator it(fine.layout.box(0)); it.ok(); ++it) {
    fine.data[0](*it) = (*it)[0] + 0.5;  // linear in fine index
  }
  AmrLevel coarse = make_level(Box::domain({8, 8, 8}), 8, 1, 0);
  restrict_average(fine, coarse, 2);
  for (BoxIterator it(coarse.layout.box(0)); it.ok(); ++it) {
    // Average of fine values 2i+0.5 and 2i+1.5 is 2i+1.
    EXPECT_DOUBLE_EQ(coarse.data[0](*it), 2.0 * (*it)[0] + 1.0);
  }
}

TEST(Interp, RestrictThenProlongPreservesConstant) {
  AmrLevel fine = make_level(Box::domain({8, 8, 8}), 8, 1, 0);
  for (std::size_t i = 0; i < fine.data.size(); ++i) fine.data[i].set_all(7.0);
  AmrLevel coarse = make_level(Box::domain({4, 4, 4}), 4, 1, 0);
  restrict_average(fine, coarse, 2);
  AmrLevel fine2 = make_level(Box::domain({8, 8, 8}), 8, 1, 0);
  prolong_constant(coarse, fine2, 2);
  for (BoxIterator it(fine2.layout.box(0)); it.ok(); ++it) {
    EXPECT_DOUBLE_EQ(fine2.data[0](*it), 7.0);
  }
}

TEST(Interp, CfGhostsFilledFromCoarse) {
  AmrLevel coarse = make_level(Box::domain({8, 8, 8}), 8, 1, 2);
  for (BoxIterator it(coarse.data[0].box()); it.ok(); ++it) {
    coarse.data[0](*it) = 100.0 + (*it)[2];
  }
  // Fine level covers only the middle of the domain.
  AmrLevel fine;
  fine.domain = Box::domain({16, 16, 16});
  std::vector<Box> fboxes{Box({4, 4, 4}, {11, 11, 11})};
  fine.layout = mesh::BoxLayout(fboxes, {0}, 1);
  fine.data = mesh::LevelData(fine.layout, 1, 2);
  for (std::size_t i = 0; i < fine.data.size(); ++i) fine.data[i].set_all(-1.0);
  fill_cf_ghosts(coarse, fine, 2, 2);
  // A ghost just outside the fine box maps to coarse cell (ghost>>1).
  const IntVect ghost{3, 8, 8};
  EXPECT_DOUBLE_EQ(fine.data[0](ghost), 100.0 + 4.0);
  // Valid cells untouched.
  EXPECT_DOUBLE_EQ(fine.data[0](IntVect{5, 5, 5}), -1.0);
}

// --- Hierarchy -------------------------------------------------------------

AmrConfig small_config() {
  AmrConfig cfg;
  cfg.base_domain = Box::domain({16, 16, 16});
  cfg.max_levels = 3;
  cfg.ref_ratio = 2;
  cfg.max_box_size = 8;
  cfg.nghost = 2;
  cfg.nranks = 2;
  return cfg;
}

TEST(Hierarchy, ConstructionBuildsBaseLevel) {
  AmrHierarchy h(small_config(), 1);
  EXPECT_EQ(h.num_levels(), 1u);
  EXPECT_EQ(h.level(0).layout.total_cells(), 16 * 16 * 16);
  EXPECT_EQ(h.domain_of(2), Box::domain({64, 64, 64}));
}

TEST(Hierarchy, RegridAddsLevelAndProlongsData) {
  AmrHierarchy h(small_config(), 1);
  for (std::size_t i = 0; i < h.level(0).data.size(); ++i) h.level(0).data[i].set_all(4.0);
  std::vector<Box> fboxes{Box({8, 8, 8}, {15, 15, 15})};
  h.regrid({mesh::BoxLayout(fboxes, {0}, 2)});
  ASSERT_EQ(h.num_levels(), 2u);
  for (BoxIterator it(h.level(1).layout.box(0)); it.ok(); ++it) {
    EXPECT_DOUBLE_EQ(h.level(1).data[0](*it), 4.0);
  }
  EXPECT_EQ(h.total_cells(), 16 * 16 * 16 + 8 * 8 * 8);
}

TEST(Hierarchy, RegridPreservesOldFineDataWhereOverlapping) {
  AmrHierarchy h(small_config(), 1);
  for (std::size_t i = 0; i < h.level(0).data.size(); ++i) h.level(0).data[i].set_all(1.0);
  std::vector<Box> fboxes{Box({8, 8, 8}, {15, 15, 15})};
  h.regrid({mesh::BoxLayout(fboxes, {0}, 2)});
  for (std::size_t i = 0; i < h.level(1).data.size(); ++i) h.level(1).data[i].set_all(9.0);
  // Shift the fine level; overlap keeps the old value, fresh cells prolong.
  std::vector<Box> moved{Box({12, 8, 8}, {19, 15, 15})};
  h.regrid({mesh::BoxLayout(moved, {0}, 2)});
  EXPECT_DOUBLE_EQ(h.level(1).data[0](IntVect{12, 8, 8}), 9.0);   // kept
  EXPECT_DOUBLE_EQ(h.level(1).data[0](IntVect{19, 15, 15}), 1.0);  // prolonged
}

TEST(Hierarchy, IsFinestAtRespectsFinerCoverage) {
  AmrHierarchy h(small_config(), 1);
  std::vector<Box> fboxes{Box({8, 8, 8}, {15, 15, 15})};
  h.regrid({mesh::BoxLayout(fboxes, {0}, 2)});
  // The seed isosurface's coverage oracle.
  EXPECT_FALSE(seed::is_finest_at(h, 0, {4, 4, 4}));  // covered: fine box 8..15 = coarse 4..7
  EXPECT_TRUE(seed::is_finest_at(h, 0, {0, 0, 0}));
  EXPECT_TRUE(seed::is_finest_at(h, 1, {8, 8, 8}));  // finest level
}

// --- Memory model ----------------------------------------------------------

TEST(MemoryModel, MoreCellsMoreMemoryAndImbalanceShows) {
  const Box domain = Box::domain({32, 32, 32});
  const mesh::BoxLayout balanced = mesh::balance(mesh::decompose(domain, 8), 4);
  MemoryModelConfig cfg;
  cfg.ncomp = 5;
  cfg.nghost = 2;
  const auto bytes = per_rank_peak_bytes({balanced}, cfg);
  ASSERT_EQ(bytes.size(), 4u);
  for (std::size_t r = 0; r < 4; ++r) EXPECT_GT(bytes[r], cfg.base_runtime_bytes);

  // All boxes on rank 0 -> rank 0 holds everything.
  std::vector<int> ranks(balanced.num_boxes(), 0);
  const mesh::BoxLayout skewed(balanced.boxes(), ranks, 4);
  const auto skewed_bytes = per_rank_peak_bytes({skewed}, cfg);
  EXPECT_GT(skewed_bytes[0], bytes[0]);
  EXPECT_EQ(skewed_bytes[1], cfg.base_runtime_bytes);
}

/// per_rank_peak_bytes as it was: one loop over every level, level 0 first.
std::vector<std::size_t> reference_peak_bytes(const std::vector<BoxLayout>& levels,
                                              const MemoryModelConfig& config) {
  std::vector<double> bytes(static_cast<std::size_t>(levels.front().num_ranks()),
                            to_double(config.base_runtime_bytes, "base runtime bytes"));
  const double per_cell =
      to_double(config.ncomp, "ncomp") * sizeof(double) * (1.0 + config.solver_overhead) +
      config.analysis_bytes_per_cell;
  for (const BoxLayout& layout : levels) {
    for (std::size_t i = 0; i < layout.num_boxes(); ++i) {
      const double ghosted_cells =
          to_double(layout.box(i).grow(config.nghost).num_cells(), "ghosted cells");
      bytes[static_cast<std::size_t>(layout.rank_of(i))] += ghosted_cells * per_cell;
    }
  }
  std::vector<std::size_t> out(bytes.size());
  for (std::size_t r = 0; r < bytes.size(); ++r) out[r] = f2s(bytes[r], "per-rank peak bytes");
  return out;
}

TEST(MemoryModel, BasePricedOnceContinuesToTheSameBytes) {
  SyntheticAmrConfig geometry;
  geometry.base_domain = Box::domain({64, 32, 32});
  geometry.nranks = 24;
  geometry.tile_size = 4;
  geometry.max_levels = 3;
  const SyntheticAmrEvolution evolution(geometry);
  MemoryModelConfig cfg;
  cfg.analysis_bytes_per_cell = 12.5;
  const std::vector<double> base = per_rank_base_bytes(evolution.base_layout(), cfg);
  for (const int step : {0, 7, 15}) {
    const SyntheticStep s = evolution.at(step);
    ASSERT_GE(s.levels.size(), 2u);
    const std::vector<std::size_t> want = reference_peak_bytes(s.levels, cfg);
    EXPECT_EQ(per_rank_peak_bytes(base, s.levels, cfg), want) << "step " << step;
    EXPECT_EQ(per_rank_peak_bytes(s.levels, cfg), want) << "step " << step;
  }
  // A base priced over another rank count cannot be continued.
  const std::vector<double> other(base.size() + 1, 0.0);
  EXPECT_THROW(per_rank_peak_bytes(other, evolution.at(0).levels, cfg), ContractError);
}

// --- Synthetic geometry evolution ------------------------------------------

TEST(Synthetic, DeterministicAndGrowing) {
  SyntheticAmrConfig cfg;
  cfg.base_domain = Box::domain({128, 64, 64});
  cfg.max_levels = 3;
  cfg.nranks = 16;
  cfg.tile_size = 4;
  cfg.max_box_size = 16;
  SyntheticAmrEvolution evo(cfg), evo2(cfg);
  const SyntheticStep s0 = evo.at(0);
  const SyntheticStep s0b = evo2.at(0);
  EXPECT_EQ(s0.total_cells, s0b.total_cells);
  ASSERT_GE(s0.levels.size(), 2u);  // front refines from step 0

  const SyntheticStep s20 = evo.at(20);
  EXPECT_GT(s20.total_cells, s0.total_cells);  // front grew + blobs appeared
  EXPECT_EQ(s0.cells_per_level[0], s20.cells_per_level[0]);  // base static
}

TEST(Synthetic, LevelsBalancedOverConfiguredRanks) {
  SyntheticAmrConfig cfg;
  cfg.base_domain = Box::domain({64, 64, 64});
  cfg.nranks = 8;
  cfg.tile_size = 4;
  SyntheticAmrEvolution evo(cfg);
  const SyntheticStep s = evo.at(5);
  for (const auto& layout : s.levels) {
    EXPECT_EQ(layout.num_ranks(), 8);
    EXPECT_GT(layout.total_cells(), 0);
  }
}

TEST(Synthetic, RefinedBoxesInsideRefinedDomain) {
  SyntheticAmrConfig cfg;
  cfg.base_domain = Box::domain({64, 32, 32});
  cfg.nranks = 4;
  cfg.tile_size = 4;
  cfg.max_levels = 3;
  SyntheticAmrEvolution evo(cfg);
  const SyntheticStep s = evo.at(12);
  for (std::size_t lev = 1; lev < s.levels.size(); ++lev) {
    Box domain = cfg.base_domain;
    for (std::size_t l = 0; l < lev; ++l) domain = domain.refine(cfg.ref_ratio);
    for (const Box& b : s.levels[lev].boxes()) {
      EXPECT_TRUE(domain.contains(b)) << "level " << lev << " box " << b;
    }
  }
}

TEST(Synthetic, GeometryDigestMatchesTheRecordedRun) {
  // The 2K-core Titan figure geometry, balanced over one rank per simulation
  // core, at steps before and after blob onset (10) and band decay (35). The
  // digest covers every box, its rank, the cells per level and the eqs. 1-3
  // per-rank peak bytes. It was recorded with per-node tag vectors in
  // Berger-Rigoutsos and Morton keys recomputed inside the sort comparator,
  // and it held through the rewrite in which Berger-Rigoutsos children
  // inherit their signatures, the balance and the unit-cap path share one
  // radix key sort, and the memory model prices level 0 once.
  const workflow::WorkflowConfig config =
      workflow::titan_middleware_experiment(0, workflow::Mode::StaticInSitu);
  SyntheticAmrConfig geometry = config.geometry;
  geometry.nranks = config.sim_cores;
  const SyntheticAmrEvolution evolution(geometry);
  std::ostringstream bytes;
  for (const int step : {0, 10, 20, 35, 49}) {
    const SyntheticStep s = evolution.at(step);
    bytes << "step " << step << '\n';
    for (const BoxLayout& layout : s.levels) {
      bytes << "level " << layout.num_boxes() << '\n';
      for (std::size_t i = 0; i < layout.num_boxes(); ++i) {
        bytes << layout.box(i) << ' ' << layout.rank_of(i) << '\n';
      }
    }
    for (const std::int64_t cells : s.cells_per_level) bytes << cells << '\n';
    for (const std::size_t peak : per_rank_peak_bytes(s.levels, config.memory_model)) {
      bytes << peak << '\n';
    }
  }
  const std::uint64_t digest = test::fnv1a(bytes.str());
  EXPECT_EQ(digest, 0x0a645b649cda2304ull) << "geometry digest: 0x" << std::hex << digest;
}

}  // namespace
}  // namespace xl::amr
