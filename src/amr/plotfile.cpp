#include "amr/plotfile.hpp"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>

#include "common/buffer_pool.hpp"
#include "common/error.hpp"

namespace xl::amr {

namespace {

constexpr char kMagic[4] = {'X', 'L', 'P', 'F'};
constexpr std::uint32_t kVersion = 1;

template <typename T>
void write_pod(std::ostream& os, const T& value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::istream& is) {
  T value;
  is.read(reinterpret_cast<char*>(&value), sizeof(T));
  XL_REQUIRE(is.good(), "plotfile truncated");
  return value;
}

void write_box(std::ostream& os, const Box& b) {
  for (int d = 0; d < mesh::kDim; ++d) write_pod<std::int32_t>(os, b.lo()[d]);
  for (int d = 0; d < mesh::kDim; ++d) write_pod<std::int32_t>(os, b.hi()[d]);
}

Box read_box(std::istream& is) {
  IntVect lo, hi;
  for (int d = 0; d < mesh::kDim; ++d) lo[d] = read_pod<std::int32_t>(is);
  for (int d = 0; d < mesh::kDim; ++d) hi[d] = read_pod<std::int32_t>(is);
  return Box(lo, hi);
}

}  // namespace

std::int64_t PlotFileData::total_cells() const noexcept {
  std::int64_t cells = 0;
  for (const PlotLevel& lev : levels) {
    for (const Box& b : lev.boxes) cells += b.num_cells();
  }
  return cells;
}

void write_plotfile(std::ostream& os, const AmrHierarchy& hierarchy, int step,
                    double time) {
  os.write(kMagic, sizeof(kMagic));
  write_pod<std::uint32_t>(os, kVersion);
  write_pod<std::int32_t>(os, step);
  write_pod<double>(os, time);
  write_pod<std::int32_t>(os, hierarchy.ncomp());
  write_pod<std::int32_t>(os, hierarchy.config().ref_ratio);
  write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(hierarchy.num_levels()));
  // One pack buffer reused across every box of every level: it grows to the
  // largest box once and recycles through the pool afterwards, instead of a
  // fresh vector per box.
  PoolVec<double> payload;
  for (std::size_t l = 0; l < hierarchy.num_levels(); ++l) {
    const AmrLevel& level = hierarchy.level(l);
    write_box(os, level.domain);
    write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(level.layout.num_boxes()));
    for (std::size_t i = 0; i < level.layout.num_boxes(); ++i) {
      const Box valid = level.layout.box(i);
      write_box(os, valid);
      write_pod<std::int32_t>(os, level.layout.rank_of(i));
      level.data[i].pack_into(valid, payload);
      os.write(reinterpret_cast<const char*>(payload.data()),
               static_cast<std::streamsize>(payload.size() * sizeof(double)));
    }
  }
  BufferPool::global().release(std::move(payload));
  XL_REQUIRE(os.good(), "plotfile write failed");
}

void write_plotfile(const std::string& path, const AmrHierarchy& hierarchy, int step,
                    double time) {
  std::ofstream os(path, std::ios::binary);
  XL_REQUIRE(os.good(), "cannot open plotfile for writing: " + path);
  write_plotfile(os, hierarchy, step, time);
}

PlotFileData read_plotfile(std::istream& is) {
  char magic[4];
  is.read(magic, sizeof(magic));
  XL_REQUIRE(is.good() && std::memcmp(magic, kMagic, 4) == 0,
             "not a plotfile (bad magic)");
  const auto version = read_pod<std::uint32_t>(is);
  XL_REQUIRE(version == kVersion, "unsupported plotfile version");

  PlotFileData data;
  data.step = read_pod<std::int32_t>(is);
  data.time = read_pod<double>(is);
  data.ncomp = read_pod<std::int32_t>(is);
  data.ref_ratio = read_pod<std::int32_t>(is);
  XL_REQUIRE(data.ncomp >= 1 && data.ncomp < 1024, "implausible component count");
  const auto num_levels = read_pod<std::uint32_t>(is);
  XL_REQUIRE(num_levels >= 1 && num_levels < 64, "implausible level count");

  // Mirror of the writer: one read buffer reused across all boxes.
  PoolVec<double> payload;
  for (std::uint32_t l = 0; l < num_levels; ++l) {
    PlotLevel level;
    level.domain = read_box(is);
    XL_REQUIRE(!level.domain.empty(), "empty level domain");
    const auto nboxes = read_pod<std::uint32_t>(is);
    for (std::uint32_t i = 0; i < nboxes; ++i) {
      const Box valid = read_box(is);
      XL_REQUIRE(!valid.empty(), "empty box in plotfile");
      XL_REQUIRE(level.domain.contains(valid), "box outside level domain");
      const auto rank = read_pod<std::int32_t>(is);
      mesh::Fab fab(valid, data.ncomp);
      payload.resize(static_cast<std::size_t>(valid.num_cells()) *
                     static_cast<std::size_t>(data.ncomp));
      is.read(reinterpret_cast<char*>(payload.data()),
              static_cast<std::streamsize>(payload.size() * sizeof(double)));
      XL_REQUIRE(is.good(), "plotfile payload truncated");
      fab.unpack(valid, payload);
      level.boxes.push_back(valid);
      level.ranks.push_back(rank);
      level.data.push_back(std::move(fab));
    }
    data.levels.push_back(std::move(level));
  }
  BufferPool::global().release(std::move(payload));
  return data;
}

PlotFileData read_plotfile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  XL_REQUIRE(is.good(), "cannot open plotfile: " + path);
  return read_plotfile(is);
}

AmrHierarchy hierarchy_from_plotfile(const PlotFileData& data, const AmrConfig& config) {
  XL_REQUIRE(!data.levels.empty(), "plotfile has no levels");
  XL_REQUIRE(config.base_domain == data.levels.front().domain,
             "config base domain does not match plotfile");
  AmrHierarchy hierarchy(config, data.ncomp);

  // Rebuild the fine layouts with the recorded rank assignment, then copy
  // payloads level by level. A recorded rank must be one of the config's:
  // the layout sizes its per-rank totals by the rank count.
  std::vector<mesh::BoxLayout> fine_layouts;
  for (std::size_t l = 1; l < data.levels.size(); ++l) {
    const PlotLevel& level = data.levels[l];
    XL_REQUIRE(level.ranks.size() == level.boxes.size(),
               "plotfile level " + std::to_string(l) + " needs one rank per box");
    for (std::size_t i = 0; i < level.ranks.size(); ++i) {
      const int rank = level.ranks[i];
      if (rank >= 0 && rank < config.nranks) continue;
      std::ostringstream os;
      os << "plotfile level " << l << " box " << i << " " << level.boxes[i] << " has rank "
         << rank << ", outside [0, " << config.nranks << ")";
      throw ContractError(os.str());
    }
    fine_layouts.emplace_back(level.boxes, level.ranks, config.nranks);
  }
  hierarchy.regrid(fine_layouts);

  for (std::size_t l = 0; l < data.levels.size(); ++l) {
    AmrLevel& level = hierarchy.level(l);
    for (std::size_t i = 0; i < data.levels[l].boxes.size(); ++i) {
      const Box& src_box = data.levels[l].boxes[i];
      for (std::size_t j = 0; j < level.layout.num_boxes(); ++j) {
        const Box overlap = level.layout.box(j) & src_box;
        if (!overlap.empty()) {
          level.data[j].copy_from(data.levels[l].data[i], overlap);
        }
      }
    }
  }
  return hierarchy;
}

}  // namespace xl::amr
