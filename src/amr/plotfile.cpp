#include "amr/plotfile.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <numeric>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/output_file.hpp"

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
  if (!is.good()) throw ContractError("plotfile truncated");
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

/// Stream offset of the end of `is`; the read position is left unchanged.
std::streamoff stream_end(std::istream& is) {
  const std::streampos here = is.tellg();
  is.seekg(0, std::ios::end);
  const std::streampos end = is.tellg();
  is.seekg(here);
  if (here == std::streampos(-1) || end == std::streampos(-1) || !is.good()) {
    throw ContractError("plotfile stream is not seekable");
  }
  return end;
}

/// Payload bytes a non-empty box claims at `ncomp` doubles per cell. Extents
/// are taken in 64 bits (a box spanning INT_MIN..INT_MAX overflows int), and
/// the product saturates at kHugeClaim, more than any stream holds.
constexpr std::uint64_t kHugeClaim = std::numeric_limits<std::uint64_t>::max();

std::uint64_t payload_bytes(const Box& b, int ncomp) {
  std::uint64_t bytes = sizeof(double) * static_cast<std::uint64_t>(ncomp);
  for (int d = 0; d < mesh::kDim; ++d) {
    const auto extent =
        static_cast<std::uint64_t>(std::int64_t{b.hi()[d]} - b.lo()[d] + 1);
    if (bytes > kHugeClaim / extent) return kHugeClaim;
    bytes *= extent;
  }
  return bytes;
}

/// Throws, naming level `l` and both boxes, unless `boxes` are pairwise
/// disjoint. Sorted by low x, a box can only meet the boxes after it that
/// start within its x extent.
void require_disjoint(const std::vector<Box>& boxes, std::uint32_t l) {
  std::vector<std::size_t> order(boxes.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&boxes](std::size_t a, std::size_t b) {
    return boxes[a].lo()[0] < boxes[b].lo()[0];
  });
  for (std::size_t k = 0; k < order.size(); ++k) {
    const Box& a = boxes[order[k]];
    for (std::size_t m = k + 1; m < order.size() && boxes[order[m]].lo()[0] <= a.hi()[0]; ++m) {
      if (!a.intersects(boxes[order[m]])) continue;
      const auto [i, j] = std::minmax(order[k], order[m]);
      std::ostringstream os;
      os << "plotfile level " << l << " box " << j << " " << boxes[j] << " overlaps box " << i
         << " " << boxes[i];
      throw ContractError(os.str());
    }
  }
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
  // largest box once instead of a fresh vector per box.
  std::vector<double> payload;
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
  if (!os.good()) throw ContractError("plotfile write failed");
}

void write_plotfile(const std::string& path, const AmrHierarchy& hierarchy, int step,
                    double time) {
  write_file(path, "plotfile output",
             [&](std::ostream& os) { write_plotfile(os, hierarchy, step, time); });
}

PlotFileData read_plotfile(std::istream& is) {
  char magic[4];
  is.read(magic, sizeof(magic));
  if (!is.good() || std::memcmp(magic, kMagic, 4) != 0) {
    throw ContractError("not a plotfile (bad magic)");
  }
  const auto version = read_pod<std::uint32_t>(is);
  if (version != kVersion) throw ContractError("unsupported plotfile version");

  PlotFileData data;
  data.step = read_pod<std::int32_t>(is);
  data.time = read_pod<double>(is);
  data.ncomp = read_pod<std::int32_t>(is);
  data.ref_ratio = read_pod<std::int32_t>(is);
  if (data.ncomp < 1 || data.ncomp >= 1024) {
    throw ContractError("implausible component count");
  }
  if (data.ref_ratio < 2) {
    throw ContractError("plotfile ref_ratio " + std::to_string(data.ref_ratio) + " is below 2");
  }
  const auto num_levels = read_pod<std::uint32_t>(is);
  if (num_levels < 1 || num_levels >= 64) throw ContractError("implausible level count");
  const std::streamoff end = stream_end(is);

  // Mirror of the writer: one read buffer reused across all boxes.
  std::vector<double> payload;
  for (std::uint32_t l = 0; l < num_levels; ++l) {
    PlotLevel level;
    level.domain = read_box(is);
    if (level.domain.empty()) throw ContractError("empty level domain");
    const auto nboxes = read_pod<std::uint32_t>(is);
    for (std::uint32_t i = 0; i < nboxes; ++i) {
      const Box valid = read_box(is);
      if (valid.empty()) throw ContractError("empty box in plotfile");
      if (!level.domain.contains(valid)) throw ContractError("box outside level domain");
      const auto rank = read_pod<std::int32_t>(is);
      // Check the claim against the stream before allocating anything for it.
      const std::uint64_t need = payload_bytes(valid, data.ncomp);
      const auto left = static_cast<std::uint64_t>(end - std::streamoff(is.tellg()));
      if (need > left) {
        std::ostringstream os;
        os << "plotfile level " << l << " box " << i << " " << valid << " is missing "
           << (need == kHugeClaim ? "more than " : "") << need - left << " payload bytes";
        throw ContractError(os.str());
      }
      mesh::Fab fab(valid, data.ncomp);
      payload.resize(need / sizeof(double));
      is.read(reinterpret_cast<char*>(payload.data()), static_cast<std::streamsize>(need));
      if (!is.good()) throw ContractError("plotfile payload truncated");
      fab.unpack(valid, payload);
      level.boxes.push_back(valid);
      level.ranks.push_back(rank);
      level.data.push_back(std::move(fab));
    }
    require_disjoint(level.boxes, l);
    data.levels.push_back(std::move(level));
  }
  // A plotfile is the whole stream: junk appended, or a second file, is not
  // part of a valid one.
  const std::streamoff trailing = end - std::streamoff(is.tellg());
  if (trailing != 0) {
    throw ContractError("plotfile has " + std::to_string(trailing) +
                        " bytes after its last level");
  }
  return data;
}

PlotFileData read_plotfile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) throw ContractError("cannot open plotfile: " + path);
  return read_plotfile(is);
}

}  // namespace xl::amr
