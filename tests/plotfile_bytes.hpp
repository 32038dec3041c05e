// Hand-built plotfile bytes, shared by the plotfile tests and the allocation
// test of a rejected read.
#pragma once

#include <cstdint>
#include <ios>
#include <sstream>
#include <string>

#include "mesh/box.hpp"

namespace xl::plotfile_bytes {

/// `b` as the plotfile records it: six int32 corners.
inline std::string box_bytes(const mesh::Box& b) {
  std::string out;
  for (const mesh::IntVect& corner : {b.lo(), b.hi()}) {
    for (int d = 0; d < mesh::kDim; ++d) {
      const std::int32_t v = corner[d];
      out.append(reinterpret_cast<const char*>(&v), sizeof v);
    }
  }
  return out;
}

/// A one-level plotfile header whose domain and only box are `box`, ending
/// right after the box's rank: the payload it claims is missing.
inline std::string header_claiming(const mesh::Box& box) {
  std::ostringstream os(std::ios::binary);
  auto put = [&os](auto v) { os.write(reinterpret_cast<const char*>(&v), sizeof(v)); };
  os.write("XLPF", 4);
  put(std::uint32_t{1});  // version
  put(std::int32_t{0});   // step
  put(0.0);               // time
  put(std::int32_t{1});   // ncomp
  put(std::int32_t{2});   // ref_ratio
  put(std::uint32_t{1});  // num_levels
  os << box_bytes(box);   // level domain
  put(std::uint32_t{1});  // nboxes
  os << box_bytes(box);
  put(std::int32_t{0});  // rank
  return os.str();
}

}  // namespace xl::plotfile_bytes
