#include "mesh/fab.hpp"

#include <cstring>

namespace xl::mesh {

void Fab::pack_into(const Box& region, std::vector<double>& buffer) const {
  const Box overlap = box_ & region;
  const std::size_t n = static_cast<std::size_t>(overlap.num_cells()) *
                        static_cast<std::size_t>(ncomp_);
  buffer.resize(n);
  if (!overlap.empty()) {
    const int x0 = overlap.lo()[0];
    const std::size_t nx = static_cast<std::size_t>(overlap.size()[0]);
    double* out = buffer.data();
    for (int c = 0; c < ncomp_; ++c) {
      for_each_row(overlap, [&](int j, int k) {
        std::memcpy(out, data_.data() + offset(IntVect{x0, j, k}, c),
                    nx * sizeof(double));
        out += nx;
      });
    }
  }
}

void Fab::unpack(const Box& region, std::span<const double> buffer) {
  const Box overlap = box_ & region;
  const std::size_t expected = static_cast<std::size_t>(overlap.num_cells()) *
                               static_cast<std::size_t>(ncomp_);
  XL_REQUIRE(buffer.size() == expected, "unpack buffer size mismatch");
  if (!overlap.empty()) {
    const int x0 = overlap.lo()[0];
    const std::size_t nx = static_cast<std::size_t>(overlap.size()[0]);
    const double* in = buffer.data();
    for (int c = 0; c < ncomp_; ++c) {
      for_each_row(overlap, [&](int j, int k) {
        std::memcpy(data_.data() + offset(IntVect{x0, j, k}, c), in,
                    nx * sizeof(double));
        in += nx;
      });
    }
  }
}

}  // namespace xl::mesh
