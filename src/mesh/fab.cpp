#include "mesh/fab.hpp"

namespace xl::mesh {

void Fab::copy_rows(const IntVect& n, int ncomp, double* dst, const Strides& ds,
                    const double* src, const Strides& ss) {
  const auto nx = static_cast<std::size_t>(n[0]);
  for (int c = 0; c < ncomp; ++c) {
    double* dz = dst;
    const double* sz = src;
    for (int k = 0; k < n[2]; ++k) {
      double* d = dz;
      const double* s = sz;
      for (int j = 0; j < n[1]; ++j) {
        // A plain loop, not memcpy: most ghost-exchange rows hold 2 to 4
        // doubles, and for those the inline loop beats a library call.
        for (std::size_t i = 0; i < nx; ++i) d[i] = s[i];
        d += ds.y;
        s += ss.y;
      }
      dz += ds.z;
      sz += ss.z;
    }
    dst += ds.c;
    src += ss.c;
  }
}

void Fab::copy_from(const Fab& src, const Box& region) {
  XL_REQUIRE(src.ncomp_ == ncomp_, "component count mismatch in copy");
  const Box overlap = box_ & src.box_ & region;
  if (overlap.empty()) return;
  copy_rows(overlap.size(), ncomp_, data_.data() + offset(overlap.lo(), 0),
            strides(), src.data_.data() + src.offset(overlap.lo(), 0), src.strides());
}

void Fab::copy_from_shifted(const Fab& src, const Box& dest_region, const IntVect& shift) {
  XL_REQUIRE(src.ncomp_ == ncomp_, "component count mismatch in copy");
  const Box active = box_ & dest_region & src.box_.shift(shift);
  if (active.empty()) return;
  copy_rows(active.size(), ncomp_, data_.data() + offset(active.lo(), 0),
            strides(), src.data_.data() + src.offset(active.lo() - shift, 0), src.strides());
}

void Fab::pack_into(const Box& region, std::vector<double>& buffer) const {
  const Box overlap = box_ & region;
  buffer.resize(static_cast<std::size_t>(overlap.num_cells()) *
                static_cast<std::size_t>(ncomp_));
  if (overlap.empty()) return;
  copy_rows(overlap.size(), ncomp_, buffer.data(), dense_strides(overlap.size()),
            data_.data() + offset(overlap.lo(), 0), strides());
}

void Fab::unpack(const Box& region, std::span<const double> buffer) {
  const Box overlap = box_ & region;
  const std::size_t expected = static_cast<std::size_t>(overlap.num_cells()) *
                               static_cast<std::size_t>(ncomp_);
  XL_REQUIRE(buffer.size() == expected, "unpack buffer size mismatch");
  if (overlap.empty()) return;
  copy_rows(overlap.size(), ncomp_, data_.data() + offset(overlap.lo(), 0), strides(),
            buffer.data(), dense_strides(overlap.size()));
}

}  // namespace xl::mesh
