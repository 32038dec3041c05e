// Axis-aligned index boxes: the unit of domain decomposition in
// block-structured AMR (Chombo's Box). A Box is the cell-centered region
// [lo, hi] inclusive on the integer lattice; an empty box is represented
// canonically with lo > hi in every dimension.
#pragma once

#include <cstdint>
#include <ostream>
#include <vector>

#include "common/contract.hpp"
#include "mesh/intvect.hpp"

namespace xl::mesh {

class Box {
 public:
  /// Default-constructed box is empty.
  Box() : lo_(IntVect::unit()), hi_(IntVect::zero()) {}

  /// Inclusive corners; a box with any lo[d] > hi[d] is empty.
  Box(const IntVect& lo, const IntVect& hi) : lo_(lo), hi_(hi) {
    if (empty()) *this = Box();
  }

  /// Cube of side `n` with low corner at `lo`.
  static Box cube(const IntVect& lo, int n) {
    XL_REQUIRE(n > 0, "cube side must be positive");
    return Box(lo, lo + (n - 1));
  }

  /// Box covering [0, size) in each dimension.
  static Box domain(const IntVect& size) {
    XL_REQUIRE(size.all_ge(IntVect::unit()), "domain size must be positive");
    return Box(IntVect::zero(), size - 1);
  }

  const IntVect& lo() const noexcept { return lo_; }
  const IntVect& hi() const noexcept { return hi_; }

  bool empty() const noexcept {
    return lo_[0] > hi_[0] || lo_[1] > hi_[1] || lo_[2] > hi_[2];
  }

  /// Edge lengths in cells (0 if empty).
  IntVect size() const noexcept {
    if (empty()) return IntVect::zero();
    return hi_ - lo_ + 1;
  }

  /// Number of cells.
  std::int64_t num_cells() const noexcept { return empty() ? 0 : size().product(); }

  bool contains(const IntVect& p) const noexcept {
    return !empty() && lo_.all_le(p) && p.all_le(hi_);
  }
  bool contains(const Box& b) const noexcept {
    return b.empty() || (contains(b.lo_) && contains(b.hi_));
  }
  bool intersects(const Box& b) const noexcept { return !(*this & b).empty(); }

  bool operator==(const Box& o) const noexcept {
    return (empty() && o.empty()) || (lo_ == o.lo_ && hi_ == o.hi_);
  }
  bool operator!=(const Box& o) const noexcept { return !(*this == o); }

  /// Intersection (empty if disjoint).
  Box operator&(const Box& o) const noexcept {
    if (empty() || o.empty()) return Box();
    return Box(lo_.max(o.lo_), hi_.min(o.hi_));
  }

  /// Grow by `n` cells on every face (negative shrinks).
  Box grow(int n) const noexcept {
    if (empty()) return Box();
    return Box(lo_ - n, hi_ + n);
  }
  Box grow(const IntVect& n) const noexcept {
    if (empty()) return Box();
    return Box(lo_ - n, hi_ + n);
  }

  Box shift(const IntVect& offset) const noexcept {
    if (empty()) return Box();
    return Box(lo_ + offset, hi_ + offset);
  }

  /// Refine every cell by `ratio` (each coarse cell becomes ratio^3 fine cells).
  Box refine(const IntVect& ratio) const {
    if (empty()) return Box();
    return Box(lo_.refine(ratio), (hi_ + 1).refine(ratio) - 1);
  }
  Box refine(int r) const { return refine(IntVect::uniform(r)); }

  /// Coarsen by `ratio`; covers every coarse cell any fine cell maps into.
  Box coarsen(const IntVect& ratio) const {
    if (empty()) return Box();
    return Box(lo_.coarsen(ratio), hi_.coarsen(ratio));
  }
  Box coarsen(int r) const { return coarsen(IntVect::uniform(r)); }

  /// Split along dimension `dim` at absolute coordinate `at`: returns the part
  /// with coordinates < at; *this keeps the rest. `at` must cut strictly inside.
  Box chop(int dim, int at);

  /// Subtract `o` from this box, appending the (up to 6) disjoint remainder
  /// boxes to `out`.
  void subtract(const Box& o, std::vector<Box>& out) const;

  /// Linear offset of point `p` inside this box (Fortran order: x fastest).
  std::int64_t index_of(const IntVect& p) const {
    XL_REQUIRE(contains(p), "point outside box");
    const IntVect s = size();
    const IntVect r = p - lo_;
    const std::int64_t offset =
        r[0] + static_cast<std::int64_t>(s[0]) * (r[1] + static_cast<std::int64_t>(s[1]) * r[2]);
    XL_ASSERT_DBG(offset >= 0 && offset < num_cells(),
                  "linear offset " << offset << " outside [0, " << num_cells() << ")");
    return offset;
  }

  /// Longest edge dimension (ties broken by lowest dim).
  int longest_dim() const noexcept {
    const IntVect s = size();
    int best = 0;
    for (int d = 1; d < kDim; ++d) {
      if (s[d] > s[best]) best = d;
    }
    return best;
  }

 private:
  IntVect lo_;
  IntVect hi_;
};

std::ostream& operator<<(std::ostream& os, const Box& b);

/// Sub-box of `b` covering rows [zlo, zhi) of its z extent (z is the
/// slowest-varying BoxIterator dimension, so slabs taken in order traverse
/// exactly the serial iteration order — the parallel kernels rely on this to
/// merge per-slab results bit-identically to a serial run).
inline Box z_slab(const Box& b, std::size_t zlo, std::size_t zhi) {
  XL_REQUIRE(zlo < zhi && zhi <= static_cast<std::size_t>(b.size()[2]),
             "z-slab range outside box");
  IntVect lo = b.lo(), hi = b.hi();
  lo[2] = b.lo()[2] + static_cast<int>(zlo);
  hi[2] = b.lo()[2] + static_cast<int>(zhi) - 1;
  return Box(lo, hi);
}

/// Visit every contiguous x-row of `b` in Fortran order: fn(j, k) is called
/// for y = j, z = k with j varying fastest, matching BoxIterator's traversal
/// of the same box row by row. The row-based kernels pair this with
/// Fab::row(c, j, k) so the inner x loop is a flat pointer walk — one bounds
/// check per row instead of per cell — while preserving the serial visit
/// order the determinism contract fixes.
template <typename Fn>
inline void for_each_row(const Box& b, Fn&& fn) {
  for (int k = b.lo()[2]; k <= b.hi()[2]; ++k) {
    for (int j = b.lo()[1]; j <= b.hi()[1]; ++j) {
      fn(j, k);
    }
  }
}

/// Iterate the cells of a box in Fortran order. Usage:
///   for (BoxIterator it(b); it.ok(); ++it) { const IntVect& p = *it; ... }
class BoxIterator {
 public:
  explicit BoxIterator(const Box& b) : box_(b), cur_(b.lo()), ok_(!b.empty()) {}

  bool ok() const noexcept { return ok_; }
  const IntVect& operator*() const noexcept { return cur_; }

  BoxIterator& operator++() {
    for (int d = 0; d < kDim; ++d) {
      if (++cur_[d] <= box_.hi()[d]) return *this;
      cur_[d] = box_.lo()[d];
    }
    ok_ = false;
    return *this;
  }

 private:
  Box box_;
  IntVect cur_;
  bool ok_;
};

}  // namespace xl::mesh
