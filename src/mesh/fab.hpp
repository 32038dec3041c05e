// FArrayBox-style dense field storage: `ncomp` double components over the
// cells of a Box, Fortran-ordered (x fastest, component slowest). This is the
// in-memory representation every kernel (Godunov sweeps, marching cubes,
// downsampling, entropy) operates on.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "mesh/box.hpp"

namespace xl::mesh {

class Fab {
 public:
  Fab() = default;

  /// The checks run before the store is sized: a negative component count
  /// would otherwise wrap to a huge size_t request.
  Fab(const Box& box, int ncomp, double fill = 0.0) : box_(box), ncomp_(ncomp) {
    XL_REQUIRE(ncomp > 0, "Fab needs at least one component");
    XL_REQUIRE(!box.empty(), "Fab over an empty box");
    data_.assign(static_cast<std::size_t>(box.num_cells()) * static_cast<std::size_t>(ncomp),
                 fill);
  }

  const Box& box() const noexcept { return box_; }
  int ncomp() const noexcept { return ncomp_; }
  std::int64_t cells() const noexcept { return box_.num_cells(); }
  std::size_t size() const noexcept { return data_.size(); }
  bool defined() const noexcept { return !data_.empty(); }

  /// Bytes of payload (what staging transfers account).
  std::size_t bytes() const noexcept { return data_.size() * sizeof(double); }

  double& operator()(const IntVect& p, int comp = 0) {
    return data_[offset(p, comp)];
  }
  const double& operator()(const IntVect& p, int comp = 0) const {
    return data_[offset(p, comp)];
  }

  /// Element strides of the Fortran-ordered store: one y row, one z plane,
  /// one component. A kernel that has checked its region against box()
  /// takes one pointer with operator() and steps these from there.
  struct Strides {
    std::size_t y, z, c;
  };
  Strides strides() const noexcept { return dense_strides(box_.size()); }

  /// Pointer to the contiguous x-row of component `c` at y = j, z = k:
  /// row(c, j, k)[i] is the cell (box().lo()[0] + i, j, k) for
  /// 0 <= i < row_length(). Storage is Fortran-ordered, so the whole row is
  /// one flat stretch of memory — the hot kernels walk it with a single
  /// bounds check here instead of one per cell. Rows of a ghosted fab span
  /// ghost and valid cells alike; callers clip with an x offset
  /// (`row(...) + (sub.lo()[0] - box().lo()[0])`) to address a sub-box row.
  double* row(int c, int j, int k) {
    return data_.data() + offset(IntVect{box_.lo()[0], j, k}, c);
  }
  const double* row(int c, int j, int k) const {
    return data_.data() + offset(IntVect{box_.lo()[0], j, k}, c);
  }

  /// Cells per x-row (the box x extent).
  std::size_t row_length() const noexcept {
    return static_cast<std::size_t>(box_.size()[0]);
  }

  /// Flat view of one component, Fortran-ordered over the box.
  std::span<double> comp(int c) {
    XL_REQUIRE(c >= 0 && c < ncomp_, "component out of range");
    return {data_.data() + static_cast<std::size_t>(cells()) * static_cast<std::size_t>(c),
            static_cast<std::size_t>(cells())};
  }
  std::span<const double> comp(int c) const {
    XL_REQUIRE(c >= 0 && c < ncomp_, "component out of range");
    return {data_.data() + static_cast<std::size_t>(cells()) * static_cast<std::size_t>(c),
            static_cast<std::size_t>(cells())};
  }

  std::span<double> flat() noexcept { return data_; }
  std::span<const double> flat() const noexcept { return data_; }

  void set_all(double value) { std::fill(data_.begin(), data_.end(), value); }

  /// Copy the overlap of `src` (restricted to `region`) into this fab, all
  /// components. Regions outside either box are ignored.
  void copy_from(const Fab& src, const Box& region);

  /// Copy overlap of src shifted by `shift`: dest(p) = src(p - shift).
  /// Used for periodic ghost exchange where the source box is wrapped. The
  /// per-cell contains() guard of the seed path is the intersection with the
  /// shifted source box, so only that active region is copied.
  void copy_from_shifted(const Fab& src, const Box& dest_region, const IntVect& shift);

  /// Linearize the overlap of this fab with `region` (all components) into
  /// caller-owned scratch — the wire format the transport layer ships.
  /// `buffer` is resized (reusing its capacity when large enough) and fully
  /// overwritten, so callers looping over many boxes keep one buffer hot
  /// instead of allocating per box.
  void pack_into(const Box& region, std::vector<double>& buffer) const;

  /// Inverse of pack_into(): scatter `buffer` into the overlap with `region`.
  void unpack(const Box& region, std::span<const double> buffer);

 private:
  std::size_t offset(const IntVect& p, int comp) const {
    XL_REQUIRE(comp >= 0 && comp < ncomp_, "component out of range");
    return static_cast<std::size_t>(box_.index_of(p)) +
           static_cast<std::size_t>(cells()) * static_cast<std::size_t>(comp);
  }

  /// The strides of a dense store of `n` cells (a fab's, or a packed buffer's).
  static Strides dense_strides(const IntVect& n) noexcept {
    const auto row = static_cast<std::size_t>(n[0]);
    const auto plane = row * static_cast<std::size_t>(n[1]);
    return {row, plane, plane * static_cast<std::size_t>(n[2])};
  }

  /// The one row walk behind every copy: `ncomp` components of a box of `n`
  /// cells, x-row by x-row, from `src` to `dst`, each side stepping its own
  /// strides from its first cell.
  static void copy_rows(const IntVect& n, int ncomp, double* dst, const Strides& ds,
                        const double* src, const Strides& ss);

  Box box_;
  int ncomp_ = 0;
  std::vector<double> data_;
};

}  // namespace xl::mesh
