#include "analysis/downsample.hpp"

#include <algorithm>
#include <cmath>

#include "common/contract.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace xl::analysis {

using mesh::Box;
using mesh::BoxIterator;
using mesh::Fab;
using mesh::IntVect;

namespace {

// Round-toward-minus-infinity division, matching IntVect::coarsen on
// negative coordinates.
int floor_div(int a, int b) { return a >= 0 ? a / b : -((-a + b - 1) / b); }
int ceil_div(int a, int b) { return a >= 0 ? (a + b - 1) / b : -((-a) / b); }

/// One coarse cell the seed way: sum the (possibly clipped) children in
/// BoxIterator order, divide by their count. Used for every boundary cell so
/// clipped cells are trivially byte-identical to the seed path.
double average_cell_clipped(const Fab& src, const IntVect& coarse, int c,
                            int factor, double inv_vol) {
  const IntVect base = coarse.refine(IntVect::uniform(factor));
  const Box children = Box(base, base + (factor - 1)) & src.box();
  double sum = 0.0;
  // xl-lint: allow(row-loop): boundary cells reuse the seed per-cell path BY
  // CONTRACT — clipped children must accumulate in exact BoxIterator order so
  // edge cells stay byte-identical; at most one cell per box face runs here.
  for (BoxIterator fit(children); fit.ok(); ++fit) sum += src(*fit, c);
  return children.num_cells() == factor * factor * factor
             ? sum * inv_vol
             : sum / static_cast<double>(children.num_cells());
}

/// Interior coarse cells [cx_lo, cx_hi] of one coarse row: every child lies
/// inside src, so each sum runs dz -> dy -> dx, the exact BoxIterator order
/// of the unclipped children box. The row accumulates one child offset at a
/// time with the coarse-x loop innermost, so every factor shares one loop
/// the compiler can vectorize and each cell still gets 0.0 + child + child
/// ... in that order, then the scale.
void average_row_interior(const Fab& src, Fab& out, int c, int j, int k,
                          int cx_lo, int cx_hi, int factor, double inv_vol) {
  double* o = out.row(c, j, k) + (cx_lo - out.box().lo()[0]);
  const auto n = static_cast<std::size_t>(cx_hi - cx_lo + 1);
  const auto f = static_cast<std::size_t>(factor);
  std::fill(o, o + n, 0.0);
  for (int dz = 0; dz < factor; ++dz) {
    for (int dy = 0; dy < factor; ++dy) {
      const double* p = src.row(c, factor * j + dy, factor * k + dz) +
                        (factor * cx_lo - src.box().lo()[0]);
      for (std::size_t dx = 0; dx < f; ++dx) {
        for (std::size_t i = 0; i < n; ++i) o[i] += p[f * i + dx];
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) o[i] *= inv_vol;
}

}  // namespace

Fab downsample(const Fab& src, int factor, DownsampleMethod method) {
  XL_REQUIRE(factor >= 1, "downsample factor must be >= 1");
  if (factor == 1) {
    Fab copy(src.box(), src.ncomp());
    copy.copy_from(src, src.box());
    return copy;
  }
  const IntVect rvec = IntVect::uniform(factor);
  const Box coarse_box = src.box().coarsen(rvec);
  Fab out(coarse_box, src.ncomp());
  const double inv_vol = 1.0 / static_cast<double>(factor) / factor / factor;
  const IntVect slo = src.box().lo(), shi = src.box().hi();
  // Interior coarse x-range: cells whose children [cx*f, cx*f + f - 1] sit
  // fully inside the source x-extent. Outside it (at most one cell per end)
  // the children box is clipped and handled by the seed per-cell path.
  const int cx_in_lo = std::max(coarse_box.lo()[0], ceil_div(slo[0], factor));
  const int cx_in_hi =
      std::min(coarse_box.hi()[0], floor_div(shi[0] - factor + 1, factor));
  // Every coarse cell is computed independently and written in place:
  // identical output for any slab partition / thread count.
  const auto nz = static_cast<std::size_t>(coarse_box.size()[2]);
  parallel_for(ThreadPool::global(), 0, nz,
               [&](std::size_t zb, std::size_t ze) {
    const Box slab = mesh::z_slab(coarse_box, zb, ze);
    for (int c = 0; c < src.ncomp(); ++c) {
      mesh::for_each_row(slab, [&](int j, int k) {
        if (method == DownsampleMethod::Stride) {
          // Sample the first child cell that lies inside the source box (the
          // coarsened box can overhang when sizes are not multiples of f).
          const int pj = std::clamp(factor * j, slo[1], shi[1]);
          const int pk = std::clamp(factor * k, slo[2], shi[2]);
          const double* prow = src.row(c, pj, pk);
          double* orow = out.row(c, j, k);
          for (int cx = coarse_box.lo()[0]; cx <= coarse_box.hi()[0]; ++cx) {
            const int px = std::clamp(factor * cx, slo[0], shi[0]);
            orow[cx - coarse_box.lo()[0]] = prow[px - slo[0]];
          }
          return;
        }
        // Average: rows whose child y/z planes are clipped fall back to the
        // per-cell path wholesale; interior rows split into [lo-edge | fast
        // interior | hi-edge] runs.
        const bool yz_interior = factor * j >= slo[1] &&
                                 factor * j + factor - 1 <= shi[1] &&
                                 factor * k >= slo[2] &&
                                 factor * k + factor - 1 <= shi[2];
        double* orow = out.row(c, j, k);
        const int clo = coarse_box.lo()[0], chi = coarse_box.hi()[0];
        if (!yz_interior || cx_in_lo > cx_in_hi) {
          for (int cx = clo; cx <= chi; ++cx) {
            orow[cx - clo] =
                average_cell_clipped(src, IntVect{cx, j, k}, c, factor, inv_vol);
          }
          return;
        }
        for (int cx = clo; cx < cx_in_lo; ++cx) {
          orow[cx - clo] =
              average_cell_clipped(src, IntVect{cx, j, k}, c, factor, inv_vol);
        }
        average_row_interior(src, out, c, j, k, cx_in_lo, cx_in_hi, factor,
                             inv_vol);
        for (int cx = cx_in_hi + 1; cx <= chi; ++cx) {
          orow[cx - clo] =
              average_cell_clipped(src, IntVect{cx, j, k}, c, factor, inv_vol);
        }
      });
    }
  });
  return out;
}

Fab upsample_constant(const Fab& coarse, const Box& target, int factor) {
  XL_REQUIRE(factor >= 1, "upsample factor must be >= 1");
  Fab out(target, coarse.ncomp());
  const IntVect clo = coarse.box().lo(), chi = coarse.box().hi();
  for (int c = 0; c < coarse.ncomp(); ++c) {
    mesh::for_each_row(target, [&](int j, int k) {
      const int pj = std::clamp(floor_div(j, factor), clo[1], chi[1]);
      const int pk = std::clamp(floor_div(k, factor), clo[2], chi[2]);
      const double* prow = coarse.row(c, pj, pk);
      double* orow = out.row(c, j, k);
      for (int x = target.lo()[0]; x <= target.hi()[0]; ++x) {
        const int px = std::clamp(floor_div(x, factor), clo[0], chi[0]);
        orow[x - target.lo()[0]] = prow[px - clo[0]];
      }
    });
  }
  return out;
}

std::size_t reduced_bytes(std::size_t raw_cells, int ncomp, int factor) {
  XL_REQUIRE(factor >= 1, "factor must be >= 1");
  const std::size_t f3 = static_cast<std::size_t>(factor) * factor * factor;
  const std::size_t cells = (raw_cells + f3 - 1) / f3;
  return cells * static_cast<std::size_t>(ncomp) * sizeof(double);
}

std::size_t reduction_scratch_bytes(std::size_t raw_cells, int ncomp, int factor,
                                    DownsampleMethod method) {
  // The reduced copy itself...
  std::size_t scratch = reduced_bytes(raw_cells, ncomp, factor);
  // ...plus, for averaging, a row of accumulators (modelled as one plane of
  // the raw data: the kernel streams plane by plane).
  if (method == DownsampleMethod::Average) {
    const auto plane = f2s(std::cbrt(static_cast<double>(raw_cells)) *
                           std::cbrt(static_cast<double>(raw_cells)));
    scratch += plane * static_cast<std::size_t>(ncomp) * sizeof(double);
  }
  return scratch;
}

}  // namespace xl::analysis
