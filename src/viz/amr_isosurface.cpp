#include "viz/amr_isosurface.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/thread_pool.hpp"

namespace xl::viz {

using amr::AmrHierarchy;
using mesh::Box;
using mesh::IntVect;

namespace {

/// One flag per cell of `valid`, in BoxIterator order: set where the cell lies
/// in one of `covering`. With the finer level's boxes coarsened to this level,
/// the unset cells are exactly those whose children no finer box meets.
std::vector<std::uint8_t> coverage_mask(const Box& valid, const std::vector<Box>& covering) {
  std::vector<std::uint8_t> mask(static_cast<std::size_t>(valid.num_cells()), 0);
  const IntVect n = valid.size();
  for (const Box& cover : covering) {
    const Box hit = cover & valid;
    if (hit.empty()) continue;
    const auto nx = static_cast<std::size_t>(hit.size()[0]);
    mesh::for_each_row(hit, [&](int j, int k) {
      const auto start = static_cast<std::size_t>(
          (hit.lo()[0] - valid.lo()[0]) +
          n[0] * ((j - valid.lo()[1]) + n[1] * (k - valid.lo()[2])));
      std::fill_n(mask.begin() + static_cast<std::ptrdiff_t>(start), nx, std::uint8_t{1});
    });
  }
  return mask;
}

}  // namespace

TriangleMesh extract_amr_isosurface(const AmrHierarchy& hierarchy, double isovalue,
                                    int comp, double dx0, IsosurfaceStats* stats) {
  TriangleMesh mesh;
  double dx = dx0;
  ThreadPool& pool = ThreadPool::global();
  for (std::size_t lev = 0; lev < hierarchy.num_levels(); ++lev) {
    const amr::AmrLevel& level = hierarchy.level(lev);
    const std::size_t nboxes = level.layout.num_boxes();
    const bool finest = lev + 1 == hierarchy.num_levels();
    // The next level's boxes coarsened to this one cover the cells it refines.
    std::vector<Box> covered_by_finer;
    if (!finest) {
      for (const Box& b : hierarchy.level(lev + 1).layout.boxes()) {
        covered_by_finer.push_back(b.coarsen(hierarchy.config().ref_ratio));
      }
    }
    // Boxes are independent: extract each into its own part mesh, then append
    // in box order — identical to the serial traversal for any thread count.
    // With few boxes the box loop runs on the caller and the per-box
    // extraction parallelizes internally instead (nested loops run inline).
    std::vector<TriangleMesh> parts(nboxes);
    std::vector<std::size_t> scanned(nboxes, 0);
    std::vector<std::size_t> active(nboxes, 0);
    parallel_for(pool, 0, nboxes, [&](std::size_t blo, std::size_t bhi) {
      for (std::size_t i = blo; i < bhi; ++i) {
        const Box valid = level.layout.box(i);
        if (finest) {
          // Finest level: extract over the whole valid region at once.
          parts[i] = extract_isosurface(level.data[i], valid, isovalue, comp, dx);
          if (stats) {
            scanned[i] = static_cast<std::size_t>(valid.num_cells());
            active[i] = count_active_cells(level.data[i], valid, isovalue, comp);
          }
        } else {
          // Masked extraction: one scan per maximal run of cells no finer
          // data covers. A run visits its cells in the same x order as one
          // scan per cell, so the vertices append in the same order.
          const std::vector<std::uint8_t> covered = coverage_mask(valid, covered_by_finer);
          const int x0 = valid.lo()[0];
          const int nx = valid.size()[0];
          const std::uint8_t* row_mask = covered.data();
          mesh::for_each_row(valid, [&](int j, int k) {
            for (int x = 0; x < nx;) {
              if (row_mask[x] != 0) {
                ++x;
                continue;
              }
              const int run_lo = x;
              while (x < nx && row_mask[x] == 0) ++x;
              const Box run({x0 + run_lo, j, k}, {x0 + x - 1, j, k});
              parts[i].append(extract_isosurface(level.data[i], run, isovalue, comp, dx));
              if (stats) {
                scanned[i] += static_cast<std::size_t>(x - run_lo);
                active[i] += count_active_cells(level.data[i], run, isovalue, comp);
              }
            }
            row_mask += nx;
          });
        }
      }
    });
    // Reserve the level's full contribution before the ordered merge so the
    // cumulative mesh grows once per level, not once per re-allocation.
    std::size_t level_vertices = 0;
    for (const TriangleMesh& part : parts) level_vertices += part.vertices.size();
    mesh.vertices.reserve(mesh.vertices.size() + level_vertices);
    for (std::size_t i = 0; i < nboxes; ++i) {
      mesh.append(parts[i]);
      if (stats) {
        stats->cells_scanned += scanned[i];
        stats->active_cells += active[i];
      }
    }
    dx /= static_cast<double>(hierarchy.config().ref_ratio);
  }
  if (stats) stats->triangles = mesh.triangle_count();
  return mesh;
}

}  // namespace xl::viz
