#include "viz/marching_cubes.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "viz/mc_tables.hpp"

namespace xl::viz {

using mesh::Box;
using mesh::Fab;

namespace {

/// Interpolate the crossing point on the edge between corner values va, vb at
/// lattice positions pa, pb.
Vec3 interp_vertex(const Vec3& pa, const Vec3& pb, double va, double vb, double iso) {
  const double denom = vb - va;
  double t = std::fabs(denom) < 1e-300 ? 0.5 : (iso - va) / denom;
  t = std::clamp(t, 0.0, 1.0);
  return {pa.x + t * (pb.x - pa.x), pa.y + t * (pb.y - pa.y), pa.z + t * (pb.z - pa.z)};
}

/// Cells whose full corner cube (p .. p+1) lies inside the fab. The seed
/// per-cell scan returned -1 (no output) for any cell with an out-of-fab
/// corner, so clipping the scan to this box up front is output-identical.
Box valid_corner_cells(const Fab& fab, const Box& region) {
  return Box(fab.box().lo(), fab.box().hi() - 1) & region;
}

/// Load the 8 cube corners of cell x0+i from the four cached row pointers
/// (PolyVox-style slice caching: the rows at (j,k), (j+1,k), (j,k+1),
/// (j+1,k+1) serve every cell of the row; only the x index moves). Corner
/// numbering follows kCornerOffset. Returns the cube configuration index.
int cube_index_rows(const double* r00, const double* r10, const double* r01,
                    const double* r11, std::size_t i, double iso,
                    double corner[8]) {
  corner[0] = r00[i];
  corner[1] = r00[i + 1];
  corner[2] = r10[i + 1];
  corner[3] = r10[i];
  corner[4] = r01[i];
  corner[5] = r01[i + 1];
  corner[6] = r11[i + 1];
  corner[7] = r11[i];
  int index = 0;
  for (int c = 0; c < 8; ++c) {
    if (corner[c] < iso) index |= 1 << c;
  }
  return index;
}

/// Serial triangulation over `region`, appended to `mesh` in iteration order.
void extract_into(const Fab& fab, const Box& region, double isovalue, int comp,
                  double dx, const Vec3& origin, TriangleMesh& mesh) {
  const Box scan = valid_corner_cells(fab, region);
  if (scan.empty()) return;
  const int x0 = scan.lo()[0];
  const auto nx = static_cast<std::size_t>(scan.size()[0]);
  const auto xoff = static_cast<std::size_t>(x0 - fab.box().lo()[0]);
  double corner[8];
  Vec3 edge_vertex[12];
  mesh::for_each_row(scan, [&](int j, int k) {
    const double* r00 = fab.row(comp, j, k) + xoff;
    const double* r10 = fab.row(comp, j + 1, k) + xoff;
    const double* r01 = fab.row(comp, j, k + 1) + xoff;
    const double* r11 = fab.row(comp, j + 1, k + 1) + xoff;
    for (std::size_t i = 0; i < nx; ++i) {
      const int index =
          cube_index_rows(r00, r10, r01, r11, i, isovalue, corner);
      if (index == 0 || index == 255) continue;
      const std::uint16_t edges = kEdgeTable[index];
      if (edges == 0) continue;
      const int px = x0 + static_cast<int>(i);
      for (int e = 0; e < 12; ++e) {
        if (!(edges & (1u << e))) continue;
        const int a = kEdgeCorners[e][0];
        const int b = kEdgeCorners[e][1];
        const Vec3 pa{origin.x + (px + kCornerOffset[a][0] + 0.5) * dx,
                      origin.y + (j + kCornerOffset[a][1] + 0.5) * dx,
                      origin.z + (k + kCornerOffset[a][2] + 0.5) * dx};
        const Vec3 pb{origin.x + (px + kCornerOffset[b][0] + 0.5) * dx,
                      origin.y + (j + kCornerOffset[b][1] + 0.5) * dx,
                      origin.z + (k + kCornerOffset[b][2] + 0.5) * dx};
        edge_vertex[e] = interp_vertex(pa, pb, corner[a], corner[b], isovalue);
      }
      for (int t = 0; kTriTable[index][t] != -1; t += 3) {
        mesh.vertices.push_back(edge_vertex[kTriTable[index][t]]);
        mesh.vertices.push_back(edge_vertex[kTriTable[index][t + 1]]);
        mesh.vertices.push_back(edge_vertex[kTriTable[index][t + 2]]);
      }
    }
  });
}

/// Serial count of the cells of `region` whose cube configuration is neither
/// all inside nor all outside.
std::size_t count_into(const Fab& fab, const Box& region, double isovalue, int comp) {
  const Box scan = valid_corner_cells(fab, region);
  if (scan.empty()) return 0;
  std::size_t active = 0;
  double corner[8];
  const auto nx = static_cast<std::size_t>(scan.size()[0]);
  const auto xoff = static_cast<std::size_t>(scan.lo()[0] - fab.box().lo()[0]);
  mesh::for_each_row(scan, [&](int j, int k) {
    const double* r00 = fab.row(comp, j, k) + xoff;
    const double* r10 = fab.row(comp, j + 1, k) + xoff;
    const double* r01 = fab.row(comp, j, k + 1) + xoff;
    const double* r11 = fab.row(comp, j + 1, k + 1) + xoff;
    for (std::size_t i = 0; i < nx; ++i) {
      const int index = cube_index_rows(r00, r10, r01, r11, i, isovalue, corner);
      if (index > 0 && index < 255) ++active;
    }
  });
  return active;
}

}  // namespace

TriangleMesh extract_isosurface(const Fab& fab, const Box& region, double isovalue,
                                int comp, double dx, const Vec3& origin) {
  XL_REQUIRE(comp >= 0 && comp < fab.ncomp(), "component out of range");
  if (region.empty()) return {};
  ThreadPool& pool = ThreadPool::global();
  const auto nz = static_cast<std::size_t>(region.size()[2]);
  const std::size_t nchunks = parallel_chunk_count(pool, nz);
  if (nchunks <= 1) {
    TriangleMesh mesh;
    extract_into(fab, region, isovalue, comp, dx, origin, mesh);
    return mesh;
  }
  // Per-slab meshes appended in slab order reproduce the serial vertex order
  // exactly (slabs partition the region along the slowest iteration axis).
  std::vector<TriangleMesh> parts(nchunks);
  parallel_for_chunks(pool, 0, nz,
                      [&](std::size_t c, std::size_t zb, std::size_t ze) {
    extract_into(fab, mesh::z_slab(region, zb, ze), isovalue, comp, dx, origin,
                 parts[c]);
  });
  // Size the destination from the partial sizes up front: the ordered merge
  // then copies each slab exactly once instead of re-growing the vector.
  std::size_t total_vertices = 0;
  for (const TriangleMesh& part : parts) total_vertices += part.vertices.size();
  TriangleMesh mesh;
  mesh.vertices.reserve(total_vertices);
  for (TriangleMesh& part : parts) mesh.append(part);
  return mesh;
}

std::size_t count_active_cells(const Fab& fab, const Box& region, double isovalue,
                               int comp) {
  if (region.empty()) return 0;
  ThreadPool& pool = ThreadPool::global();
  const auto nz = static_cast<std::size_t>(region.size()[2]);
  const std::size_t nchunks = parallel_chunk_count(pool, nz);
  if (nchunks <= 1) return count_into(fab, region, isovalue, comp);
  std::vector<std::size_t> slab_active(nchunks, 0);
  parallel_for_chunks(pool, 0, nz,
                      [&](std::size_t c, std::size_t zb, std::size_t ze) {
    slab_active[c] = count_into(fab, mesh::z_slab(region, zb, ze), isovalue, comp);
  });
  std::size_t active = 0;
  for (std::size_t a : slab_active) active += a;
  return active;
}

}  // namespace xl::viz
