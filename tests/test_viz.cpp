// Tests for the visualization service: marching-cubes correctness (surface
// area, closedness, degenerate cases), OBJ output, and AMR-masked extraction.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "amr/hierarchy.hpp"
#include "common/error.hpp"
#include "viz/amr_isosurface.hpp"
#include "viz/marching_cubes.hpp"
#include "viz/mc_tables.hpp"
#include "viz/mesh_io.hpp"

namespace xl::viz {
namespace {

using mesh::Box;
using mesh::BoxIterator;
using mesh::Fab;
using mesh::IntVect;

double triangle_area(const Vec3& a, const Vec3& b, const Vec3& c) {
  const double ux = b.x - a.x, uy = b.y - a.y, uz = b.z - a.z;
  const double vx = c.x - a.x, vy = c.y - a.y, vz = c.z - a.z;
  const double cx = uy * vz - uz * vy;
  const double cy = uz * vx - ux * vz;
  const double cz = ux * vy - uy * vx;
  return 0.5 * std::sqrt(cx * cx + cy * cy + cz * cz);
}

double mesh_area(const TriangleMesh& m) {
  double area = 0.0;
  for (std::size_t t = 0; t < m.triangle_count(); ++t) {
    area += triangle_area(m.vertices[3 * t], m.vertices[3 * t + 1],
                          m.vertices[3 * t + 2]);
  }
  return area;
}

Fab sphere_field(int n, double radius_cells) {
  Fab f(Box::domain({n, n, n}), 1);
  const double c = n / 2.0;
  for (BoxIterator it(f.box()); it.ok(); ++it) {
    const double dx = (*it)[0] + 0.5 - c;
    const double dy = (*it)[1] + 0.5 - c;
    const double dz = (*it)[2] + 0.5 - c;
    f(*it) = std::sqrt(dx * dx + dy * dy + dz * dz) - radius_cells;
  }
  return f;
}

TEST(McTables, StructuralInvariants) {
  // Config 0 and 255 produce nothing.
  EXPECT_EQ(kEdgeTable[0], 0);
  EXPECT_EQ(kEdgeTable[255], 0);
  EXPECT_EQ(kTriTable[0][0], -1);
  EXPECT_EQ(kTriTable[255][0], -1);
  for (int i = 0; i < 256; ++i) {
    // Complementary configurations cut the same edges.
    EXPECT_EQ(kEdgeTable[i], kEdgeTable[255 - i]) << "config " << i;
    // Triangle lists only reference edges flagged in the edge table, and are
    // multiples of 3 long.
    int count = 0;
    for (int t = 0; t < 16 && kTriTable[i][t] != -1; ++t, ++count) {
      const int e = kTriTable[i][t];
      ASSERT_GE(e, 0);
      ASSERT_LT(e, 12);
      EXPECT_TRUE(kEdgeTable[i] & (1u << e)) << "config " << i << " edge " << e;
    }
    EXPECT_EQ(count % 3, 0) << "config " << i;
  }
}

TEST(McTables, SingleCornerMakesOneTriangle) {
  // Exactly one corner below the isovalue -> a single corner-cutting triangle.
  for (int corner = 0; corner < 8; ++corner) {
    const int config = 1 << corner;
    int tris = 0;
    for (int t = 0; kTriTable[config][t] != -1; t += 3) ++tris;
    EXPECT_EQ(tris, 1) << "corner " << corner;
  }
}

TEST(MarchingCubes, SphereAreaMatchesAnalytic) {
  const int n = 32;
  const double r = 10.0;
  const Fab f = sphere_field(n, r);
  const Box cells(f.box().lo(), f.box().hi() - 1);  // corner stencil needs +1
  const TriangleMesh m = extract_isosurface(f, cells, 0.0);
  EXPECT_GT(m.triangle_count(), 500u);
  const double area = mesh_area(m);
  const double analytic = 4.0 * M_PI * r * r;
  EXPECT_NEAR(area, analytic, 0.05 * analytic);
}

TEST(MarchingCubes, NoSurfaceWhenAllInsideOrOutside) {
  Fab f(Box::domain({8, 8, 8}), 1, 5.0);
  const Box cells(f.box().lo(), f.box().hi() - 1);
  EXPECT_EQ(extract_isosurface(f, cells, 0.0).triangle_count(), 0u);
  EXPECT_EQ(extract_isosurface(f, cells, 10.0).triangle_count(), 0u);
  EXPECT_EQ(count_active_cells(f, cells, 0.0), 0u);
}

TEST(MarchingCubes, PlaneIsosurfaceAreaAndPosition) {
  // f = x - 4.25 in cell units: the isosurface is the plane x = 4.25.
  const int n = 8;
  Fab f(Box::domain({n, n, n}), 1);
  for (BoxIterator it(f.box()); it.ok(); ++it) f(*it) = (*it)[0] + 0.5 - 4.25;
  const Box cells(f.box().lo(), f.box().hi() - 1);
  const TriangleMesh m = extract_isosurface(f, cells, 0.0);
  ASSERT_GT(m.triangle_count(), 0u);
  for (const Vec3& v : m.vertices) EXPECT_NEAR(v.x, 4.25, 1e-9);
  // Plane spans the cell-center lattice (n-1)^2 in y/z.
  EXPECT_NEAR(mesh_area(m), (n - 1.0) * (n - 1.0), 1e-6);
}

TEST(MarchingCubes, DxAndOriginScaleVertices) {
  Fab f(Box::domain({4, 4, 4}), 1);
  for (BoxIterator it(f.box()); it.ok(); ++it) f(*it) = (*it)[0] - 1.0;
  const Box cells(f.box().lo(), f.box().hi() - 1);
  const TriangleMesh unit = extract_isosurface(f, cells, 0.0, 0, 1.0, {});
  const TriangleMesh scaled = extract_isosurface(f, cells, 0.0, 0, 0.5, {10, 0, 0});
  ASSERT_EQ(unit.triangle_count(), scaled.triangle_count());
  for (std::size_t i = 0; i < unit.vertices.size(); ++i) {
    EXPECT_NEAR(scaled.vertices[i].x, 10.0 + 0.5 * unit.vertices[i].x, 1e-12);
    EXPECT_NEAR(scaled.vertices[i].y, 0.5 * unit.vertices[i].y, 1e-12);
  }
}

TEST(MarchingCubes, ActiveCellCountMatchesShell) {
  const Fab f = sphere_field(16, 5.0);
  const Box cells(f.box().lo(), f.box().hi() - 1);
  const std::size_t active = count_active_cells(f, cells, 0.0);
  EXPECT_GT(active, 0u);
  EXPECT_LT(active, static_cast<std::size_t>(cells.num_cells()) / 4);
}

TEST(MeshIo, ObjRoundTripStructure) {
  TriangleMesh m;
  m.vertices = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, 0, 1}, {0, 1, 1}};
  std::ostringstream os;
  write_obj(os, m, "test");
  const std::string out = os.str();
  EXPECT_NE(out.find("o test"), std::string::npos);
  EXPECT_NE(out.find("v 0 0 0"), std::string::npos);
  EXPECT_NE(out.find("f 1 2 3"), std::string::npos);
  EXPECT_NE(out.find("f 4 5 6"), std::string::npos);
  EXPECT_EQ(m.bytes(), 6 * sizeof(Vec3));
}

TEST(MeshIo, WriteObjFileFailuresNameThePath) {
  TriangleMesh m;
  m.vertices = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}};
  // /dev/full takes the open and fails the write, which shows only at close.
  for (const auto& [path, message] :
       {std::pair<std::string, std::string>{"/dev/full", "cannot write OBJ output: /dev/full"},
        {"no/such/dir/out.obj", "cannot open OBJ output: no/such/dir/out.obj"}}) {
    try {
      write_obj_file(path, m);
      ADD_FAILURE() << "writing " << path << " succeeded";
    } catch (const ContractError& e) {
      EXPECT_EQ(std::string(e.what()), message);
    }
  }
}

TEST(MeshIo, WriteObjThrowsWhenItsStreamFails) {
  // 3,000 vertices are more OBJ text than one stream buffer holds, so the
  // write to /dev/full fails inside write_obj, not only at close.
  TriangleMesh m;
  for (int i = 0; i < 3000; ++i) m.vertices.push_back({i * 0.5, i * 0.25, i * 0.125});
  std::ofstream full("/dev/full");
  ASSERT_TRUE(full.is_open());
  try {
    write_obj(full, m);
    ADD_FAILURE() << "writing to /dev/full succeeded";
  } catch (const ContractError& e) {
    EXPECT_EQ(std::string(e.what()), "OBJ write failed");
  }
  std::ostringstream bad;
  bad.setstate(std::ios::badbit);
  try {
    write_obj(bad, m);
    ADD_FAILURE() << "writing to a bad stream succeeded";
  } catch (const ContractError& e) {
    EXPECT_EQ(std::string(e.what()), "OBJ write failed");
  }
  // Through the path writer the failure still names the path.
  try {
    write_obj_file("/dev/full", m);
    ADD_FAILURE() << "writing /dev/full succeeded";
  } catch (const ContractError& e) {
    EXPECT_EQ(std::string(e.what()), "cannot write OBJ output: /dev/full");
  }
}

TEST(AmrIsosurface, MaskedExtractionAvoidsDoubleSurfaces) {
  // Hierarchy: 16^3 base, middle refined to 2x. The field is a sphere; the
  // masked AMR extraction must produce roughly the sphere area once, not
  // twice.
  amr::AmrConfig cfg;
  cfg.base_domain = Box::domain({16, 16, 16});
  cfg.max_levels = 2;
  cfg.max_box_size = 16;
  cfg.nghost = 1;
  cfg.nranks = 1;
  amr::AmrHierarchy h(cfg, 1);
  std::vector<Box> fine_boxes{Box({8, 8, 8}, {23, 23, 23})};
  h.regrid({mesh::BoxLayout(fine_boxes, {0}, 1)});

  const double r = 0.3;  // physical units, dx0 = 1/16
  auto fill = [&](amr::AmrLevel& level, double dx) {
    for (std::size_t i = 0; i < level.layout.num_boxes(); ++i) {
      Fab& fab = level.data[i];
      for (BoxIterator it(fab.box()); it.ok(); ++it) {
        const double x = ((*it)[0] + 0.5) * dx - 0.5;
        const double y = ((*it)[1] + 0.5) * dx - 0.5;
        const double z = ((*it)[2] + 0.5) * dx - 0.5;
        fab(*it) = std::sqrt(x * x + y * y + z * z) - r;
      }
    }
  };
  fill(h.level(0), 1.0 / 16.0);
  fill(h.level(1), 1.0 / 32.0);

  IsosurfaceStats stats;
  const TriangleMesh m = extract_amr_isosurface(h, 0.0, 0, 1.0 / 16.0, &stats);
  EXPECT_EQ(stats.triangles, m.triangle_count());
  EXPECT_GT(stats.triangles, 0u);
  const double analytic = 4.0 * M_PI * r * r;
  EXPECT_NEAR(mesh_area(m), analytic, 0.15 * analytic);
}

}  // namespace
}  // namespace xl::viz
