// Tests for the software rasterizer: image plumbing, PPM format, occlusion
// (z-buffer), shading bounds, and coverage of a known isosurface.
#include <cstdint>
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <utility>

#include "viz/render.hpp"

namespace xl::viz {
namespace {

TriangleMesh single_triangle() {
  TriangleMesh m;
  m.vertices = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}};
  return m;
}

TEST(Image, PixelAccessAndBounds) {
  Image img(4, 3, {1, 2, 3});
  EXPECT_EQ(img.width(), 4);
  EXPECT_EQ(img.height(), 3);
  EXPECT_EQ(img.at(0, 0), (std::array<std::uint8_t, 3>{1, 2, 3}));
  img.at(3, 2) = {9, 9, 9};
  EXPECT_EQ(img.at(3, 2)[0], 9);
  EXPECT_THROW(img.at(4, 0), ContractError);
  EXPECT_THROW(img.at(0, 3), ContractError);
  EXPECT_THROW(Image(0, 4), ContractError);
}

TEST(Image, PpmFormat) {
  Image img(2, 2, {255, 0, 0});
  std::ostringstream os(std::ios::binary);
  img.write_ppm(os);
  const std::string out = os.str();
  EXPECT_EQ(out.substr(0, 11), "P6\n2 2\n255\n");
  EXPECT_EQ(out.size(), 11u + 12u);  // header + 4 pixels * 3 bytes
  EXPECT_EQ(static_cast<unsigned char>(out[11]), 255);
}

TEST(Image, WritePpmFileFailuresNameThePath) {
  const Image img(16, 16);
  // /dev/full takes the open and fails the write, which shows only at close.
  for (const auto& [path, message] :
       {std::pair<std::string, std::string>{"/dev/full", "cannot write PPM output: /dev/full"},
        {"no/such/dir/out.ppm", "cannot open PPM output: no/such/dir/out.ppm"}}) {
    try {
      img.write_ppm_file(path);
      ADD_FAILURE() << "writing " << path << " succeeded";
    } catch (const ContractError& e) {
      EXPECT_EQ(std::string(e.what()), message);
    }
  }
}

TEST(Image, CoverageMetric) {
  Image img(10, 10, {0, 0, 0});
  for (int i = 0; i < 5; ++i) img.at(i, 0) = {255, 255, 255};
  EXPECT_DOUBLE_EQ(img.coverage({0, 0, 0}), 0.05);
}

TEST(Render, EmptyMeshIsBackground) {
  const Image img = render_mesh(TriangleMesh{});
  RenderConfig cfg;
  EXPECT_DOUBLE_EQ(img.coverage(cfg.background_rgb), 0.0);
}

TEST(Render, TriangleCoversPixels) {
  RenderConfig cfg;
  cfg.width = 64;
  cfg.height = 64;
  cfg.view_dir = {0, 0, 1};
  const Image img = render_mesh(single_triangle(), cfg);
  const double cov = img.coverage(cfg.background_rgb);
  // The triangle is half the fitted square window (minus fit margin).
  EXPECT_GT(cov, 0.3);
  EXPECT_LT(cov, 0.6);
}

TEST(Render, NearerTriangleWins) {
  // Two overlapping triangles at different depths; colour the scene so the
  // shading differs: the front one faces the light directly, the back one is
  // tilted. With the z-buffer the covered pixels must show the front shade.
  TriangleMesh front = single_triangle();
  for (Vec3& v : front.vertices) v.z = 1.0;  // nearer along +z view
  TriangleMesh back = single_triangle();     // z = 0

  RenderConfig cfg;
  cfg.width = 32;
  cfg.height = 32;
  cfg.view_dir = {0, 0, 1};
  cfg.light_dir = {0, 0, 1};
  cfg.ambient = 0.0;

  // Render both orders; with correct depth testing the result is identical.
  TriangleMesh ab = front;
  ab.append(back);
  TriangleMesh ba = back;
  ba.append(front);
  Image img_ab = render_mesh(ab, cfg);
  Image img_ba = render_mesh(ba, cfg);
  for (int y = 0; y < cfg.height; ++y) {
    for (int x = 0; x < cfg.width; ++x) {
      EXPECT_EQ(img_ab.at(x, y), img_ba.at(x, y)) << "pixel " << x << "," << y;
    }
  }
}

TEST(Render, ShadingWithinConfiguredRange) {
  RenderConfig cfg;
  cfg.width = 32;
  cfg.height = 32;
  cfg.surface_rgb = {200, 100, 50};
  Image img = render_mesh(single_triangle(), cfg);
  for (int y = 0; y < cfg.height; ++y) {
    for (int x = 0; x < cfg.width; ++x) {
      const auto& px = img.at(x, y);
      if (px == cfg.background_rgb) continue;
      EXPECT_LE(px[0], 200);
      EXPECT_LE(px[1], 100);
      EXPECT_LE(px[2], 50);
      EXPECT_GE(px[0], static_cast<std::uint8_t>(cfg.ambient * 200) - 1);
    }
  }
}

TEST(Render, SphereIsosurfaceRendersRoundBlob) {
  // A real pipeline check: marching cubes on a sphere field, rendered; the
  // coverage should approximate the disc-to-window ratio.
  mesh::Fab f(mesh::Box::domain({24, 24, 24}), 1);
  const double c = 12.0, r = 8.0;
  for (mesh::BoxIterator it(f.box()); it.ok(); ++it) {
    const double dx = (*it)[0] + 0.5 - c, dy = (*it)[1] + 0.5 - c,
                 dz = (*it)[2] + 0.5 - c;
    f(*it) = std::sqrt(dx * dx + dy * dy + dz * dz) - r;
  }
  const mesh::Box cells(f.box().lo(), f.box().hi() - 1);
  const TriangleMesh mesh = extract_isosurface(f, cells, 0.0);
  RenderConfig cfg;
  cfg.width = 96;
  cfg.height = 96;
  const Image img = render_mesh(mesh, cfg);
  const double cov = img.coverage(cfg.background_rgb);
  // Disc fills pi/4 of its bounding square; the fit margin shrinks it a bit.
  EXPECT_GT(cov, 0.55);
  EXPECT_LT(cov, 0.85);
}

TEST(Render, DegenerateTrianglesIgnored) {
  TriangleMesh m;
  m.vertices = {{0, 0, 0}, {1, 1, 1}, {2, 2, 2}};  // collinear
  const Image img = render_mesh(m);
  RenderConfig cfg;
  EXPECT_DOUBLE_EQ(img.coverage(cfg.background_rgb), 0.0);
}

}  // namespace
}  // namespace xl::viz
