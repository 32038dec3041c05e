#include "viz/render.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>

#include "common/contract.hpp"
#include "common/error.hpp"
#include "common/output_file.hpp"

namespace xl::viz {

namespace {

Vec3 normalize(const Vec3& v) {
  const double len = std::sqrt(v.x * v.x + v.y * v.y + v.z * v.z);
  XL_REQUIRE(len > 0.0, "zero-length direction");
  return {v.x / len, v.y / len, v.z / len};
}

Vec3 cross(const Vec3& a, const Vec3& b) {
  return {a.y * b.z - a.z * b.y, a.z * b.x - a.x * b.z, a.x * b.y - a.y * b.x};
}

double dot(const Vec3& a, const Vec3& b) { return a.x * b.x + a.y * b.y + a.z * b.z; }

Vec3 sub(const Vec3& a, const Vec3& b) { return {a.x - b.x, a.y - b.y, a.z - b.z}; }

}  // namespace

Image::Image(int width, int height, std::array<std::uint8_t, 3> fill)
    : width_(width), height_(height),
      pixels_(static_cast<std::size_t>(width) * static_cast<std::size_t>(height), fill) {
  XL_REQUIRE(width > 0 && height > 0, "image dimensions must be positive");
}

std::array<std::uint8_t, 3>& Image::at(int x, int y) {
  XL_REQUIRE(x >= 0 && x < width_ && y >= 0 && y < height_, "pixel out of range");
  return pixels_[static_cast<std::size_t>(y) * width_ + x];
}

void Image::write_ppm(std::ostream& os) const {
  os << "P6\n" << width_ << " " << height_ << "\n255\n";
  for (const auto& px : pixels_) {
    os.write(reinterpret_cast<const char*>(px.data()), 3);
  }
  if (!os.good()) throw ContractError("PPM write failed");
}

void Image::write_ppm_file(const std::string& path) const {
  write_file(path, "PPM output", [this](std::ostream& os) { write_ppm(os); });
}

double Image::coverage(std::array<std::uint8_t, 3> background) const {
  std::size_t covered = 0;
  for (const auto& px : pixels_) covered += px != background;
  return static_cast<double>(covered) / static_cast<double>(pixels_.size());
}

Image render_mesh(const TriangleMesh& mesh, const RenderConfig& config) {
  Image image(config.width, config.height, config.background_rgb);
  if (mesh.vertices.empty()) return image;

  // Camera basis: view direction w, screen axes u (right) and v (up).
  const Vec3 w = normalize(config.view_dir);
  const Vec3 seed = std::fabs(w.x) < 0.9 ? Vec3{1, 0, 0} : Vec3{0, 1, 0};
  const Vec3 u = normalize(cross(seed, w));
  const Vec3 v = cross(w, u);
  const Vec3 light = normalize(config.light_dir);

  // Project all vertices; fit the orthographic window to the projection.
  struct P {
    double x, y, depth;
  };
  std::vector<P> proj(mesh.vertices.size());
  double x_lo = 1e300, x_hi = -1e300, y_lo = 1e300, y_hi = -1e300;
  for (std::size_t i = 0; i < mesh.vertices.size(); ++i) {
    const Vec3& p = mesh.vertices[i];
    proj[i] = {dot(p, u), dot(p, v), dot(p, w)};
    x_lo = std::min(x_lo, proj[i].x);
    x_hi = std::max(x_hi, proj[i].x);
    y_lo = std::min(y_lo, proj[i].y);
    y_hi = std::max(y_hi, proj[i].y);
  }
  const double span = std::max({x_hi - x_lo, y_hi - y_lo, 1e-12}) * 1.05;
  const double cx = 0.5 * (x_lo + x_hi), cy = 0.5 * (y_lo + y_hi);
  auto to_px = [&](double x) {
    return (x - cx) / span * config.width + config.width / 2.0;
  };
  auto to_py = [&](double y) {
    return config.height / 2.0 - (y - cy) / span * config.height;
  };

  std::vector<double> zbuf(static_cast<std::size_t>(config.width) * config.height,
                           -std::numeric_limits<double>::infinity());

  for (std::size_t t = 0; t < mesh.triangle_count(); ++t) {
    const P& a = proj[3 * t];
    const P& b = proj[3 * t + 1];
    const P& c = proj[3 * t + 2];
    // Shading from the geometric normal (two-sided).
    const Vec3 e1 = sub(mesh.vertices[3 * t + 1], mesh.vertices[3 * t]);
    const Vec3 e2 = sub(mesh.vertices[3 * t + 2], mesh.vertices[3 * t]);
    Vec3 n = cross(e1, e2);
    const double nlen = std::sqrt(dot(n, n));
    if (nlen <= 0.0) continue;  // degenerate triangle
    n = {n.x / nlen, n.y / nlen, n.z / nlen};
    const double lambert = std::fabs(dot(n, light));
    const double shade = config.ambient + (1.0 - config.ambient) * lambert;

    const double ax = to_px(a.x), ay = to_py(a.y);
    const double bx = to_px(b.x), by = to_py(b.y);
    const double cx2 = to_px(c.x), cy2 = to_py(c.y);
    const double area = (bx - ax) * (cy2 - ay) - (by - ay) * (cx2 - ax);
    if (std::fabs(area) < 1e-12) continue;

    const int px_lo = std::max(0, f2i<int>(std::floor(std::min({ax, bx, cx2}))));
    const int px_hi =
        std::min(config.width - 1, f2i<int>(std::ceil(std::max({ax, bx, cx2}))));
    const int py_lo = std::max(0, f2i<int>(std::floor(std::min({ay, by, cy2}))));
    const int py_hi =
        std::min(config.height - 1, f2i<int>(std::ceil(std::max({ay, by, cy2}))));
    for (int py = py_lo; py <= py_hi; ++py) {
      for (int px = px_lo; px <= px_hi; ++px) {
        const double x = px + 0.5, y = py + 0.5;
        const double w0 = ((bx - x) * (cy2 - y) - (by - y) * (cx2 - x)) / area;
        const double w1 = ((cx2 - x) * (ay - y) - (cy2 - y) * (ax - x)) / area;
        const double w2 = 1.0 - w0 - w1;
        if (w0 < 0.0 || w1 < 0.0 || w2 < 0.0) continue;
        const double depth = w0 * a.depth + w1 * b.depth + w2 * c.depth;
        auto& z = zbuf[static_cast<std::size_t>(py) * config.width + px];
        if (depth <= z) continue;
        z = depth;
        auto& out = image.at(px, py);
        for (int ch = 0; ch < 3; ++ch) {
          // xl-lint: allow(float-cast): clamped to [0,255] in floating point; shade and
          // rgb are finite by construction, and this per-pixel loop is hot.
          out[static_cast<std::size_t>(ch)] = static_cast<std::uint8_t>(
              std::clamp(shade * config.surface_rgb[static_cast<std::size_t>(ch)],
                         0.0, 255.0));
        }
      }
    }
  }
  return image;
}

}  // namespace xl::viz
