// Software rendering of triangle meshes to PPM images: the last mile of the
// paper's visualization service. An orthographic depth-buffered rasterizer
// with Lambertian shading — enough to regenerate Fig. 6-style side-by-side
// isosurface renderings without any graphics stack.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "viz/marching_cubes.hpp"

namespace xl::viz {

struct RenderConfig {
  int width = 512;
  int height = 512;
  /// View direction (orthographic projection along this axis); need not be
  /// normalized.
  Vec3 view_dir{0.6, 0.5, 1.0};
  Vec3 light_dir{0.4, 0.8, 1.0};
  std::array<std::uint8_t, 3> surface_rgb{220, 60, 50};
  std::array<std::uint8_t, 3> background_rgb{18, 18, 24};
  double ambient = 0.25;
};

/// 8-bit RGB image.
class Image {
 public:
  Image(int width, int height, std::array<std::uint8_t, 3> fill = {0, 0, 0});

  int width() const noexcept { return width_; }
  int height() const noexcept { return height_; }

  std::array<std::uint8_t, 3>& at(int x, int y);

  /// Binary PPM (P6). Both throw ContractError when the output fails; the
  /// path overload's errors name the path (xl::write_file).
  void write_ppm(std::ostream& os) const;
  void write_ppm_file(const std::string& path) const;

  /// Fraction of pixels differing from the background (coverage metric used
  /// by tests and the Fig. 6 comparison).
  double coverage(std::array<std::uint8_t, 3> background) const;

 private:
  int width_;
  int height_;
  std::vector<std::array<std::uint8_t, 3>> pixels_;
};

/// Render `mesh` with an orthographic camera fitted to the mesh's bounding
/// box. Returns a fully shaded image; an empty mesh renders as background.
Image render_mesh(const TriangleMesh& mesh, const RenderConfig& config = {});

}  // namespace xl::viz
