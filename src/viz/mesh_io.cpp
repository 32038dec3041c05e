#include "viz/mesh_io.hpp"

#include <ostream>

#include "common/error.hpp"
#include "common/output_file.hpp"

namespace xl::viz {

void write_obj(std::ostream& os, const TriangleMesh& mesh, const std::string& object_name) {
  os << "o " << object_name << "\n";
  for (const Vec3& v : mesh.vertices) {
    os << "v " << v.x << " " << v.y << " " << v.z << "\n";
  }
  for (std::size_t t = 0; t < mesh.triangle_count(); ++t) {
    const std::size_t base = 3 * t + 1;  // OBJ indices are 1-based
    os << "f " << base << " " << base + 1 << " " << base + 2 << "\n";
  }
  if (!os.good()) throw ContractError("OBJ write failed");
}

void write_obj_file(const std::string& path, const TriangleMesh& mesh,
                    const std::string& object_name) {
  write_file(path, "OBJ output",
             [&](std::ostream& os) { write_obj(os, mesh, object_name); });
}

}  // namespace xl::viz
