// Triangle-mesh output: Wavefront OBJ (portable, viewable anywhere). The
// examples use this to dump the extracted isosurfaces.
#pragma once

#include <iosfwd>
#include <string>

#include "viz/marching_cubes.hpp"

namespace xl::viz {

/// Write `mesh` as OBJ text to `os` (one `v` line per vertex, `f` triples);
/// throws ContractError when the stream is not good afterwards.
void write_obj(std::ostream& os, const TriangleMesh& mesh,
               const std::string& object_name = "isosurface");

/// Write to a file path; throws ContractError naming the path when the file
/// cannot be opened or written (xl::write_file).
void write_obj_file(const std::string& path, const TriangleMesh& mesh,
                    const std::string& object_name = "isosurface");

}  // namespace xl::viz
