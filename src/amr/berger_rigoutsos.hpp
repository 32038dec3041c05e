// Berger-Rigoutsos grid generation: cluster tagged cells into a small set of
// boxes whose fill ratio (tags / cells) meets a target efficiency. This is
// the classic signature/hole/inflection algorithm Chombo's BRMeshRefine uses.
#pragma once

#include <vector>

#include "mesh/box.hpp"
#include "mesh/intvect.hpp"

namespace xl::amr {

struct BrConfig {
  double fill_ratio = 0.7;  ///< minimum tags/cells before a box is accepted.
  int max_box_size = 32;    ///< boxes longer than this are always split.
  int min_box_size = 4;     ///< never split below this (also blocking factor).
};

/// Cluster `tags` (cells in the index space of the level being refined) into
/// boxes. Returned boxes are disjoint, cover every tag, lie within `domain`,
/// and are aligned to min_box_size where possible. The result does not depend
/// on the order of `tags`.
std::vector<mesh::Box> berger_rigoutsos(const std::vector<mesh::IntVect>& tags,
                                        const mesh::Box& domain, const BrConfig& config);

}  // namespace xl::amr
