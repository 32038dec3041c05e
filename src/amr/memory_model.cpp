#include "amr/memory_model.hpp"

#include "common/contract.hpp"
#include "common/error.hpp"

namespace xl::amr {

std::vector<std::size_t> per_rank_peak_bytes(const std::vector<mesh::BoxLayout>& levels,
                                             const MemoryModelConfig& config) {
  XL_REQUIRE(!levels.empty(), "memory model needs at least one level");
  const int nranks = levels.front().num_ranks();
  std::vector<double> bytes(static_cast<std::size_t>(nranks),
                            to_double(config.base_runtime_bytes, "base runtime bytes"));
  const double per_cell =
      to_double(config.ncomp, "ncomp") * sizeof(double) * (1.0 + config.solver_overhead) +
      config.analysis_bytes_per_cell;
  XL_REQUIRE(per_cell >= 0.0, "negative per-cell footprint");
  for (const mesh::BoxLayout& layout : levels) {
    XL_REQUIRE(layout.num_ranks() == nranks, "levels balanced over different rank counts");
    for (std::size_t i = 0; i < layout.num_boxes(); ++i) {
      const double ghosted_cells =
          to_double(layout.box(i).grow(config.nghost).num_cells(), "ghosted cells");
      bytes[static_cast<std::size_t>(layout.rank_of(i))] += ghosted_cells * per_cell;
    }
  }
  std::vector<std::size_t> out(bytes.size());
  for (std::size_t r = 0; r < bytes.size(); ++r) {
    out[r] = f2s(bytes[r], "per-rank peak bytes");
  }
  return out;
}

}  // namespace xl::amr
