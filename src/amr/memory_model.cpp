#include "amr/memory_model.hpp"

#include "common/contract.hpp"
#include "common/error.hpp"

namespace xl::amr {

namespace {

/// Bytes one ghosted cell holds: state, solver temporaries and resident
/// analysis.
double bytes_per_cell(const MemoryModelConfig& config) {
  const double per_cell =
      to_double(config.ncomp, "ncomp") * sizeof(double) * (1.0 + config.solver_overhead) +
      config.analysis_bytes_per_cell;
  XL_REQUIRE(per_cell >= 0.0, "negative per-cell footprint");
  return per_cell;
}

/// Adds the ghosted bytes of every box of `layout` to its rank's sum.
void add_level(std::vector<double>& bytes, const mesh::BoxLayout& layout, double per_cell,
               int nghost) {
  XL_REQUIRE(layout.num_ranks() == static_cast<int>(bytes.size()),
             "levels balanced over different rank counts");
  for (std::size_t i = 0; i < layout.num_boxes(); ++i) {
    const double ghosted_cells = to_double(layout.box(i).grow(nghost).num_cells(), "ghosted cells");
    bytes[static_cast<std::size_t>(layout.rank_of(i))] += ghosted_cells * per_cell;
  }
}

}  // namespace

std::vector<double> per_rank_base_bytes(const mesh::BoxLayout& level0,
                                        const MemoryModelConfig& config) {
  std::vector<double> bytes(static_cast<std::size_t>(level0.num_ranks()),
                            to_double(config.base_runtime_bytes, "base runtime bytes"));
  add_level(bytes, level0, bytes_per_cell(config), config.nghost);
  return bytes;
}

std::vector<std::size_t> per_rank_peak_bytes(std::vector<double> base,
                                             const std::vector<mesh::BoxLayout>& levels,
                                             const MemoryModelConfig& config) {
  XL_REQUIRE(!levels.empty(), "memory model needs at least one level");
  XL_REQUIRE(levels.front().num_ranks() == static_cast<int>(base.size()),
             "base bytes priced over another rank count");
  const double per_cell = bytes_per_cell(config);
  for (std::size_t l = 1; l < levels.size(); ++l) {
    add_level(base, levels[l], per_cell, config.nghost);
  }
  std::vector<std::size_t> out(base.size());
  for (std::size_t r = 0; r < base.size(); ++r) {
    out[r] = f2s(base[r], "per-rank peak bytes");
  }
  return out;
}

std::vector<std::size_t> per_rank_peak_bytes(const std::vector<mesh::BoxLayout>& levels,
                                             const MemoryModelConfig& config) {
  XL_REQUIRE(!levels.empty(), "memory model needs at least one level");
  return per_rank_peak_bytes(per_rank_base_bytes(levels.front(), config), levels, config);
}

}  // namespace xl::amr
