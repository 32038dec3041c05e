#include "cluster/cost_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/contract.hpp"
#include "common/error.hpp"

namespace xl::cluster {

double CostModel::kernel_seconds(double flops_per_cell, std::size_t cells,
                                 int cores) const {
  XL_REQUIRE(cores >= 1, "need at least one core");
  XL_REQUIRE(flops_per_cell >= 0.0, "kernel cost cannot be negative");
  const double effective_cores =
      std::pow(to_double(cores, "cores"), costs_.parallel_efficiency);
  const double seconds = flops_per_cell * to_double(cells, "cells") /
                         (effective_cores * machine_.core_flops);
  XL_ENSURE(std::isfinite(seconds) && seconds >= 0.0,
            "kernel estimate " << seconds << "s for " << cells << " cells on "
                               << cores << " cores");
  return seconds;
}

double CostModel::thread_speedup() const {
  if (threads_ <= 1) return 1.0;
  return std::pow(to_double(threads_, "threads"), costs_.thread_efficiency);
}

double CostModel::sim_step_seconds(std::size_t cells, int cores, bool euler) const {
  return kernel_seconds(
      euler ? costs_.sim_euler_flops_per_cell : costs_.sim_advect_flops_per_cell, cells,
      cores);
}

double CostModel::marching_cubes_seconds(std::size_t cells_scanned,
                                         std::size_t active_cells, int cores) const {
  return (kernel_seconds(costs_.mc_scan_flops_per_cell, cells_scanned, cores) +
          kernel_seconds(costs_.mc_active_flops_per_cell, active_cells, cores)) /
         thread_speedup();
}

double CostModel::downsample_seconds(std::size_t output_cells, int cores) const {
  return kernel_seconds(costs_.reduce_flops_per_cell, output_cells, cores) /
         thread_speedup();
}

double CostModel::statistics_seconds(std::size_t cells, int cores) const {
  return kernel_seconds(costs_.stats_flops_per_cell, cells, cores) /
         thread_speedup();
}

double CostModel::subsetting_seconds(std::size_t cells, int cores) const {
  return kernel_seconds(costs_.subset_flops_per_cell, cells, cores) /
         thread_speedup();
}

double CostModel::transfer_seconds(std::size_t bytes, int sender_nodes,
                                   int receiver_nodes) const {
  XL_REQUIRE(sender_nodes >= 1 && receiver_nodes >= 1, "need nodes on both sides");
  const double per_node =
      machine_.network.link_bandwidth_Bps * machine_.network.efficiency;
  // The slower side's aggregate injection/ejection bandwidth bounds the flow.
  const double aggregate = per_node * std::min(sender_nodes, receiver_nodes);
  const double seconds =
      machine_.network.latency_s + to_double(bytes, "transfer bytes") / aggregate;
  XL_ENSURE(std::isfinite(seconds) && seconds >= 0.0,
            "transfer estimate " << seconds << "s for " << bytes << " bytes");
  return seconds;
}

}  // namespace xl::cluster
