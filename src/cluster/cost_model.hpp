// Kernel cost models: translate "work on N cells using P cores of machine M"
// into simulated seconds. FLOP-per-cell constants are calibrated on this host
// by bench_kernels against the real kernels in src/amr, src/viz and
// src/analysis (see EXPERIMENTS.md); machine specs scale them to
// Intrepid/Titan rates.
#pragma once

#include <cstddef>

#include "cluster/machine.hpp"

namespace xl::cluster {

struct KernelCosts {
  /// Unsplit Godunov Euler advance (PolytropicGas): flop per cell per step.
  double sim_euler_flops_per_cell = 1800.0;
  /// Advection-diffusion advance: much lighter.
  double sim_advect_flops_per_cell = 260.0;
  /// Marching cubes: per cell scanned plus per active (triangulated) cell.
  double mc_scan_flops_per_cell = 60.0;
  double mc_active_flops_per_cell = 900.0;
  /// Strided downsample: per *output* cell.
  double reduce_flops_per_cell = 30.0;
  /// Block entropy: per cell histogrammed. No modeled phase charges it yet;
  /// bench_kernels prints it beside the measured entropy rate.
  double entropy_flops_per_cell = 25.0;
  /// Descriptive statistics (Welford moments + extrema): per cell.
  double stats_flops_per_cell = 12.0;
  /// Data subsetting: per cell copied (memcpy-bound, expressed as flops).
  double subset_flops_per_cell = 4.0;
  /// Parallel efficiency exponent: time ~ cells / (P^eff * core_flops).
  /// < 1 models synchronization/imbalance losses at scale.
  double parallel_efficiency = 0.95;
  /// Intra-rank threading efficiency exponent for the analysis kernels:
  /// with T worker threads their time divides by T^thread_efficiency.
  /// Slightly below the inter-rank exponent — shared caches and the
  /// fork/join barrier of the on-node pool cost more than rank-parallel
  /// domain decomposition (bench_kernels measures the real curve).
  double thread_efficiency = 0.9;
};

class CostModel {
 public:
  /// `threads` is the per-rank analysis thread count (the CLI `--threads`
  /// knob). 0 or 1 means the kernels run serially, matching the calibrated
  /// constants; N > 1 divides only the *analysis* kernel times (marching
  /// cubes, downsample, entropy, statistics, subsetting) by
  /// N^thread_efficiency. The simulation step is rank-parallel already and
  /// is left untouched.
  CostModel(const MachineSpec& machine, const KernelCosts& costs = {}, int threads = 0)
      : machine_(machine), costs_(costs), threads_(threads) {}

  const MachineSpec& machine() const noexcept { return machine_; }
  const KernelCosts& costs() const noexcept { return costs_; }
  int threads() const noexcept { return threads_; }

  /// Seconds for `flops_per_cell * cells` spread over `cores` cores with
  /// imperfect parallel efficiency. The per-rank imbalance of a layout is
  /// applied by the caller (multiply by the layout's imbalance factor).
  double kernel_seconds(double flops_per_cell, std::size_t cells, int cores) const;

  double sim_step_seconds(std::size_t cells, int cores, bool euler) const;
  double marching_cubes_seconds(std::size_t cells_scanned, std::size_t active_cells,
                                int cores) const;
  double downsample_seconds(std::size_t output_cells, int cores) const;
  double statistics_seconds(std::size_t cells, int cores) const;
  double subsetting_seconds(std::size_t cells, int cores) const;

  /// Seconds to move `bytes` from the simulation partition to staging:
  /// latency + bytes over the aggregated effective injection bandwidth of
  /// `sender_nodes` nodes (capped by the receiver side's `receiver_nodes`).
  double transfer_seconds(std::size_t bytes, int sender_nodes, int receiver_nodes) const;

 private:
  /// Speedup divisor for the threaded analysis kernels: max(1,T)^thread_eff.
  double thread_speedup() const;

  MachineSpec machine_;
  KernelCosts costs_;
  int threads_ = 0;
};

}  // namespace xl::cluster
