// Machine models for the two systems the paper evaluates on, plus a generic
// model for tests. The DES prices kernels and transfers against these specs;
// absolute numbers differ from the real machines (we cannot calibrate against
// Intrepid), but the *ratios* that drive the adaptation policies — compute
// speed vs. network bandwidth vs. per-core memory — follow the published
// specs, which is what preserves the experiment shapes.
#pragma once

#include <cstddef>
#include <string>

namespace xl::cluster {

struct NetworkSpec {
  double link_bandwidth_Bps = 1.0e9;  ///< per-node injection bandwidth.
  double latency_s = 5.0e-6;          ///< one-way small-message latency.
  /// Effective fraction of peak an application-level staging transfer
  /// achieves (protocol + congestion derating).
  double efficiency = 0.7;
};

struct MachineSpec {
  std::string name;
  int cores_per_node = 4;
  std::size_t mem_per_node_bytes = std::size_t{2} << 30;
  /// Effective per-core application throughput in FLOP/s (not peak: a
  /// realistic sustained fraction for stencil/triangulation kernels).
  double core_flops = 1.0e9;
  NetworkSpec network;

  std::size_t mem_per_core_bytes() const {
    return mem_per_node_bytes / static_cast<std::size_t>(cores_per_node);
  }
};

/// Intrepid IBM Blue Gene/P (ANL): 850 MHz quad-core PPC450, 2 GB/node
/// (500 MB per core), 3-D torus at 425 MB/s per link.
MachineSpec intrepid();

/// Titan Cray XK7 (ORNL): 16-core AMD Opteron 6274, 32 GB/node, Gemini
/// interconnect (several GB/s per NIC).
MachineSpec titan();

/// Small generic machine for unit tests (round numbers).
MachineSpec test_machine();

}  // namespace xl::cluster
