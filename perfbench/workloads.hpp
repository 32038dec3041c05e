// The benchmark's three workloads. Each runs whole units (a unit is the
// smallest piece of work whose outputs can be checked against the reference
// table) in a closed loop until the measuring budget is spent, and hands back
// the raw samples; main() turns them into metrics. README.md says why each
// workload exists and which layer metric should move which end-to-end metric.
#pragma once

#include "harness.hpp"

namespace perfbench {

/// Figs. 7/10 placements at the 16K-core Titan scale on the analytic
/// substrate: one unit = one 50-step pipeline run of one placement mode.
RunResult run_figs_titan(const RunOptions& options);

/// Replication x trigger x fault-schedule sweep of short runs on small
/// geometry on the discrete-event substrate: one unit = the whole sweep.
RunResult run_policy_sweep(const RunOptions& options);

/// The real in-process coupled loop (PolytropicGas AMR, in-situ isosurfaces,
/// threaded staging): one unit = one 100-step loop plus the staging drain.
RunResult run_real_loop(const RunOptions& options);

/// Number of input variants a seed maps onto (variant = seed mod this); the
/// reference table holds every variant of every workload.
inline constexpr int kVariants = 16;

}  // namespace perfbench
