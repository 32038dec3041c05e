// Operational state and user inputs of the adaptive runtime (paper §3).
// The Monitor produces OperationalState snapshots; the user supplies
// UserPreferences (objectives) and UserHints (acceptable down-sampling
// factors per phase, entropy thresholds) — the two input kinds Fig. 2 shows.
#pragma once

#include <cstddef>
#include <vector>

#include "common/error.hpp"

namespace xl::runtime {

/// What the user asks the cross-layer adaptation to optimize.
enum class Objective {
  MinimizeTimeToSolution,
  MinimizeDataMovement,
  MaximizeResourceUtilization,
};

/// Where an analysis kernel executes (the middleware decision D_i: the paper
/// encodes in-situ as D_i = 1, in-transit as D_i = 0).
enum class Placement { InSitu, InTransit };

const char* placement_name(Placement placement) noexcept;

/// Liveness of the staging partition, fed by the fault layer. All-healthy is
/// the default, so code that never injects faults sees the paper's
/// always-up staging partition.
struct StagingHealth {
  int servers_total = 0;   ///< configured staging cores/servers.
  int servers_down = 0;    ///< declared dead (lease expired; acted on).
  /// Crashed but still inside the heartbeat lease window: the Monitor has
  /// missed beats but not yet declared them. Suspected servers still count as
  /// alive for capacity/shed purposes; transfers racing them retry.
  int servers_suspected = 0;
  double slowdown = 1.0;   ///< straggler multiplier on in-transit time (>= 1).
  /// True on the first sample after servers_down returned to 0 (the
  /// recovery edge the middleware policy re-admits in-transit work on).
  bool just_recovered = false;
  /// True while background anti-entropy re-replication traffic is in flight
  /// (repair competes with workflow traffic for the staging partition).
  bool repairing = false;

  bool degraded() const noexcept { return servers_down > 0 || slowdown > 1.0; }
  bool all_down() const noexcept {
    return servers_total > 0 && servers_down >= servers_total;
  }
};

/// Snapshot of the system the Monitor hands the Adaptation Engine each
/// monitoring period.
struct OperationalState {
  int step = 0;
  double now_seconds = 0.0;  ///< simulated (or wall) time of the sample.

  // Application layer signals.
  std::size_t sim_cells = 0;        ///< total cells the solver advanced (all levels).
  std::size_t raw_cells = 0;        ///< cells the analysis consumes this step.
  std::size_t raw_bytes = 0;        ///< S_data before any reduction.
  int ncomp = 1;

  // Resource layer signals (simulation side).
  int sim_cores = 1;                           ///< N.
  std::size_t insitu_mem_available = 0;        ///< min over ranks of free bytes.

  // Resource layer signals (staging side).
  int intransit_cores = 0;                     ///< current M.
  std::size_t intransit_mem_free = 0;
  std::size_t intransit_mem_per_core = 0;
  double intransit_backlog_seconds = 0.0;  ///< time until staging cores go idle.
  StagingHealth staging_health;            ///< fault-layer liveness signal.

  // Timing signals.
  double last_sim_step_seconds = 0.0;  ///< T_i_sim.
};

/// User preferences: the objective plus hard knobs.
struct UserPreferences {
  Objective objective = Objective::MinimizeTimeToSolution;
  /// Floor on analysis resolution: factors above this are never selected even
  /// under memory pressure (0 = no floor).
  int max_acceptable_factor = 0;
};

/// A phase of acceptable down-sampling factors (paper §5.2.1 uses {2,4} for
/// the first half of the run and {2,4,8,16} for the second).
struct FactorPhase {
  int first_step = 0;                ///< phase applies from this step on.
  std::vector<int> factors;          ///< acceptable X values, sorted ascending.
};

/// User hints: application knowledge the engine cannot infer.
struct UserHints {
  std::vector<FactorPhase> factor_phases{{0, {1}}};
  /// Entropy thresholds (bits, ascending) for the automatic selector; empty
  /// disables entropy-based selection.
  std::vector<double> entropy_thresholds;

  /// The factor set active at `step`.
  const std::vector<int>& factors_at(int step) const {
    XL_REQUIRE(!factor_phases.empty(), "hints must define at least one phase");
    const FactorPhase* active = &factor_phases.front();
    for (const FactorPhase& phase : factor_phases) {
      if (step >= phase.first_step) active = &phase;
    }
    return active->factors;
  }
};

}  // namespace xl::runtime
