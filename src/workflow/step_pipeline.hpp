// The per-step pipeline the coupled workflow executes (paper §3's layered
// runtime made explicit). run_step calls eight phases, in order, over a
// shared StepContext:
//
//   simulate -> monitor -> adapt -> reduce -> place -> transfer
//            -> analyze -> drain
//
//  * simulate — advance the AMR solver one step on the sim partition.
//  * monitor  — release completed staging buffers, apply this step's staging
//               faults, snapshot the OperationalState the Adaptation Engine
//               consumes.
//  * adapt    — run the cross-layer engine on sampling steps; apply the
//               temporal-adaptation gate.
//  * reduce   — application-layer down-sampling (factor X, in-situ).
//  * place    — resolve where this step's analysis runs (including the
//               hybrid split and capacity-forced fallbacks).
//  * transfer — the retry ladder, admission control and transfer planning
//               for the in-transit share (the paper's T_insitu_wait, T_sd).
//  * analyze  — charge the analysis to the owning partition clock(s); the
//               planned transfer commits here, after the blocking in-situ
//               share, matching when the simulation actually hands the
//               buffer off.
//  * drain    — finalize the StepRecord, accumulate run counters.
//
// The pipeline only orchestrates: the clocks and the staged-buffer FIFO live
// in the ExecutionSubstrate, the retry ladder in transport/retry_ladder, the
// crash-loss closed form in staging::crash_loss_fraction. Every phase reports
// into the run's EventLog.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "amr/synthetic.hpp"
#include "cluster/cost_model.hpp"
#include "runtime/adaptation_engine.hpp"
#include "runtime/fault.hpp"
#include "runtime/monitor.hpp"
#include "workflow/coupled_workflow.hpp"
#include "workflow/execution_substrate.hpp"
#include "workflow/observer.hpp"

namespace xl::workflow {

/// Mutable working set one step flows through the phases. Phases only
/// communicate through this context (and the pipeline's cross-step state).
struct StepContext {
  int step = 0;
  amr::SyntheticStep geom;
  double imbalance = 1.0;
  std::size_t total_cells = 0;
  std::size_t analyzed_cells = 0;  ///< cells the analysis consumes (pre-reduction).
  std::size_t raw_bytes = 0;       ///< S_data before reduction.
  int analysis_ncomp = 1;
  double sim_seconds = 0.0;        ///< T_i_sim.
  runtime::OperationalState state; ///< the monitor snapshot.
  bool scheduled = false;          ///< temporal gate (analysis_interval).
  bool do_analysis = false;        ///< false: remaining phases are no-ops.
  // Post-reduction sizes.
  std::size_t eff_cells = 0;
  std::size_t eff_bytes = 0;
  std::size_t active_cells = 0;
  // Placement outcome.
  bool split = false;              ///< hybrid: analysis split across partitions.
  double intransit_share = 0.0;    ///< staged fraction (1.0 = everything).
  double intransit_full_seconds = 0.0;  ///< hybrid: full-kernel in-transit time.
  // Planned asynchronous transfer (committed by analyze).
  bool pending_transfer = false;
  std::size_t transfer_bytes = 0;
  double wire_seconds = 0.0;
  StepRecord record;
};

/// Runs the phases over an execution substrate, owning the run-wide state
/// they share: monitor, adaptation engine, carried decisions, staging health,
/// and the accumulating WorkflowResult.
class StepPipeline {
 public:
  StepPipeline(const WorkflowConfig& config, ExecutionSubstrate& substrate,
               EventLog* log);

  StepPipeline(const StepPipeline&) = delete;
  StepPipeline& operator=(const StepPipeline&) = delete;

  /// Run one step through all phases.
  void run_step(int step);

  /// Drain the substrate, finalize the per-step windows and eq. 12's
  /// utilization, emit RunEnd, and hand over the result. Call once, after
  /// the last step.
  WorkflowResult finish();

 private:
  void simulate(StepContext& ctx);
  void monitor(StepContext& ctx);
  void adapt(StepContext& ctx);
  void reduce(StepContext& ctx);
  void place(StepContext& ctx);
  void transfer(StepContext& ctx);
  void analyze(StepContext& ctx);
  void drain(StepContext& ctx);

  /// Apply `step`'s scheduled crashes and stragglers to health_ (fault
  /// injection enabled only): shed, replica-loss and repair bookkeeping on
  /// declared crash onset, and the suspicion/straggler/recovery edges.
  void apply_faults(int step);

  int staging_nodes(int cores) const noexcept;
  std::size_t staging_capacity(int cores) const noexcept;
  double analysis_seconds(std::size_t cells, std::size_t active_cells,
                          int cores) const;
  /// Staging cores actually usable this step: the allocation minus the
  /// servers the fault plan killed (0 = whole partition down). Equals
  /// cur_cores_ whenever fault injection is disabled.
  int effective_cores() const noexcept {
    return std::max(0, cur_cores_ - health_.servers_down);
  }
  /// Stamp the partition clocks onto `event` and append it to the log.
  void emit(WorkflowEvent event);

  const WorkflowConfig& config_;
  ExecutionSubstrate& substrate_;
  amr::SyntheticAmrEvolution evolution_;
  /// Per-rank memory-model bytes of the static level 0, priced once; the
  /// monitor phase continues them with each step's finer levels.
  std::vector<double> base_bytes_;
  cluster::CostModel cost_;
  runtime::Monitor monitor_;
  EventLog* log_;
  std::unique_ptr<runtime::AdaptationEngine> engine_;
  WorkflowResult result_;

  // Run-level accounting: T_i_sim proper (everything else on the simulation
  // clock is overhead) and each step's start, for the per-step windows.
  double pure_sim_seconds_ = 0.0;
  std::vector<double> step_starts_;

  // Derived constants.
  int sim_nodes_ = 1;
  std::size_t usable_per_core_ = 0;
  bool adaptive_ = false;
  bool hybrid_ = false;

  // Decisions carried across steps (sampling steps refresh them).
  int cur_factor_ = 1;
  int cur_cores_ = 0;
  runtime::DecisionReason cur_reason_ = runtime::DecisionReason::None;
  bool last_app_constrained_ = false;
  runtime::Placement cur_placement_ = runtime::Placement::InSitu;
  double current_imbalance_ = 1.0;

  // Fault-injection state (inert when config.faults is disabled). With
  // lease_steps > 0 the *detected* (lease-expired) crash count drives
  // capacity, shed, and recovery; the actual-minus-detected gap is the
  // suspected set that only forces transfer retries.
  runtime::FaultPlan fault_plan_;
  /// Staging liveness as of this step's monitor phase; its just_recovered
  /// edge stays set until the adaptation engine consumes it.
  runtime::StagingHealth health_;
  std::uint64_t transfer_seq_ = 0;  ///< fault-oracle key for each transfer.
  // Replication repair state (inert when config.replication == 1).
  std::size_t repair_pending_bytes_ = 0;  ///< replica bytes awaiting re-creation.
  double repair_done_at_ = 0.0;           ///< staging-clock completion of the queued repair.
};

}  // namespace xl::workflow
