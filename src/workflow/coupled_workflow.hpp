// The coupled simulation + visualization workflow of the paper's §5,
// executed on the discrete-event cluster substrate: a Chombo-style AMR
// simulation (geometry evolved by amr::SyntheticAmrEvolution, priced by the
// cost model) whose per-step output is analyzed by the marching-cubes
// visualization service either in-situ (blocking the simulation partition)
// or in-transit (staged asynchronously onto M staging cores).
//
// Timeline semantics, matching the paper's formulation:
//  * T_sum_insitu  (eq. 4) accrues on the simulation-side clock: sim steps,
//    in-situ reductions, in-situ analyses, and T_insitu_wait — the blocking
//    wait when the staging area cannot accept data (memory full).
//  * T_sum_intransit (eq. 5) accrues on the staging-side clock: in-transit
//    analyses plus T_intransit_wait (staging idle).
//  * Time-to-solution = max of the two clocks at the end (eq. 6).
//  * Transfers are asynchronous: the simulation only pays an initiation
//    cost, the data arrives a transfer-time later (the substrate's
//    enqueue_intransit); lost attempts retry per transport/retry_ladder.hpp.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "amr/memory_model.hpp"
#include "amr/synthetic.hpp"
#include "cluster/cost_model.hpp"
#include "runtime/adaptation_engine.hpp"
#include "runtime/fault.hpp"
#include "runtime/monitor.hpp"
#include "runtime/state.hpp"

namespace xl::workflow {

/// Placement strategy of a run — the bars of Figs. 7 and 10.
enum class Mode {
  StaticInSitu,        ///< every analysis on the simulation cores.
  StaticInTransit,     ///< every analysis on the (fixed-size) staging area.
  StaticHybrid,        ///< every analysis split across both partitions (§3's
                       ///< "hybrid (in-situ + in-transit)" placement): the
                       ///< in-transit share is sized to hide under the next
                       ///< step, the rest runs in-situ.
  AdaptiveMiddleware,  ///< middleware layer only — the paper's "local adaptation".
  AdaptiveResource,    ///< resource layer only, placement fixed in-transit (Fig. 9).
  Global,              ///< coordinated cross-layer adaptation (§5.2.4).
};

const char* mode_name(Mode mode) noexcept;

/// Which analysis service the workflow couples to. The paper's evaluation
/// uses marching-cubes visualization; its closing discussion claims the
/// approach extends to other communication-free analyses — descriptive
/// statistics and data subsetting — which are selectable here.
enum class AnalysisKind { Isosurface, Statistics, Subsetting };

const char* analysis_kind_name(AnalysisKind kind) noexcept;

struct WorkflowConfig {
  cluster::MachineSpec machine;
  cluster::KernelCosts costs;
  int sim_cores = 2048;       ///< N.
  int staging_cores = 128;    ///< preallocated M (the 16:1 pool).
  int steps = 50;
  /// Per-rank worker threads for the analysis kernels (the CLI `--threads`
  /// knob). 0 (default) models the serial calibrated kernels and leaves the
  /// timeline byte-identical; N > 1 divides the analysis kernel times by
  /// N^KernelCosts::thread_efficiency, which the Monitor's T_insitu estimate
  /// (eq. 7) then reflects through the recorded samples.
  int threads = 0;
  Mode mode = Mode::AdaptiveMiddleware;
  bool euler = false;         ///< PolytropicGas (true) or AdvectionDiffusion.
  int ncomp = 1;
  /// Components the analysis actually consumes (the visualization service
  /// extracts isosurfaces of ONE variable, e.g. density, even when the solver
  /// carries five). 0 means "all of ncomp".
  int analysis_ncomp = 0;

  /// Geometry evolution; its nranks is ignored, the pipeline balances the
  /// hierarchy over sim_cores ranks.
  amr::SyntheticAmrConfig geometry;
  amr::MemoryModelConfig memory_model;

  /// Analysis input: refined levels only (the regions scientists visualize);
  /// level 0 is included only when the hierarchy has a single level.
  bool analyze_refined_only = true;
  /// Optional regions of interest (base-level index space): when non-empty,
  /// the analysis consumes only the refined cells intersecting these boxes
  /// (the paper's "limit the analytics to interesting regions", sec. 2).
  std::vector<mesh::Box> regions_of_interest;
  /// Temporal resolution: analyze every k-th step (1 = every step). The
  /// application layer's other knob besides the spatial factor (sec. 3).
  int analysis_interval = 1;
  /// Temporal adaptation: when even the largest acceptable factor cannot fit
  /// memory (AppDecision::memory_constrained), skip this step's analysis
  /// instead of thrashing — trading temporal for spatial resolution.
  bool skip_analysis_when_constrained = false;
  /// Fraction of analyzed cells that intersect the isosurface (drives the
  /// triangulation term of the marching-cubes cost).
  double active_cell_fraction = 0.02;
  /// Analysis service to couple (marching cubes by default).
  AnalysisKind analysis_kind = AnalysisKind::Isosurface;

  /// Fraction of a staging core's memory usable for staged data (the rest is
  /// OS + DataSpaces runtime + communication buffers).
  double staging_usable_fraction = 0.2;

  /// Adaptation runtime settings (used by the Adaptive*/Global modes).
  runtime::MonitorConfig monitor;
  runtime::UserHints hints;
  runtime::Objective objective = runtime::Objective::MinimizeTimeToSolution;
  runtime::PlanOrder plan_order = runtime::PlanOrder::LeavesThenRoots;
  /// Fixed per-adaptation engine overhead charged to the simulation clock
  /// (the policies are closed-form; the paper reports end-to-end overhead,
  /// adaptation included, below 6% of simulation time).
  double adaptation_overhead_seconds = 1.0e-4;

  /// Fault injection (disabled by default: the paper's always-up staging).
  /// When enabled, transfers can drop/corrupt and retry with backoff, staging
  /// servers can crash and recover on schedule, and stragglers slow the
  /// in-transit partition — all deterministically from the fault seed.
  runtime::FaultConfig faults;

  /// Copies of every staged object (durability layer; 1 = the paper's
  /// unreplicated shared space). k > 1 divides the usable staging capacity by
  /// k (every byte occupies k replicas), adds a (k-1)-copy fan-out to each
  /// staged transfer, and makes an object survive any < k overlapping server
  /// crashes; lost replicas are re-created by background anti-entropy repair
  /// whose copy traffic competes with workflow traffic in the staging backlog.
  int replication = 1;
};

struct StepRecord {
  int step = 0;
  std::size_t total_cells = 0;
  std::size_t analyzed_cells = 0;  ///< before reduction.
  std::size_t raw_bytes = 0;       ///< S_data before reduction.
  int factor = 1;                  ///< application-layer X.
  std::size_t moved_bytes = 0;     ///< 0 for in-situ steps.
  runtime::Placement placement = runtime::Placement::InSitu;
  int intransit_cores = 0;         ///< M allocated this step.
  double sim_seconds = 0.0;        ///< T_i_sim.
  double reduce_seconds = 0.0;
  double insitu_analysis_seconds = 0.0;
  double intransit_analysis_seconds = 0.0;
  double wait_seconds = 0.0;       ///< T_insitu_wait (sim blocked on staging).
  double window_seconds = 0.0;     ///< step start -> next step start.
  bool analysis_skipped = false;   ///< temporal adaptation skipped this step.
  // Policy inputs at decision time (diagnostics for the benches/tests).
  double backlog_seconds = 0.0;    ///< staging backlog the monitor reported.
  /// Middleware trigger case (if adaptive); None for static placements.
  runtime::DecisionReason decision_reason = runtime::DecisionReason::None;
  // Fault-layer diagnostics (all zero when fault injection is disabled).
  int transfer_retries = 0;        ///< retry attempts this step's transfer took.
  bool transfer_failed = false;    ///< transfer exhausted retries; analysis ran in-situ.
  int servers_down = 0;            ///< staging servers DECLARED down this step.
  int servers_suspected = 0;       ///< crashed but still inside the lease window.
};

struct WorkflowResult {
  std::vector<StepRecord> steps;
  double end_to_end_seconds = 0.0;
  double pure_sim_seconds = 0.0;   ///< sum of T_i_sim only.
  double overhead_seconds = 0.0;   ///< end-to-end minus pure sim.
  std::size_t bytes_moved = 0;
  int insitu_count = 0;
  int intransit_count = 0;
  int skipped_count = 0;           ///< steps whose analysis was skipped.
  /// How often each layer's mechanism executed (the §5.2.4 check that the
  /// global run "employs all the adaptations at these three layers").
  int application_adaptations = 0;
  int resource_adaptations = 0;
  int middleware_adaptations = 0;
  double utilization_efficiency = 0.0;  ///< eq. 12.
  // Fault/recovery accounting (all zero when fault injection is disabled).
  int faults_injected = 0;         ///< fault events that fired (crash/straggler onsets).
  int recoveries = 0;              ///< recovery transitions observed.
  int transfer_retries = 0;        ///< total transfer retry attempts.
  int transfer_failures = 0;       ///< transfers that exhausted their retries.
  int degraded_insitu_count = 0;   ///< steps forced in-situ by staging faults.
  std::size_t dropped_bytes = 0;   ///< staged bytes lost to server crashes.
  // Replication/lease accounting (all zero when replication = 1, lease = 0).
  int server_suspicions = 0;       ///< suspicion onsets (crash seen, lease not expired).
  int repairs_scheduled = 0;       ///< anti-entropy re-replication passes enqueued.
  int read_repairs = 0;            ///< staged reads that consumed pending repair.
  std::size_t repair_bytes = 0;      ///< re-replication copy traffic scheduled.
  std::size_t replicated_bytes = 0;  ///< replica copies fanned out on staging puts.
  // Trigger accounting (all zero under the default FixedPeriod policy).
  int triggers_fired = 0;          ///< steps where the trigger armed adaptation.
  int steps_suppressed = 0;        ///< steps the trigger kept on stale decisions.
};

class ExecutionSubstrate;
class EventLog;

class CoupledWorkflow {
 public:
  explicit CoupledWorkflow(const WorkflowConfig& config);

  /// Run the step pipeline on the closed-form analytic substrate.
  WorkflowResult run();

  /// Run the same pipeline on a caller-supplied execution substrate (e.g.
  /// the discrete-event EventQueueSubstrate the machine-scale experiment
  /// uses). Both substrates produce identical timelines.
  WorkflowResult run_on(ExecutionSubstrate& substrate);

  /// Attach the log that records the structured event stream of subsequent
  /// runs (step-begin / decision / transfer / analysis / step-end). The log
  /// must outlive the run; nullptr detaches.
  void set_observer(EventLog* log) noexcept { log_ = log; }

  const WorkflowConfig& config() const noexcept { return config_; }

 private:
  WorkflowConfig config_;
  EventLog* log_ = nullptr;
};

}  // namespace xl::workflow
