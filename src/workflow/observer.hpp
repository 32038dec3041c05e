// The workflow's structured event stream (paper Fig. 2's "Monitor" feed,
// turned outward): every phase of the step pipeline, the AdaptationEngine's
// decisions and the staging path are recorded as flat WorkflowEvent records
// appended to one EventLog. trace_io, xlayer_cli, and the figure benches all
// consume this one stream instead of each re-deriving per-step diagnostics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/fault.hpp"
#include "runtime/middleware_policy.hpp"
#include "runtime/state.hpp"

namespace xl::workflow {

enum class EventKind {
  RunBegin,   ///< before the first step.
  StepBegin,  ///< simulation advanced one step (seconds = T_i_sim).
  Decision,   ///< adaptation engine ran (factor/cores/placement/reason).
  Transfer,   ///< data handed to staging (bytes, seconds = wire time).
  Analysis,   ///< analysis charged to a partition (placement, seconds).
  StepEnd,    ///< step finished (final placement, factor, moved bytes).
  RunEnd,     ///< timeline drained (seconds = end-to-end, eq. 6).
  Fault,      ///< injected fault fired (fault kind, servers_down, bytes lost).
  Retry,      ///< transfer attempt failed; retrying after backoff.
  Recovery,   ///< staging partition returned to full health.
  // Durability stream (replication > 1 and/or a `faults = ...;lease=N` lease only).
  ServerSuspected,  ///< heartbeats missed but lease not expired yet.
  ReplicaLost,      ///< declared crash removed staged replicas (bytes = replica bytes).
  RepairScheduled,  ///< anti-entropy re-replication queued on the staging cores.
  ReplicaCreated,   ///< staged put fanned out its k-1 secondary copies.
  ReadRepair,       ///< a staged read re-materialized missing replicas.
  // Trigger stream (adaptive modes under a non-FixedPeriod trigger policy).
  TriggerFired,      ///< indicator crossed the trailing-quantile threshold.
  TriggerSuppressed, ///< quiescent step; adaptation skipped this step.
};

const char* event_kind_name(EventKind kind) noexcept;

/// One flat record of the stream. Only the fields relevant to `kind` are
/// meaningful; the rest keep their defaults so the record stays trivially
/// copyable and CSV-serializable.
struct WorkflowEvent {
  EventKind kind = EventKind::StepBegin;
  int step = -1;
  double sim_clock = 0.0;      ///< simulation-partition clock (eq. 4) at emission.
  double staging_clock = 0.0;  ///< staging-partition clock (eq. 5) at emission.
  runtime::Placement placement = runtime::Placement::InSitu;
  runtime::DecisionReason reason = runtime::DecisionReason::None;
  int factor = 1;
  int intransit_cores = 0;
  bool app_adapted = false;
  bool resource_adapted = false;
  bool middleware_adapted = false;
  std::size_t cells = 0;        ///< cells the payload covers (kind-specific).
  std::size_t bytes = 0;        ///< payload size (Transfer/StepEnd).
  double seconds = 0.0;         ///< kind-specific duration (see EventKind).
  double wait_seconds = 0.0;    ///< admission wait preceding a Transfer.
  bool skipped = false;         ///< StepEnd: temporal adaptation skipped analysis.
  // Fault-stream fields (Fault/Retry/Recovery; defaults otherwise).
  runtime::FaultKind fault = runtime::FaultKind::None;
  int attempt = 0;              ///< Retry: 0-based attempt that just failed.
  double backoff_seconds = 0.0; ///< Retry: wait before the next attempt.
  int servers_down = 0;         ///< Fault/Recovery: staging servers down after it.
  int servers_suspected = 0;    ///< ServerSuspected/StepEnd: in-lease crashed servers.
  int replicas = 0;             ///< Replica*/ReadRepair: copies involved.
  // Trigger-stream fields (TriggerFired/TriggerSuppressed carry the per-step
  // evaluation; StepEnd/RunEnd carry the cumulative counters; zero for runs
  // on the default FixedPeriod cadence).
  double indicator = 0.0;         ///< max normalized indicator this step.
  double trigger_threshold = 0.0; ///< trailing-quantile threshold tested.
  int triggers_fired = 0;         ///< cumulative fired sampling steps.
  int steps_suppressed = 0;       ///< cumulative suppressed steps.
  // BufferPool telemetry (StepEnd/RunEnd; zero otherwise). Deltas of the
  // process-global pool counters since this run's RunBegin — deltas, not
  // absolutes, so a run's event log is independent of whatever pool traffic
  // preceded it (and stays byte-identical across pool on/off sweeps when the
  // run itself allocates nothing, as the modeled pipeline does).
  std::uint64_t pool_hits = 0;          ///< recycled acquires during the run.
  std::uint64_t pool_misses = 0;        ///< heap-backed acquires during the run.
  std::uint64_t pool_releases = 0;      ///< buffers returned to the pool.
  std::uint64_t pool_copied_bytes = 0;  ///< payload bytes deep-copied.
};

/// The stream recorded in memory, in emission order: the one sink the step
/// pipeline appends to, read back by the CLI, the benches, and the tests.
class EventLog {
 public:
  void append(const WorkflowEvent& event) { events_.push_back(event); }

  const std::vector<WorkflowEvent>& events() const noexcept { return events_; }

  std::size_t count(EventKind kind) const noexcept {
    std::size_t n = 0;
    for (const WorkflowEvent& e : events_) n += e.kind == kind;
    return n;
  }

 private:
  std::vector<WorkflowEvent> events_;
};

}  // namespace xl::workflow
