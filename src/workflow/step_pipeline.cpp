#include "workflow/step_pipeline.hpp"

#include <algorithm>
#include <cstdint>

#include "amr/memory_model.hpp"
#include "analysis/entropy.hpp"
#include "common/contract.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "staging/space.hpp"
#include "transport/retry_ladder.hpp"

namespace xl::workflow {

using runtime::Placement;

namespace {

/// Combined per-rank cell imbalance across all levels of one step.
double step_imbalance(const amr::SyntheticStep& geom, int nranks) {
  std::vector<std::int64_t> per_rank(static_cast<std::size_t>(nranks), 0);
  for (const auto& layout : geom.levels) {
    const auto& cells = layout.cells_per_rank();
    for (std::size_t r = 0; r < cells.size(); ++r) per_rank[r] += cells[r];
  }
  std::int64_t total = 0, peak = 0;
  for (std::int64_t c : per_rank) {
    total += c;
    peak = std::max(peak, c);
  }
  if (total == 0) return 1.0;
  const double mean = static_cast<double>(total) / static_cast<double>(nranks);
  return std::max(1.0, static_cast<double>(peak) / mean);
}

/// Cells the visualization service consumes this step. When regions of
/// interest are set, only cells inside them count (ROI boxes are given in
/// base-level coordinates and refined to each level's index space).
std::size_t analyzed_cells_of(const amr::SyntheticStep& geom, bool refined_only,
                              const std::vector<mesh::Box>& roi, int ref_ratio) {
  const std::size_t first_level = refined_only && geom.levels.size() > 1 ? 1 : 0;
  if (roi.empty()) {
    std::int64_t cells = 0;
    for (std::size_t l = first_level; l < geom.levels.size(); ++l) {
      cells += geom.cells_per_level[l];
    }
    return static_cast<std::size_t>(cells);
  }
  std::int64_t cells = 0;
  int ratio = 1;
  for (std::size_t l = 0; l < geom.levels.size(); ++l) {
    if (l >= first_level) {
      for (const mesh::Box& b : geom.levels[l].boxes()) {
        for (const mesh::Box& r : roi) {
          cells += (b & r.refine(ratio)).num_cells();
        }
      }
    }
    ratio *= ref_ratio;
  }
  return static_cast<std::size_t>(cells);
}

/// The run's geometry, balanced over one rank per simulation core.
amr::SyntheticAmrConfig rank_geometry(const WorkflowConfig& config) {
  amr::SyntheticAmrConfig geometry = config.geometry;
  geometry.nranks = config.sim_cores;
  return geometry;
}

}  // namespace

// --- StepPipeline ------------------------------------------------------------

StepPipeline::StepPipeline(const WorkflowConfig& config, ExecutionSubstrate& substrate,
                           EventLog* log)
    : config_(config),
      substrate_(substrate),
      evolution_(rank_geometry(config)),
      base_bytes_(amr::per_rank_base_bytes(evolution_.base_layout(), config.memory_model)),
      cost_(config.machine, config.costs, config.threads),
      monitor_(config.monitor),
      log_(log) {
  const int cores_per_node = config_.machine.cores_per_node;
  sim_nodes_ = std::max(1, config_.sim_cores / cores_per_node);
  usable_per_core_ =
      f2s(config_.staging_usable_fraction *
          static_cast<double>(config_.machine.mem_per_core_bytes()));

  XL_REQUIRE(config_.replication >= 1, "replication factor must be >= 1");
  XL_REQUIRE(config_.replication <= config_.staging_cores,
             "replication cannot exceed the staging server count");

  adaptive_ = config_.mode == Mode::AdaptiveMiddleware ||
              config_.mode == Mode::AdaptiveResource || config_.mode == Mode::Global;
  hybrid_ = config_.mode == Mode::StaticHybrid;
  cur_cores_ = config_.staging_cores;
  fault_plan_ = runtime::FaultPlan(config_.faults);
  health_.servers_total = config_.staging_cores;
  cur_placement_ = config_.mode == Mode::StaticInSitu ? Placement::InSitu
                                                      : Placement::InTransit;

  // Estimator hooks binding the engine to the monitor and the cost model.
  runtime::EngineHooks hooks;
  hooks.analysis_seconds = [this](Placement p, std::size_t cells, int cores) {
    return monitor_.estimate_analysis_seconds(p, cells, cores);
  };
  hooks.send_seconds = [this](std::size_t bytes) {
    // Asynchronous initiation on the sender side: the paper's T_sd.
    return cost_.transfer_seconds(bytes, sim_nodes_,
                                  staging_nodes(config_.staging_cores));
  };
  hooks.recv_seconds = [this](std::size_t bytes, int cores) {
    return cost_.transfer_seconds(bytes, sim_nodes_, staging_nodes(cores));
  };
  hooks.next_sim_seconds = [this](std::size_t cells) {
    return monitor_.estimate_sim_seconds(cells);
  };
  // In-situ analysis memory is a PER-RANK quantity (each rank triangulates
  // its own boxes): the worst rank holds data_bytes * imbalance / N, and
  // marching cubes needs roughly that again for triangle buffers.
  hooks.insitu_analysis_mem = [this](std::size_t bytes) {
    return f2s(2.0 * static_cast<double>(bytes) * current_imbalance_ /
               static_cast<double>(config_.sim_cores));
  };

  runtime::EngineConfig engine_config;
  engine_config.preferences.objective = config_.objective;
  engine_config.hints = config_.hints;
  engine_config.plan_order = config_.plan_order;
  engine_config.enable_application = config_.mode == Mode::Global;
  engine_config.enable_middleware =
      config_.mode == Mode::AdaptiveMiddleware || config_.mode == Mode::Global;
  engine_config.enable_resource =
      config_.mode == Mode::AdaptiveResource || config_.mode == Mode::Global;
  engine_config.min_intransit_cores = 1;
  engine_config.max_intransit_cores = config_.staging_cores;
  if (config_.mode == Mode::AdaptiveResource || config_.mode == Mode::Global) {
    // The resource layer may grow the staging area beyond the preallocation
    // (Fig. 9's adaptive curve crosses the static line).
    engine_config.max_intransit_cores = 2 * config_.staging_cores;
  }
  engine_ = std::make_unique<runtime::AdaptationEngine>(engine_config, std::move(hooks));

  WorkflowEvent ev;
  ev.kind = EventKind::RunBegin;
  ev.intransit_cores = cur_cores_;
  emit(ev);
}

int StepPipeline::staging_nodes(int cores) const noexcept {
  return std::max(1, cores / config_.machine.cores_per_node);
}

std::size_t StepPipeline::staging_capacity(int cores) const noexcept {
  // Every staged byte occupies `replication` replicas, so the capacity for
  // LOGICAL data is the physical pool divided by k (k = 1: unchanged).
  return usable_per_core_ * static_cast<std::size_t>(cores) /
         static_cast<std::size_t>(config_.replication);
}

double StepPipeline::analysis_seconds(std::size_t cells, std::size_t active_cells,
                                      int cores) const {
  switch (config_.analysis_kind) {
    case AnalysisKind::Isosurface:
      return cost_.marching_cubes_seconds(cells, active_cells, cores);
    case AnalysisKind::Statistics:
      return cost_.statistics_seconds(cells, cores);
    case AnalysisKind::Subsetting:
      return cost_.subsetting_seconds(cells, cores);
  }
  XL_UNREACHABLE("unknown analysis kind");
}

void StepPipeline::emit(WorkflowEvent event) {
  if (log_ == nullptr) return;
  event.sim_clock = substrate_.sim_now();
  event.staging_clock = substrate_.staging_free_at();
  if (event.kind == EventKind::StepEnd || event.kind == EventKind::RunEnd) {
    event.triggers_fired = result_.triggers_fired;
    event.steps_suppressed = result_.steps_suppressed;
  }
  log_->append(event);
}

void StepPipeline::run_step(int step) {
  StepContext ctx;
  ctx.step = step;
  simulate(ctx);
  monitor(ctx);
  adapt(ctx);
  reduce(ctx);
  place(ctx);
  transfer(ctx);
  analyze(ctx);
  drain(ctx);
}

WorkflowResult StepPipeline::finish() {
  result_.end_to_end_seconds = substrate_.finish();
  result_.pure_sim_seconds = pure_sim_seconds_;
  result_.overhead_seconds = result_.end_to_end_seconds - result_.pure_sim_seconds;

  // Per-step windows and eq. 12's CPU utilization efficiency: in-transit
  // analysis time over in-transit wall time, both summed over the cores
  // allocated at each step (every core of step j is busy for the step's
  // analysis time and present for its whole window).
  double analysis = 0.0, total = 0.0;
  for (std::size_t i = 0; i < result_.steps.size(); ++i) {
    StepRecord& rec = result_.steps[i];
    const double window = (i + 1 < step_starts_.size())
                              ? step_starts_[i + 1] - step_starts_[i]
                              : result_.end_to_end_seconds - step_starts_[i];
    rec.window_seconds = window;
    if (config_.mode != Mode::StaticInSitu) {
      XL_ASSERT(rec.intransit_cores >= 0 && window >= 0.0,
                "step " << rec.step << ": " << rec.intransit_cores << " cores over a "
                        << window << " s window");
      analysis += rec.intransit_analysis_seconds * static_cast<double>(rec.intransit_cores);
      total += static_cast<double>(rec.intransit_cores) * window;
    }
  }
  result_.utilization_efficiency = total > 0.0 ? analysis / total : 0.0;

  WorkflowEvent ev;
  ev.kind = EventKind::RunEnd;
  ev.seconds = result_.end_to_end_seconds;
  ev.bytes = result_.bytes_moved;
  emit(ev);

  XL_LOG_INFO(mode_name(config_.mode)
              << " [" << substrate_.name() << "]: E2E "
              << result_.end_to_end_seconds << "s, sim " << result_.pure_sim_seconds
              << "s, overhead " << result_.overhead_seconds << "s, moved "
              << result_.bytes_moved << "B");
  return std::move(result_);
}

// --- phases ------------------------------------------------------------------

void StepPipeline::simulate(StepContext& ctx) {
  ctx.geom = evolution_.at(ctx.step);
  ctx.total_cells = static_cast<std::size_t>(ctx.geom.total_cells);
  ctx.imbalance = step_imbalance(ctx.geom, config_.sim_cores);
  current_imbalance_ = ctx.imbalance;

  // The simulation advances one step on all N cores.
  const double start = substrate_.sim_now();
  XL_ASSERT(step_starts_.empty() || start >= step_starts_.back(),
            "step starts at " << start << " before previous step's "
                              << step_starts_.back());
  step_starts_.push_back(start);
  ctx.sim_seconds =
      cost_.sim_step_seconds(ctx.total_cells, config_.sim_cores, config_.euler) *
      ctx.imbalance;
  substrate_.advance_sim(ctx.sim_seconds);
  pure_sim_seconds_ += ctx.sim_seconds;
  monitor_.record_sim_step(ctx.step, ctx.sim_seconds, ctx.total_cells);

  ctx.analyzed_cells =
      analyzed_cells_of(ctx.geom, config_.analyze_refined_only,
                        config_.regions_of_interest, config_.geometry.ref_ratio);
  ctx.analysis_ncomp =
      config_.analysis_ncomp > 0 ? config_.analysis_ncomp : config_.ncomp;
  ctx.raw_bytes = ctx.analyzed_cells *
                  static_cast<std::size_t>(ctx.analysis_ncomp) * sizeof(double);

  WorkflowEvent ev;
  ev.kind = EventKind::StepBegin;
  ev.step = ctx.step;
  ev.cells = ctx.total_cells;
  ev.seconds = ctx.sim_seconds;
  ev.factor = cur_factor_;
  ev.intransit_cores = cur_cores_;
  emit(ev);
}

void StepPipeline::monitor(StepContext& ctx) {
  substrate_.release_completed();
  // Apply this step's scheduled crashes/stragglers before the snapshot, so
  // the policies see the post-fault staging partition.
  if (fault_plan_.enabled()) apply_faults(ctx.step);

  runtime::OperationalState& state = ctx.state;
  state.step = ctx.step;
  state.now_seconds = substrate_.sim_now();
  state.sim_cells = ctx.total_cells;
  state.raw_cells = ctx.analyzed_cells;
  state.raw_bytes = ctx.raw_bytes;
  state.ncomp = ctx.analysis_ncomp;
  state.sim_cores = config_.sim_cores;
  {
    const auto peaks =
        amr::per_rank_peak_bytes(base_bytes_, ctx.geom.levels, config_.memory_model);
    const std::size_t worst = *std::max_element(peaks.begin(), peaks.end());
    const std::size_t cap = config_.machine.mem_per_core_bytes();
    state.insitu_mem_available = worst >= cap ? 0 : cap - worst;
  }
  state.intransit_cores = effective_cores();
  state.intransit_mem_per_core = usable_per_core_;
  {
    const std::size_t cap = staging_capacity(effective_cores());
    const std::size_t used = substrate_.staging_mem_used();
    state.intransit_mem_free = used >= cap ? 0 : cap - used;
  }
  state.intransit_backlog_seconds = substrate_.backlog_seconds();
  state.staging_health = health_;
  state.last_sim_step_seconds = ctx.sim_seconds;

  // Temporal resolution: only every analysis_interval-th step is analyzed.
  ctx.scheduled = ctx.step % std::max(1, config_.analysis_interval) == 0;

  // Trigger detection: feed the detector this step's cheap statistics and
  // arm (or suppress) the adapt() sampling gate. The default FixedPeriod
  // policy never reaches this block, keeping the legacy cadence — and its
  // event stream — byte-identical.
  if (adaptive_ && config_.monitor.trigger.policy != runtime::TriggerPolicy::FixedPeriod) {
    runtime::TriggerInputs inputs;
    inputs.tagged_cells = static_cast<std::int64_t>(ctx.analyzed_cells);
    inputs.staged_bytes = ctx.raw_bytes;
    inputs.structure_entropy = analysis::distribution_entropy(ctx.geom.cells_per_level);
    const runtime::TriggerDecision dec = monitor_.observe_step(ctx.step, inputs);
    if (dec.fire) {
      ++result_.triggers_fired;
    } else {
      ++result_.steps_suppressed;
    }
    WorkflowEvent ev;
    ev.kind = dec.fire ? EventKind::TriggerFired : EventKind::TriggerSuppressed;
    ev.step = ctx.step;
    ev.indicator = dec.indicator;
    ev.trigger_threshold = dec.threshold;
    ev.skipped = !dec.sampled;  // estimator skipped this step's window update.
    emit(ev);
  }
}

// The runtime acts on the DETECTED crash count (heartbeat lease expired), not
// the ground truth: with lease_steps = 0 the two coincide bit-identically.
void StepPipeline::apply_faults(int step) {
  const runtime::StagingHealth prev = health_;
  const int servers = config_.staging_cores;
  const int k = config_.replication;
  const int down = std::min(fault_plan_.detected_down_at(step), servers);
  health_.servers_down = down;
  health_.servers_suspected = std::min(fault_plan_.servers_down_at(step), servers) - down;
  health_.slowdown = fault_plan_.slowdown_at(step);
  if (health_.servers_suspected > prev.servers_suspected) {
    // Heartbeats went silent but the lease has not expired: nothing is
    // shed or repaired yet, but transfers routed at the suspected servers
    // retry (transfer()) until the Monitor declares them dead.
    ++result_.server_suspicions;
    WorkflowEvent ev;
    ev.kind = EventKind::ServerSuspected;
    ev.step = step;
    ev.servers_suspected = health_.servers_suspected;
    ev.servers_down = down;
    emit(ev);
  }
  if (down > prev.servers_down) {
    // Declared crash onset: the newly dead servers take staged data with
    // them (staging::crash_loss_fraction prices the share).
    const ShedReport shed = substrate_.shed_staged(
        staging::crash_loss_fraction(servers, k, prev.servers_down, down));
    result_.dropped_bytes += shed.bytes;
    ++result_.faults_injected;
    WorkflowEvent ev;
    ev.kind = EventKind::Fault;
    ev.step = step;
    ev.fault = runtime::FaultKind::ServerCrash;
    ev.servers_down = down;
    ev.bytes = shed.bytes;
    emit(ev);
    if (k > 1) {
      // Surviving objects lost their dead-server replicas
      // (staging::replica_loss_bytes); anti-entropy re-copies them. The copy
      // traffic queues FIFO on the staging cores as zero-byte work, so repair
      // genuinely competes with workflow transfers in the eq. 7 backlog (and
      // the DES event queue) instead of completing by fiat.
      const std::size_t lost_replica_bytes = staging::replica_loss_bytes(
          substrate_.staging_mem_used(), servers, k, prev.servers_down, down);
      WorkflowEvent lost;
      lost.kind = EventKind::ReplicaLost;
      lost.step = step;
      lost.bytes = lost_replica_bytes;
      lost.replicas = k;
      lost.servers_down = down;
      emit(lost);
      if (lost_replica_bytes > 0) {
        const int alive = std::max(1, servers - down);
        const double copy_seconds = cost_.transfer_seconds(
            lost_replica_bytes, staging_nodes(alive), staging_nodes(alive));
        repair_done_at_ = substrate_.enqueue_intransit(
            substrate_.sim_now(), copy_seconds, /*bytes=*/0);
        repair_pending_bytes_ += lost_replica_bytes;
        result_.repair_bytes += lost_replica_bytes;
        ++result_.repairs_scheduled;
        WorkflowEvent rep;
        rep.kind = EventKind::RepairScheduled;
        rep.step = step;
        rep.bytes = lost_replica_bytes;
        rep.replicas = k - 1;
        rep.seconds = copy_seconds;
        emit(rep);
      }
    }
  }
  if (health_.slowdown > 1.0 && prev.slowdown <= 1.0) {
    ++result_.faults_injected;
    WorkflowEvent ev;
    ev.kind = EventKind::Fault;
    ev.step = step;
    ev.fault = runtime::FaultKind::Straggler;
    ev.servers_down = down;
    ev.seconds = health_.slowdown;
    emit(ev);
  }
  const bool servers_recovered = prev.servers_down > 0 && down == 0;
  const bool straggler_ended = prev.slowdown > 1.0 && health_.slowdown <= 1.0;
  if (servers_recovered || straggler_ended) {
    ++result_.recoveries;
    WorkflowEvent ev;
    ev.kind = EventKind::Recovery;
    ev.step = step;
    ev.servers_down = down;
    emit(ev);
  }
  // Sticky until the adaptation engine consumes it (the recovery edge may
  // land between sampling steps).
  if (servers_recovered) health_.just_recovered = true;
  // Once the staging clock passed the queued repair's completion, the
  // surviving objects are fully replicated again.
  if (repair_pending_bytes_ > 0 && substrate_.sim_now() >= repair_done_at_) {
    repair_pending_bytes_ = 0;
  }
  health_.repairing = repair_pending_bytes_ > 0;
}

void StepPipeline::adapt(StepContext& ctx) {
  // Adaptation runs on sampling steps; other steps reuse the last decisions.
  if (adaptive_ && monitor_.should_sample(ctx.step)) {
    if (config_.monitor.estimator == runtime::EstimatorKind::Oracle) {
      const auto active = f2s(config_.active_cell_fraction *
                              static_cast<double>(ctx.analyzed_cells));
      monitor_.set_oracle(
          analysis_seconds(ctx.analyzed_cells, active, config_.sim_cores) *
              ctx.imbalance,
          analysis_seconds(ctx.analyzed_cells, active, std::max(1, effective_cores())));
    }
    const runtime::EngineDecisions dec = engine_->adapt(ctx.state);
    // Recorded before the adaptation overhead below moves the clock.
    WorkflowEvent ev;
    ev.kind = EventKind::Decision;
    ev.step = ctx.step;
    ev.app_adapted = dec.app.has_value();
    ev.resource_adapted = dec.resource.has_value();
    ev.middleware_adapted = dec.middleware.has_value();
    if (dec.app) ev.factor = dec.app->factor;
    ev.intransit_cores = dec.intransit_cores;
    if (dec.middleware) {
      ev.placement = dec.middleware->placement;
      ev.reason = dec.middleware->reason;
    }
    ev.bytes = dec.effective_bytes;
    ev.cells = dec.effective_cells;
    emit(ev);
    // The oracle estimates were computed from THIS step's geometry; drop them
    // so a later sampling step can never consume stale per-step truth.
    monitor_.clear_oracle();
    health_.just_recovered = false;  // the engine saw the recovery edge.
    result_.application_adaptations += dec.app.has_value();
    result_.resource_adaptations += dec.resource.has_value();
    result_.middleware_adaptations += dec.middleware.has_value();
    if (dec.app) {
      cur_factor_ = dec.app->factor;
      last_app_constrained_ = dec.app->memory_constrained;
    }
    if (dec.resource) cur_cores_ = dec.resource->cores;
    if (dec.middleware) {
      cur_placement_ = dec.middleware->placement;
      cur_reason_ = dec.middleware->reason;
    }
    if (config_.mode == Mode::AdaptiveResource) cur_placement_ = Placement::InTransit;
    substrate_.advance_sim(config_.adaptation_overhead_seconds);
  }

  StepRecord& rec = ctx.record;
  rec.backlog_seconds = ctx.state.intransit_backlog_seconds;
  rec.decision_reason = cur_reason_;
  rec.step = ctx.step;
  rec.total_cells = ctx.total_cells;
  rec.analyzed_cells = ctx.analyzed_cells;
  rec.raw_bytes = ctx.raw_bytes;
  rec.factor = cur_factor_;
  rec.intransit_cores = effective_cores();
  rec.servers_down = health_.servers_down;
  rec.servers_suspected = health_.servers_suspected;
  rec.sim_seconds = ctx.sim_seconds;

  // Temporal adaptation gate: skipped steps run neither the reduction nor
  // the analysis (off-schedule, or memory-constrained with
  // skip_analysis_when_constrained set).
  ctx.do_analysis =
      ctx.scheduled && ctx.analyzed_cells > 0 &&
      !(config_.skip_analysis_when_constrained && last_app_constrained_);
  if (!ctx.do_analysis) {
    rec.analysis_skipped = true;
    rec.placement = cur_placement_;
  }
}

void StepPipeline::reduce(StepContext& ctx) {
  if (!ctx.do_analysis) return;

  // The application-layer reduction runs in-situ before any transfer.
  const int factor = cur_factor_;
  const std::size_t f3 = static_cast<std::size_t>(factor) * factor * factor;
  ctx.eff_cells = (ctx.analyzed_cells + f3 - 1) / f3;
  ctx.eff_bytes =
      ctx.eff_cells * static_cast<std::size_t>(ctx.analysis_ncomp) * sizeof(double);
  if (factor > 1) {
    ctx.record.reduce_seconds =
        cost_.downsample_seconds(ctx.eff_cells, config_.sim_cores) * ctx.imbalance;
    substrate_.advance_sim(ctx.record.reduce_seconds);
  }
  ctx.active_cells =
      f2s(config_.active_cell_fraction * static_cast<double>(ctx.eff_cells));
}

void StepPipeline::place(StepContext& ctx) {
  if (!ctx.do_analysis) return;

  const int alive = effective_cores();
  if (fault_plan_.enabled() && alive <= 0) {
    // The whole staging partition is down: every mode — static ones included
    // — degrades to in-situ so the step still completes.
    ctx.split = false;
    ctx.intransit_share = 0.0;
    ctx.record.placement = Placement::InSitu;
    ctx.record.decision_reason = runtime::DecisionReason::StagingUnavailable;
    return;
  }

  if (hybrid_) {
    // Split the analysis: stage the largest share that stays hidden under
    // the (estimated ~ current) step duration; the remainder blocks the
    // simulation in-situ. Both partitions work on disjoint subsets, so
    // their costs are the per-share fractions of the full-kernel times.
    const double full_intransit = analysis_seconds(ctx.eff_cells, ctx.active_cells, alive);
    double intransit_share =
        full_intransit > 0.0 ? std::min(1.0, ctx.sim_seconds / full_intransit) : 1.0;
    const auto staged_bytes =
        f2s(intransit_share * static_cast<double>(ctx.eff_bytes));
    if (substrate_.staging_mem_used() + staged_bytes > staging_capacity(alive)) {
      intransit_share = 0.0;  // staging full: everything in-situ this step
    }
    ctx.split = true;
    ctx.intransit_share = intransit_share;
    ctx.intransit_full_seconds = full_intransit;
    ctx.record.placement =
        intransit_share >= 0.5 ? Placement::InTransit : Placement::InSitu;
    return;
  }

  Placement placement = cur_placement_;
  if (placement == Placement::InTransit && ctx.eff_bytes > staging_capacity(alive)) {
    // The staging area can never cache this step, even drained: forced
    // in-situ (middleware case 1 degenerate).
    placement = Placement::InSitu;
  }
  ctx.intransit_share = placement == Placement::InTransit ? 1.0 : 0.0;
  ctx.record.placement = placement;
}

void StepPipeline::transfer(StepContext& ctx) {
  if (!ctx.do_analysis || ctx.intransit_share <= 0.0) return;

  const int alive = std::max(1, effective_cores());
  ctx.transfer_bytes =
      ctx.split ? f2s(ctx.intransit_share * static_cast<double>(ctx.eff_bytes))
                : ctx.eff_bytes;
  ctx.wire_seconds =
      cost_.transfer_seconds(ctx.transfer_bytes, sim_nodes_, staging_nodes(alive));

  // Resolve the transfer's fate against the fault oracle BEFORE admission:
  // each lost attempt blocks the sender for its detection time plus a
  // backoff, then retries (transport/retry_ladder.hpp); exhausting the retry
  // budget fails the transfer and this step's analysis falls back in-situ
  // without ever charging an admission wait.
  if (fault_plan_.enabled()) {
    const std::uint64_t tid = transfer_seq_++;
    const auto emit_retry = [&](runtime::FaultKind fault, int attempt,
                                double backoff, int servers_suspected) {
      ++result_.transfer_retries;
      ++ctx.record.transfer_retries;
      WorkflowEvent ev;
      ev.kind = EventKind::Retry;
      ev.step = ctx.step;
      ev.fault = fault;
      ev.attempt = attempt;
      ev.backoff_seconds = backoff;
      ev.bytes = ctx.transfer_bytes;
      ev.servers_suspected = servers_suspected;
      emit(ev);
    };
    if (health_.servers_suspected > 0) {
      // The Morton-hash target may be one of the suspected (silent but not
      // yet declared) servers: the put times out once and retries against a
      // probed survivor — the in-flight-put-racing-a-dying-server path the
      // lease window creates. Deterministic (keyed on the suspicion state,
      // no oracle draw); inert whenever lease_steps = 0. Its event is
      // stamped before the detection wait, unlike the oracle retries below.
      const runtime::FaultConfig& fc = fault_plan_.config();
      const double backoff = transport::backoff_seconds(fc, 0);
      emit_retry(runtime::FaultKind::TransferDrop, 0, backoff, health_.servers_suspected);
      substrate_.advance_sim(transport::detection_seconds(fc, ctx.wire_seconds));
      substrate_.advance_sim(backoff);
    }
    for (int attempt = 0;; ++attempt) {
      const auto lost =
          transport::lost_attempt(fault_plan_, tid, attempt, ctx.wire_seconds);
      if (!lost) break;
      substrate_.advance_sim(lost->detect_seconds);
      if (lost->fatal) {
        ++result_.transfer_failures;
        WorkflowEvent ev;
        ev.kind = EventKind::Fault;
        ev.step = ctx.step;
        ev.fault = lost->fault;
        ev.attempt = attempt;
        ev.bytes = ctx.transfer_bytes;
        emit(ev);
        ctx.record.transfer_failed = true;
        ctx.split = false;
        ctx.intransit_share = 0.0;
        ctx.record.placement = Placement::InSitu;
        return;  // analyze() runs the whole analysis in-situ.
      }
      emit_retry(lost->fault, attempt, lost->backoff_seconds, 0);
      substrate_.advance_sim(lost->backoff_seconds);
    }
  }

  if (!ctx.split) {
    // Admission: block the simulation until the staging area has memory
    // (the paper's T_insitu_wait). The hybrid share was already sized against
    // free staging memory in place().
    ctx.record.wait_seconds = substrate_.wait_for_staging_memory(
        ctx.eff_bytes, staging_capacity(effective_cores()));
  }
  ctx.pending_transfer = true;

  WorkflowEvent ev;
  ev.kind = EventKind::Transfer;
  ev.step = ctx.step;
  ev.bytes = ctx.transfer_bytes;
  ev.seconds = ctx.wire_seconds;
  ev.wait_seconds = ctx.record.wait_seconds;
  ev.intransit_cores = effective_cores();
  ev.placement = Placement::InTransit;
  emit(ev);
}

void StepPipeline::analyze(StepContext& ctx) {
  if (!ctx.do_analysis) return;
  StepRecord& rec = ctx.record;

  // Blocking in-situ share first: the simulation cannot hand the staged
  // buffer off before finishing its own part of the analysis.
  double insitu_analysis = 0.0;
  if (ctx.split) {
    const double insitu_share = 1.0 - ctx.intransit_share;
    if (insitu_share > 0.0) {
      insitu_analysis =
          insitu_share *
          analysis_seconds(ctx.eff_cells, ctx.active_cells, config_.sim_cores) *
          ctx.imbalance;
    }
  } else if (ctx.intransit_share <= 0.0) {
    insitu_analysis =
        analysis_seconds(ctx.eff_cells, ctx.active_cells, config_.sim_cores) *
        ctx.imbalance;
  }
  if (insitu_analysis > 0.0 || (!ctx.split && ctx.intransit_share <= 0.0)) {
    substrate_.advance_sim(insitu_analysis);
    rec.insitu_analysis_seconds = insitu_analysis;
    if (!ctx.split) {
      monitor_.record_analysis(
          {ctx.step, Placement::InSitu, ctx.eff_cells, config_.sim_cores, insitu_analysis});
    }
    WorkflowEvent ev;
    ev.kind = EventKind::Analysis;
    ev.step = ctx.step;
    ev.placement = Placement::InSitu;
    ev.cells = ctx.eff_cells;
    ev.seconds = insitu_analysis;
    emit(ev);
  }

  // Commit the planned asynchronous transfer: the sender pays a small
  // initiation cost (RDMA-style), the payload lands a wire-time later and
  // queues FIFO behind the staging backlog.
  if (ctx.pending_transfer) {
    substrate_.advance_sim(0.01 * ctx.wire_seconds);
    const double arrive = substrate_.sim_now() + ctx.wire_seconds;
    const int alive = std::max(1, effective_cores());
    // Straggler faults stretch the staging-side kernel; the slowdown is
    // exactly 1.0 whenever no straggler window is active, so the multiply is
    // bit-identical to the fault-free path.
    const double analysis =
        (ctx.split ? ctx.intransit_share * ctx.intransit_full_seconds
                   : analysis_seconds(ctx.eff_cells, ctx.active_cells, alive)) *
        health_.slowdown;
    substrate_.enqueue_intransit(arrive, analysis, ctx.transfer_bytes);
    result_.bytes_moved += ctx.transfer_bytes;
    rec.moved_bytes = ctx.transfer_bytes;
    rec.intransit_analysis_seconds = analysis;
    if (!ctx.split) {
      monitor_.record_analysis(
          {ctx.step, Placement::InTransit, ctx.eff_cells, alive, analysis});
    }
    WorkflowEvent ev;
    ev.kind = EventKind::Analysis;
    ev.step = ctx.step;
    ev.placement = Placement::InTransit;
    ev.cells = ctx.eff_cells;
    ev.seconds = analysis;
    ev.bytes = ctx.transfer_bytes;
    emit(ev);

    if (config_.replication > 1) {
      // Replicated put: the primary landing fans out k-1 secondary copies
      // across the staging servers; the copy time queues FIFO behind the
      // analysis like any other staging work (memory is already accounted —
      // staging_capacity() is the physical pool over k).
      const std::size_t copy_bytes =
          ctx.transfer_bytes * static_cast<std::size_t>(config_.replication - 1);
      if (copy_bytes > 0) {
        const double copy_seconds = cost_.transfer_seconds(
            copy_bytes, staging_nodes(alive), staging_nodes(alive));
        substrate_.enqueue_intransit(arrive, copy_seconds, /*bytes=*/0);
        result_.replicated_bytes += copy_bytes;
        WorkflowEvent rev;
        rev.kind = EventKind::ReplicaCreated;
        rev.step = ctx.step;
        rev.bytes = copy_bytes;
        rev.replicas = config_.replication - 1;
        rev.seconds = copy_seconds;
        emit(rev);
      }
      if (repair_pending_bytes_ > 0) {
        // This staged read lands while replicas are still missing: the get
        // path re-materializes the replicas of the objects it touches ahead
        // of the background pass (read-repair), shrinking the deficit the
        // queued anti-entropy still has to cover.
        const std::size_t consumed = std::min(repair_pending_bytes_, ctx.transfer_bytes);
        repair_pending_bytes_ -= consumed;
        ++result_.read_repairs;
        WorkflowEvent rr;
        rr.kind = EventKind::ReadRepair;
        rr.step = ctx.step;
        rr.bytes = consumed;
        rr.replicas = config_.replication - 1;
        emit(rr);
      }
    }
  }
}

void StepPipeline::drain(StepContext& ctx) {
  if (ctx.record.analysis_skipped) {
    ++result_.skipped_count;
  } else if (ctx.record.placement == Placement::InSitu) {
    ++result_.insitu_count;
    if (ctx.record.decision_reason == runtime::DecisionReason::StagingUnavailable ||
        ctx.record.decision_reason == runtime::DecisionReason::DegradedInSitu ||
        ctx.record.transfer_failed) {
      ++result_.degraded_insitu_count;
    }
  } else {
    ++result_.intransit_count;
  }
  result_.steps.push_back(ctx.record);

  WorkflowEvent ev;
  ev.kind = EventKind::StepEnd;
  ev.step = ctx.step;
  ev.placement = ctx.record.placement;
  ev.reason = ctx.record.decision_reason;
  ev.factor = ctx.record.factor;
  ev.intransit_cores = ctx.record.intransit_cores;
  ev.cells = ctx.record.analyzed_cells;
  ev.bytes = ctx.record.moved_bytes;
  ev.seconds = ctx.record.sim_seconds;
  ev.wait_seconds = ctx.record.wait_seconds;
  ev.skipped = ctx.record.analysis_skipped;
  ev.servers_down = ctx.record.servers_down;
  ev.servers_suspected = ctx.record.servers_suspected;
  emit(ev);
}

}  // namespace xl::workflow
