#include "workflow/step_pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>

#include "amr/memory_model.hpp"
#include "analysis/entropy.hpp"
#include "common/contract.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "transport/retry_ladder.hpp"

namespace xl::workflow {

using runtime::Placement;

namespace {

/// Combined per-rank cell imbalance across all levels of one step.
double step_imbalance(const amr::SyntheticStep& geom, int nranks) {
  std::vector<std::int64_t> per_rank(static_cast<std::size_t>(nranks), 0);
  for (const auto& layout : geom.levels) {
    const auto cells = layout.cells_per_rank();
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

}  // namespace

// --- StepPipeline ------------------------------------------------------------

StepPipeline::StepPipeline(const WorkflowConfig& config, ExecutionSubstrate& substrate,
                           WorkflowObserver* observer)
    : config_(config),
      evolution_(config.geometry),
      cost_(config.machine, config.costs, config.threads),
      monitor_(config.monitor),
      timeline_(substrate),
      observer_(observer) {
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
  hooks.on_decisions = [this](const runtime::OperationalState& state,
                              const runtime::EngineDecisions& dec) {
    WorkflowEvent ev;
    ev.kind = EventKind::Decision;
    ev.step = state.step;
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

  phases_.push_back(std::make_unique<SimulatePhase>(*this));
  phases_.push_back(std::make_unique<MonitorPhase>(*this));
  phases_.push_back(std::make_unique<AdaptPhase>(*this));
  phases_.push_back(std::make_unique<ReducePhase>(*this));
  phases_.push_back(std::make_unique<PlacementPhase>(*this));
  phases_.push_back(std::make_unique<TransferPhase>(*this));
  phases_.push_back(std::make_unique<AnalyzePhase>(*this));
  phases_.push_back(std::make_unique<DrainPhase>(*this));

  pool_base_ = BufferPool::global().stats();

  WorkflowEvent ev;
  ev.kind = EventKind::RunBegin;
  ev.intransit_cores = cur_cores_;
  emit(ev);
  flush_events();
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
  if (observer_ == nullptr) return;
  event.sim_clock = timeline_.sim_now();
  event.staging_clock = timeline_.staging_free_at();
  if (event.kind == EventKind::StepEnd || event.kind == EventKind::RunEnd) {
    // Deltas since RunBegin, so the log only reflects pool traffic this run
    // caused (zero for purely modeled runs, whatever the pool's prior state).
    const PoolStats now = BufferPool::global().stats();
    event.pool_hits = now.hits - pool_base_.hits;
    event.pool_misses = now.misses - pool_base_.misses;
    event.pool_releases = now.releases - pool_base_.releases;
    event.pool_copied_bytes = now.copied_bytes - pool_base_.copied_bytes;
    event.triggers_fired = result_.triggers_fired;
    event.steps_suppressed = result_.steps_suppressed;
  }
  batch_.push_back(event);
}

void StepPipeline::flush_events() {
  if (observer_ == nullptr || batch_.empty()) return;
  observer_->on_events(std::span<const WorkflowEvent>(batch_.data(), batch_.size()));
  batch_.clear();
}

void StepPipeline::run_step(int step) {
  StepContext ctx;
  ctx.step = step;
  for (auto& phase : phases_) phase->run(ctx);
  flush_events();
}

std::vector<const char*> StepPipeline::phase_names() const {
  std::vector<const char*> names;
  names.reserve(phases_.size());
  for (const auto& phase : phases_) names.push_back(phase->name());
  return names;
}

WorkflowResult StepPipeline::finish() {
  result_.end_to_end_seconds = timeline_.finish();
  result_.pure_sim_seconds = timeline_.pure_sim_seconds();
  result_.overhead_seconds = result_.end_to_end_seconds - result_.pure_sim_seconds;

  // Per-step windows + the eq. 12 staging utilization trace.
  const std::vector<double>& step_starts = timeline_.step_starts();
  for (std::size_t i = 0; i < result_.steps.size(); ++i) {
    const double window = (i + 1 < step_starts.size())
                              ? step_starts[i + 1] - step_starts[i]
                              : result_.end_to_end_seconds - step_starts[i];
    result_.steps[i].window_seconds = window;
    if (config_.mode != Mode::StaticInSitu) {
      cluster::StagingStepRecord trace_rec;
      trace_rec.step = result_.steps[i].step;
      trace_rec.cores_allocated = result_.steps[i].intransit_cores;
      trace_rec.analysis_seconds = result_.steps[i].intransit_analysis_seconds *
                                   static_cast<double>(result_.steps[i].intransit_cores);
      trace_rec.wall_seconds = window;
      result_.staging_trace.record(trace_rec);
    }
  }
  result_.utilization_efficiency = result_.staging_trace.utilization_efficiency();

  WorkflowEvent ev;
  ev.kind = EventKind::RunEnd;
  ev.seconds = result_.end_to_end_seconds;
  ev.bytes = result_.bytes_moved;
  emit(ev);
  flush_events();

  XL_LOG_INFO(mode_name(config_.mode)
              << " [" << timeline_.substrate().name() << "]: E2E "
              << result_.end_to_end_seconds << "s, sim " << result_.pure_sim_seconds
              << "s, overhead " << result_.overhead_seconds << "s, moved "
              << result_.bytes_moved << "B");
  return std::move(result_);
}

// --- SimulatePhase -----------------------------------------------------------

const char* SimulatePhase::name() const noexcept { return "simulate"; }

void SimulatePhase::run(StepContext& ctx) {
  const WorkflowConfig& config = p_.config_;
  ctx.geom = p_.evolution_.at(ctx.step);
  ctx.total_cells = static_cast<std::size_t>(ctx.geom.total_cells);
  ctx.imbalance = step_imbalance(ctx.geom, config.sim_cores);
  p_.current_imbalance_ = ctx.imbalance;

  // The simulation advances one step on all N cores.
  p_.timeline_.begin_step();
  ctx.sim_seconds =
      p_.cost_.sim_step_seconds(ctx.total_cells, config.sim_cores, config.euler) *
      ctx.imbalance;
  p_.timeline_.advance_sim(ctx.sim_seconds, /*pure=*/true);
  p_.monitor_.record_sim_step(ctx.step, ctx.sim_seconds, ctx.total_cells);

  ctx.analyzed_cells =
      analyzed_cells_of(ctx.geom, config.analyze_refined_only,
                        config.regions_of_interest, config.geometry.ref_ratio);
  ctx.analysis_ncomp =
      config.analysis_ncomp > 0 ? config.analysis_ncomp : config.ncomp;
  ctx.raw_bytes = ctx.analyzed_cells *
                  static_cast<std::size_t>(ctx.analysis_ncomp) * sizeof(double);

  WorkflowEvent ev;
  ev.kind = EventKind::StepBegin;
  ev.step = ctx.step;
  ev.cells = ctx.total_cells;
  ev.seconds = ctx.sim_seconds;
  ev.factor = p_.cur_factor_;
  ev.intransit_cores = p_.cur_cores_;
  p_.emit(ev);
}

// --- MonitorPhase ------------------------------------------------------------

const char* MonitorPhase::name() const noexcept { return "monitor"; }

void MonitorPhase::run(StepContext& ctx) {
  const WorkflowConfig& config = p_.config_;
  p_.timeline_.release_completed();

  // Fault layer: apply this step's scheduled crashes/stragglers before the
  // snapshot, so the policies see the post-fault staging partition. Every
  // branch here is inert when fault injection is disabled. The runtime acts
  // on the DETECTED crash count (heartbeat lease expired), not the ground
  // truth: with lease_steps = 0 the two coincide bit-identically.
  if (p_.fault_plan_.enabled()) {
    const int k = config.replication;
    const int actual_down =
        std::min(p_.fault_plan_.servers_down_at(ctx.step), config.staging_cores);
    const int down =
        std::min(p_.fault_plan_.detected_down_at(ctx.step), config.staging_cores);
    const int suspected = actual_down - down;
    const double slowdown = p_.fault_plan_.slowdown_at(ctx.step);
    if (suspected > p_.prev_servers_suspected_) {
      // Heartbeats went silent but the lease has not expired: nothing is
      // shed or repaired yet, but transfers routed at the suspected servers
      // retry (TransferPhase) until the Monitor declares them dead.
      ++p_.result_.server_suspicions;
      WorkflowEvent ev;
      ev.kind = EventKind::ServerSuspected;
      ev.step = ctx.step;
      ev.servers_suspected = suspected;
      ev.servers_down = down;
      p_.emit(ev);
    }
    if (down > p_.prev_servers_down_) {
      // Declared crash onset: the newly dead servers take staged data with
      // them. k = 1: an object dies with its server (uniform share of the
      // in-flight buffers — the original arithmetic, kept verbatim). k > 1:
      // an object dies only when ALL k of its distinct-server replicas
      // landed on dead servers — hypergeometric C(d,k)/C(M,k) — so the
      // incremental shed is the newly-lost fraction of what survived so far.
      double lost_fraction;
      if (k == 1) {
        const int alive_before = config.staging_cores - p_.prev_servers_down_;
        lost_fraction =
            down >= config.staging_cores
                ? 1.0
                : static_cast<double>(down - p_.prev_servers_down_) /
                      static_cast<double>(alive_before);
      } else {
        const auto all_replicas_dead = [&](int d) {
          if (d >= config.staging_cores) return 1.0;
          if (d < k) return 0.0;
          double f = 1.0;
          for (int i = 0; i < k; ++i) {
            f *= static_cast<double>(d - i) /
                 static_cast<double>(config.staging_cores - i);
          }
          return f;
        };
        const double before = all_replicas_dead(p_.prev_servers_down_);
        const double now = all_replicas_dead(down);
        lost_fraction = before >= 1.0 ? 1.0 : (now - before) / (1.0 - before);
      }
      const ShedReport shed = p_.timeline_.shed_staged(lost_fraction);
      p_.result_.dropped_bytes += shed.bytes;
      ++p_.result_.faults_injected;
      WorkflowEvent ev;
      ev.kind = EventKind::Fault;
      ev.step = ctx.step;
      ev.fault = runtime::FaultKind::ServerCrash;
      ev.servers_down = down;
      ev.bytes = shed.bytes;
      p_.emit(ev);
      if (k > 1) {
        // Surviving objects lost their dead-server replicas (k * d_new / M of
        // the surviving replica footprint on average); anti-entropy re-copies
        // them. The copy traffic queues FIFO on the staging cores as
        // zero-byte work, so repair genuinely competes with workflow
        // transfers in the eq. 7 backlog (and the DES event queue) instead
        // of completing by fiat.
        const std::size_t staged_after = p_.timeline_.staging_mem_used();
        const std::size_t lost_replica_bytes =
            f2s(static_cast<double>(staged_after) * static_cast<double>(k) *
                static_cast<double>(down - p_.prev_servers_down_) /
                static_cast<double>(config.staging_cores));
        WorkflowEvent lost;
        lost.kind = EventKind::ReplicaLost;
        lost.step = ctx.step;
        lost.bytes = lost_replica_bytes;
        lost.replicas = k;
        lost.servers_down = down;
        p_.emit(lost);
        if (lost_replica_bytes > 0) {
          const int alive = std::max(1, config.staging_cores - down);
          const double copy_seconds = p_.cost_.transfer_seconds(
              lost_replica_bytes, p_.staging_nodes(alive),
              p_.staging_nodes(alive));
          p_.repair_done_at_ = p_.timeline_.enqueue_intransit(
              p_.timeline_.sim_now(), copy_seconds, /*bytes=*/0);
          p_.repair_pending_bytes_ += lost_replica_bytes;
          p_.result_.repair_bytes += lost_replica_bytes;
          ++p_.result_.repairs_scheduled;
          WorkflowEvent rep;
          rep.kind = EventKind::RepairScheduled;
          rep.step = ctx.step;
          rep.bytes = lost_replica_bytes;
          rep.replicas = k - 1;
          rep.seconds = copy_seconds;
          p_.emit(rep);
        }
      }
    }
    if (slowdown > 1.0 && p_.prev_slowdown_ <= 1.0) {
      ++p_.result_.faults_injected;
      WorkflowEvent ev;
      ev.kind = EventKind::Fault;
      ev.step = ctx.step;
      ev.fault = runtime::FaultKind::Straggler;
      ev.servers_down = down;
      ev.seconds = slowdown;
      p_.emit(ev);
    }
    const bool servers_recovered = p_.prev_servers_down_ > 0 && down == 0;
    const bool straggler_ended = p_.prev_slowdown_ > 1.0 && slowdown <= 1.0;
    if (servers_recovered || straggler_ended) {
      ++p_.result_.recoveries;
      WorkflowEvent ev;
      ev.kind = EventKind::Recovery;
      ev.step = ctx.step;
      ev.servers_down = down;
      p_.emit(ev);
    }
    // Sticky until the adaptation engine consumes it (the recovery edge may
    // land between sampling steps).
    if (servers_recovered) p_.staging_recovered_now_ = true;
    p_.servers_down_now_ = down;
    p_.servers_suspected_now_ = suspected;
    p_.slowdown_now_ = slowdown;
    p_.prev_servers_down_ = down;
    p_.prev_servers_suspected_ = suspected;
    p_.prev_slowdown_ = slowdown;
    // Once the staging clock passed the queued repair's completion, the
    // surviving objects are fully replicated again.
    if (p_.repair_pending_bytes_ > 0 &&
        p_.timeline_.sim_now() >= p_.repair_done_at_) {
      p_.repair_pending_bytes_ = 0;
    }
  }

  runtime::OperationalState& state = ctx.state;
  state.step = ctx.step;
  state.now_seconds = p_.timeline_.sim_now();
  state.sim_cells = ctx.total_cells;
  state.raw_cells = ctx.analyzed_cells;
  state.raw_bytes = ctx.raw_bytes;
  state.ncomp = ctx.analysis_ncomp;
  state.sim_cores = config.sim_cores;
  {
    const auto peaks = amr::per_rank_peak_bytes(ctx.geom.levels, config.memory_model);
    const std::size_t worst = *std::max_element(peaks.begin(), peaks.end());
    const std::size_t cap = config.machine.mem_per_core_bytes();
    state.insitu_mem_available = worst >= cap ? 0 : cap - worst;
  }
  state.intransit_cores = p_.effective_cores();
  state.intransit_mem_per_core = p_.usable_per_core_;
  {
    const std::size_t cap = p_.staging_capacity(p_.effective_cores());
    const std::size_t used = p_.timeline_.staging_mem_used();
    state.intransit_mem_free = used >= cap ? 0 : cap - used;
  }
  state.intransit_backlog_seconds = p_.timeline_.backlog_seconds();
  state.staging_health.servers_total = config.staging_cores;
  state.staging_health.servers_down = p_.servers_down_now_;
  state.staging_health.servers_suspected = p_.servers_suspected_now_;
  state.staging_health.slowdown = p_.slowdown_now_;
  state.staging_health.just_recovered = p_.staging_recovered_now_;
  state.staging_health.repairing = p_.repair_pending_bytes_ > 0;
  p_.monitor_.record_staging_health(state.staging_health);
  if (p_.fault_plan_.enabled()) {
    // Mirror the fault oracle into the Monitor's heartbeat tracker: `beating`
    // is total minus the ACTUAL crashed set (suspected servers are silent
    // too); the tracker's windowed declaration must agree with
    // detected_down_at, which a unit test pins.
    p_.monitor_.record_heartbeats(
        ctx.step,
        config.staging_cores - p_.servers_down_now_ - p_.servers_suspected_now_,
        config.staging_cores, p_.fault_plan_.config().lease_steps);
  }
  state.last_sim_step_seconds = ctx.sim_seconds;

  // Temporal resolution: only every analysis_interval-th step is analyzed.
  ctx.scheduled = ctx.step % std::max(1, config.analysis_interval) == 0;

  // Trigger detection: feed the detector this step's cheap statistics and
  // arm (or suppress) the AdaptPhase sampling gate. The default FixedPeriod
  // policy never reaches this block, keeping the legacy cadence — and its
  // event stream — byte-identical.
  if (p_.adaptive_ &&
      config.monitor.trigger.policy != runtime::TriggerPolicy::FixedPeriod) {
    runtime::TriggerInputs inputs;
    inputs.tagged_cells = static_cast<std::int64_t>(ctx.analyzed_cells);
    inputs.staged_bytes = ctx.raw_bytes;
    inputs.structure_entropy = analysis::distribution_entropy(ctx.geom.cells_per_level);
    const runtime::TriggerDecision dec = p_.monitor_.observe_step(ctx.step, inputs);
    if (dec.fire) {
      ++p_.result_.triggers_fired;
    } else {
      ++p_.result_.steps_suppressed;
    }
    WorkflowEvent ev;
    ev.kind = dec.fire ? EventKind::TriggerFired : EventKind::TriggerSuppressed;
    ev.step = ctx.step;
    ev.indicator = dec.indicator;
    ev.trigger_threshold = dec.threshold;
    ev.skipped = !dec.sampled;  // estimator skipped this step's window update.
    p_.emit(ev);
  }
}

// --- AdaptPhase --------------------------------------------------------------

const char* AdaptPhase::name() const noexcept { return "adapt"; }

void AdaptPhase::run(StepContext& ctx) {
  const WorkflowConfig& config = p_.config_;

  // Adaptation runs on sampling steps; other steps reuse the last decisions.
  if (p_.adaptive_ && p_.monitor_.should_sample(ctx.step)) {
    if (config.monitor.estimator == runtime::EstimatorKind::Oracle) {
      const auto active = f2s(config.active_cell_fraction *
                              static_cast<double>(ctx.analyzed_cells));
      p_.monitor_.set_oracle(
          p_.analysis_seconds(ctx.analyzed_cells, active, config.sim_cores) *
              ctx.imbalance,
          p_.analysis_seconds(ctx.analyzed_cells, active,
                              std::max(1, p_.effective_cores())));
    }
    const runtime::EngineDecisions dec = p_.engine_->adapt(ctx.state);
    // The oracle estimates were computed from THIS step's geometry; drop them
    // so a later sampling step can never consume stale per-step truth.
    p_.monitor_.clear_oracle();
    p_.staging_recovered_now_ = false;  // the engine saw the recovery edge.
    p_.result_.application_adaptations += dec.app.has_value();
    p_.result_.resource_adaptations += dec.resource.has_value();
    p_.result_.middleware_adaptations += dec.middleware.has_value();
    if (dec.app) {
      p_.cur_factor_ = dec.app->factor;
      p_.last_app_constrained_ = dec.app->memory_constrained;
    }
    if (dec.resource) p_.cur_cores_ = dec.resource->cores;
    if (dec.middleware) {
      p_.cur_placement_ = dec.middleware->placement;
      p_.cur_reason_ = dec.middleware->reason;
    }
    if (config.mode == Mode::AdaptiveResource) p_.cur_placement_ = Placement::InTransit;
    p_.timeline_.advance_sim(config.adaptation_overhead_seconds);
  }

  StepRecord& rec = ctx.record;
  rec.backlog_seconds = ctx.state.intransit_backlog_seconds;
  rec.decision_reason = p_.cur_reason_;
  rec.step = ctx.step;
  rec.total_cells = ctx.total_cells;
  rec.analyzed_cells = ctx.analyzed_cells;
  rec.raw_bytes = ctx.raw_bytes;
  rec.factor = p_.cur_factor_;
  rec.intransit_cores = p_.effective_cores();
  rec.servers_down = p_.servers_down_now_;
  rec.servers_suspected = p_.servers_suspected_now_;
  rec.sim_seconds = ctx.sim_seconds;

  // Temporal adaptation gate: skipped steps run neither the reduction nor
  // the analysis (off-schedule, or memory-constrained with
  // skip_analysis_when_constrained set).
  ctx.do_analysis =
      ctx.scheduled && ctx.analyzed_cells > 0 &&
      !(config.skip_analysis_when_constrained && p_.last_app_constrained_);
  if (!ctx.do_analysis) {
    rec.analysis_skipped = true;
    rec.placement = p_.cur_placement_;
  }
}

// --- ReducePhase -------------------------------------------------------------

const char* ReducePhase::name() const noexcept { return "reduce"; }

void ReducePhase::run(StepContext& ctx) {
  if (!ctx.do_analysis) return;
  const WorkflowConfig& config = p_.config_;

  // The application-layer reduction runs in-situ before any transfer.
  const int factor = p_.cur_factor_;
  const std::size_t f3 = static_cast<std::size_t>(factor) * factor * factor;
  ctx.eff_cells = (ctx.analyzed_cells + f3 - 1) / f3;
  ctx.eff_bytes =
      ctx.eff_cells * static_cast<std::size_t>(ctx.analysis_ncomp) * sizeof(double);
  if (factor > 1) {
    ctx.record.reduce_seconds =
        p_.cost_.downsample_seconds(ctx.eff_cells, config.sim_cores) * ctx.imbalance;
    p_.timeline_.advance_sim(ctx.record.reduce_seconds);
  }
  ctx.active_cells =
      f2s(config.active_cell_fraction * static_cast<double>(ctx.eff_cells));
}

// --- PlacementPhase ----------------------------------------------------------

const char* PlacementPhase::name() const noexcept { return "placement"; }

void PlacementPhase::run(StepContext& ctx) {
  if (!ctx.do_analysis) return;

  const int alive = p_.effective_cores();
  if (p_.fault_plan_.enabled() && alive <= 0) {
    // The whole staging partition is down: every mode — static ones included
    // — degrades to in-situ so the step still completes.
    ctx.split = false;
    ctx.intransit_share = 0.0;
    ctx.record.placement = Placement::InSitu;
    ctx.record.decision_reason = runtime::DecisionReason::StagingUnavailable;
    return;
  }

  if (p_.hybrid_) {
    // Split the analysis: stage the largest share that stays hidden under
    // the (estimated ~ current) step duration; the remainder blocks the
    // simulation in-situ. Both partitions work on disjoint subsets, so
    // their costs are the per-share fractions of the full-kernel times.
    const double full_intransit =
        p_.analysis_seconds(ctx.eff_cells, ctx.active_cells, alive);
    double intransit_share =
        full_intransit > 0.0 ? std::min(1.0, ctx.sim_seconds / full_intransit) : 1.0;
    const auto staged_bytes =
        f2s(intransit_share * static_cast<double>(ctx.eff_bytes));
    if (p_.timeline_.staging_mem_used() + staged_bytes >
        p_.staging_capacity(alive)) {
      intransit_share = 0.0;  // staging full: everything in-situ this step
    }
    ctx.split = true;
    ctx.intransit_share = intransit_share;
    ctx.intransit_full_seconds = full_intransit;
    ctx.record.placement =
        intransit_share >= 0.5 ? Placement::InTransit : Placement::InSitu;
    return;
  }

  Placement placement = p_.cur_placement_;
  if (placement == Placement::InTransit &&
      ctx.eff_bytes > p_.staging_capacity(alive)) {
    // The staging area can never cache this step, even drained: forced
    // in-situ (middleware case 1 degenerate).
    placement = Placement::InSitu;
  }
  ctx.intransit_share = placement == Placement::InTransit ? 1.0 : 0.0;
  ctx.record.placement = placement;
}

// --- TransferPhase -----------------------------------------------------------

const char* TransferPhase::name() const noexcept { return "transfer"; }

void TransferPhase::run(StepContext& ctx) {
  if (!ctx.do_analysis || ctx.intransit_share <= 0.0) return;

  const int alive = std::max(1, p_.effective_cores());
  ctx.transfer_bytes =
      ctx.split ? f2s(ctx.intransit_share * static_cast<double>(ctx.eff_bytes))
                : ctx.eff_bytes;
  ctx.wire_seconds = p_.cost_.transfer_seconds(ctx.transfer_bytes, p_.sim_nodes_,
                                               p_.staging_nodes(alive));

  // Resolve the transfer's fate against the fault oracle BEFORE admission:
  // each lost attempt blocks the sender for its detection time plus a
  // backoff, then retries (transport/retry_ladder.hpp); exhausting the retry
  // budget fails the transfer and this step's analysis falls back in-situ
  // without ever charging an admission wait.
  if (p_.fault_plan_.enabled()) {
    const std::uint64_t tid = p_.transfer_seq_++;
    const auto emit_retry = [&](runtime::FaultKind fault, int attempt,
                                double backoff, int servers_suspected) {
      ++p_.result_.transfer_retries;
      ++ctx.record.transfer_retries;
      WorkflowEvent ev;
      ev.kind = EventKind::Retry;
      ev.step = ctx.step;
      ev.fault = fault;
      ev.attempt = attempt;
      ev.backoff_seconds = backoff;
      ev.bytes = ctx.transfer_bytes;
      ev.servers_suspected = servers_suspected;
      p_.emit(ev);
    };
    if (p_.servers_suspected_now_ > 0) {
      // The Morton-hash target may be one of the suspected (silent but not
      // yet declared) servers: the put times out once and retries against a
      // probed survivor — the in-flight-put-racing-a-dying-server path the
      // lease window creates. Deterministic (keyed on the suspicion state,
      // no oracle draw); inert whenever lease_steps = 0. Its event is
      // stamped before the detection wait, unlike the oracle retries below.
      const runtime::FaultConfig& fc = p_.fault_plan_.config();
      const double backoff = transport::backoff_seconds(fc, 0);
      emit_retry(runtime::FaultKind::TransferDrop, 0, backoff,
                 p_.servers_suspected_now_);
      p_.timeline_.advance_sim(transport::detection_seconds(fc, ctx.wire_seconds));
      p_.timeline_.advance_sim(backoff);
    }
    for (int attempt = 0;; ++attempt) {
      const auto lost =
          transport::lost_attempt(p_.fault_plan_, tid, attempt, ctx.wire_seconds);
      if (!lost) break;
      p_.timeline_.advance_sim(lost->detect_seconds);
      if (lost->fatal) {
        ++p_.result_.transfer_failures;
        WorkflowEvent ev;
        ev.kind = EventKind::Fault;
        ev.step = ctx.step;
        ev.fault = lost->fault;
        ev.attempt = attempt;
        ev.bytes = ctx.transfer_bytes;
        p_.emit(ev);
        ctx.record.transfer_failed = true;
        ctx.split = false;
        ctx.intransit_share = 0.0;
        ctx.record.placement = Placement::InSitu;
        return;  // AnalyzePhase runs the whole analysis in-situ.
      }
      emit_retry(lost->fault, attempt, lost->backoff_seconds, 0);
      p_.timeline_.advance_sim(lost->backoff_seconds);
    }
  }

  if (!ctx.split) {
    // Admission: block the simulation until the staging area has memory
    // (the paper's T_insitu_wait). The hybrid share was already sized against
    // free staging memory in PlacementPhase.
    ctx.record.wait_seconds = p_.timeline_.wait_for_staging_memory(
        ctx.eff_bytes, p_.staging_capacity(p_.effective_cores()));
  }
  ctx.pending_transfer = true;

  WorkflowEvent ev;
  ev.kind = EventKind::Transfer;
  ev.step = ctx.step;
  ev.bytes = ctx.transfer_bytes;
  ev.seconds = ctx.wire_seconds;
  ev.wait_seconds = ctx.record.wait_seconds;
  ev.intransit_cores = p_.effective_cores();
  ev.placement = Placement::InTransit;
  p_.emit(ev);
}

// --- AnalyzePhase ------------------------------------------------------------

const char* AnalyzePhase::name() const noexcept { return "analyze"; }

void AnalyzePhase::run(StepContext& ctx) {
  if (!ctx.do_analysis) return;
  const WorkflowConfig& config = p_.config_;
  StepRecord& rec = ctx.record;

  // Blocking in-situ share first: the simulation cannot hand the staged
  // buffer off before finishing its own part of the analysis.
  double insitu_analysis = 0.0;
  if (ctx.split) {
    const double insitu_share = 1.0 - ctx.intransit_share;
    if (insitu_share > 0.0) {
      insitu_analysis =
          insitu_share *
          p_.analysis_seconds(ctx.eff_cells, ctx.active_cells, config.sim_cores) *
          ctx.imbalance;
    }
  } else if (ctx.intransit_share <= 0.0) {
    insitu_analysis =
        p_.analysis_seconds(ctx.eff_cells, ctx.active_cells, config.sim_cores) *
        ctx.imbalance;
  }
  if (insitu_analysis > 0.0 || (!ctx.split && ctx.intransit_share <= 0.0)) {
    p_.timeline_.advance_sim(insitu_analysis);
    rec.insitu_analysis_seconds = insitu_analysis;
    if (!ctx.split) {
      p_.monitor_.record_analysis({ctx.step, Placement::InSitu, ctx.eff_cells,
                                   config.sim_cores, insitu_analysis});
    }
    WorkflowEvent ev;
    ev.kind = EventKind::Analysis;
    ev.step = ctx.step;
    ev.placement = Placement::InSitu;
    ev.cells = ctx.eff_cells;
    ev.seconds = insitu_analysis;
    p_.emit(ev);
  }

  // Commit the planned asynchronous transfer: the sender pays a small
  // initiation cost (RDMA-style), the payload lands a wire-time later and
  // queues FIFO behind the staging backlog.
  if (ctx.pending_transfer) {
    p_.timeline_.advance_sim(0.01 * ctx.wire_seconds);
    const double arrive = p_.timeline_.sim_now() + ctx.wire_seconds;
    const int alive = std::max(1, p_.effective_cores());
    // Straggler faults stretch the staging-side kernel; slowdown_now_ is
    // exactly 1.0 whenever no straggler window is active, so the multiply is
    // bit-identical to the fault-free path.
    const double analysis =
        (ctx.split ? ctx.intransit_share * ctx.intransit_full_seconds
                   : p_.analysis_seconds(ctx.eff_cells, ctx.active_cells, alive)) *
        p_.slowdown_now_;
    p_.timeline_.enqueue_intransit(arrive, analysis, ctx.transfer_bytes);
    p_.result_.bytes_moved += ctx.transfer_bytes;
    rec.moved_bytes = ctx.transfer_bytes;
    rec.intransit_analysis_seconds = analysis;
    if (!ctx.split) {
      p_.monitor_.record_analysis(
          {ctx.step, Placement::InTransit, ctx.eff_cells, alive, analysis});
    }
    WorkflowEvent ev;
    ev.kind = EventKind::Analysis;
    ev.step = ctx.step;
    ev.placement = Placement::InTransit;
    ev.cells = ctx.eff_cells;
    ev.seconds = analysis;
    ev.bytes = ctx.transfer_bytes;
    p_.emit(ev);

    if (config.replication > 1) {
      // Replicated put: the primary landing fans out k-1 secondary copies
      // across the staging servers; the copy time queues FIFO behind the
      // analysis like any other staging work (memory is already accounted —
      // staging_capacity() is the physical pool over k).
      const std::size_t copy_bytes =
          ctx.transfer_bytes * static_cast<std::size_t>(config.replication - 1);
      if (copy_bytes > 0) {
        const double copy_seconds = p_.cost_.transfer_seconds(
            copy_bytes, p_.staging_nodes(alive), p_.staging_nodes(alive));
        p_.timeline_.enqueue_intransit(arrive, copy_seconds, /*bytes=*/0);
        p_.result_.replicated_bytes += copy_bytes;
        WorkflowEvent rev;
        rev.kind = EventKind::ReplicaCreated;
        rev.step = ctx.step;
        rev.bytes = copy_bytes;
        rev.replicas = config.replication - 1;
        rev.seconds = copy_seconds;
        p_.emit(rev);
      }
      if (p_.repair_pending_bytes_ > 0) {
        // This staged read lands while replicas are still missing: the get
        // path re-materializes the replicas of the objects it touches ahead
        // of the background pass (read-repair), shrinking the deficit the
        // queued anti-entropy still has to cover.
        const std::size_t consumed =
            std::min(p_.repair_pending_bytes_, ctx.transfer_bytes);
        p_.repair_pending_bytes_ -= consumed;
        ++p_.result_.read_repairs;
        WorkflowEvent rr;
        rr.kind = EventKind::ReadRepair;
        rr.step = ctx.step;
        rr.bytes = consumed;
        rr.replicas = config.replication - 1;
        p_.emit(rr);
      }
    }
  }
}

// --- DrainPhase --------------------------------------------------------------

const char* DrainPhase::name() const noexcept { return "drain"; }

void DrainPhase::run(StepContext& ctx) {
  if (ctx.record.analysis_skipped) {
    ++p_.result_.skipped_count;
  } else if (ctx.record.placement == Placement::InSitu) {
    ++p_.result_.insitu_count;
    if (ctx.record.decision_reason == runtime::DecisionReason::StagingUnavailable ||
        ctx.record.decision_reason == runtime::DecisionReason::DegradedInSitu ||
        ctx.record.transfer_failed) {
      ++p_.result_.degraded_insitu_count;
    }
  } else {
    ++p_.result_.intransit_count;
  }
  p_.result_.steps.push_back(ctx.record);

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
  p_.emit(ev);
}

}  // namespace xl::workflow
