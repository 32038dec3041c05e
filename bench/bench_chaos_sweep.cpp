// Chaos sweep: the regression gate for the staging durability layer.
//
// Two harnesses, both deterministic (no PRNG, no wall clock in the verdict):
//
//  (a) object chaos — drives staging::StagingSpace directly through scripted
//      failure schedules (single, rolling, simultaneous-(k-1), and
//      fail-during-repair with a partial anti-entropy budget) at replication
//      k = 1..3 over 8 servers in 4 failure domains. The gate: ZERO staged
//      objects lost for any schedule with <= k-1 concurrent failures, full
//      replication restored after recover + repair, and an FNV checksum of
//      the entire space state (ids, versions, replica lists, per-server
//      ledgers) byte-identical across reruns. A negative control kills every
//      replica of one object at once and must LOSE it — proving the harness
//      detects loss rather than vacuously passing.
//
//  (b) workflow chaos — runs the coupled workflow (Titan 128+8, adaptive
//      middleware) under crash schedules x replication {1,2} x heartbeat
//      lease {0,2}, on BOTH execution substrates. The gate: the event CSVs
//      are byte-identical across substrates and across reruns, and
//      dropped_bytes == 0 whenever the schedule's concurrent failures stay
//      <= k-1.
//
// --quick   trims part (b) to the single + simultaneous schedules (CI smoke)
// --json F  write the report as JSON to file F
// --check   exit non-zero unless every invariant above holds
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/machine.hpp"
#include "mesh/layout.hpp"
#include "report.hpp"
#include "runtime/fault.hpp"
#include "staging/space.hpp"
#include "workflow/coupled_workflow.hpp"
#include "workflow/execution_substrate.hpp"
#include "workflow/observer.hpp"
#include "workflow/trace_io.hpp"

namespace {

using namespace xl;
using namespace xl::workflow;
using mesh::Box;
using staging::LossPolicy;
using staging::StagingSpace;

// --- part (a): object-level chaos on the staging space -----------------------

constexpr int kServers = 8;
constexpr int kServersPerDomain = 2;
constexpr int kObjects = 64;
constexpr int kVersions = 4;
constexpr std::size_t kMemoryPerServer = std::size_t{1} << 20;

/// Scripted failure schedules. Every schedule keeps concurrent failures
/// <= k-1 (given its `min_k`), so the zero-loss invariant must hold.
enum class Schedule { Single, Rolling, Simultaneous, FailDuringRepair };

struct ScheduleSpec {
  Schedule schedule;
  const char* name;
  int min_k;  ///< smallest replication factor the schedule applies to.
};

const ScheduleSpec kSchedules[] = {
    // Relocate moves even a sole copy, so these hold at k = 1 too.
    {Schedule::Single, "single", 1},
    {Schedule::Rolling, "rolling", 1},
    // k-1 concurrent failures in distinct domains, survivors left degraded
    // until the anti-entropy pass.
    {Schedule::Simultaneous, "simultaneous-f", 2},
    // Second failure lands while the first repair is only part-way through
    // its byte budget: two concurrent failures, needs k >= 3.
    {Schedule::FailDuringRepair, "fail-during-repair", 3},
};

void populate(StagingSpace& space) {
  for (int i = 0; i < kObjects; ++i) {
    const Box box = Box::cube({(i % 8) * 32, ((i / 8) % 8) * 32, ((i / 16) % 4) * 64}, 16);
    space.put(i % kVersions, box, 1, 2048 + 64 * static_cast<std::size_t>(i % 7));
  }
}

/// Order-sensitive FNV over the complete observable space state: every
/// object's id, version, and replica list (primary first), plus every
/// server's liveness and ledger. Two runs of the same schedule must agree
/// bit-for-bit.
std::uint64_t space_checksum(const StagingSpace& space) {
  std::uint64_t h = 1469598103934665603ull;
  const auto fold = [&h](std::uint64_t x) { h = (h ^ x) * 1099511628211ull; };
  for (int s = 0; s < space.num_servers(); ++s) {
    fold(space.server_alive(s) ? 1 : 0);
    fold(space.server_used_bytes(s));
  }
  const Box all = Box::domain({256, 256, 256});
  for (int v = 0; v < kVersions; ++v) {
    for (const staging::StagedObject* obj : space.query(v, all)) {
      fold(obj->id);
      fold(static_cast<std::uint64_t>(obj->version));
      fold(obj->bytes);
      fold(obj->replicas.size());
      for (int r : obj->replicas) fold(static_cast<std::uint64_t>(r));
    }
  }
  return h;
}

struct ObjectResult {
  std::string label;
  int k = 0;
  std::size_t dropped_objects = 0;   ///< must be 0.
  std::size_t objects_after = 0;     ///< must be kObjects.
  std::size_t deficit_after = 0;     ///< must be 0 after recover + repair.
  std::size_t repaired_replicas = 0;
  std::uint64_t checksum = 0;        ///< must match the rerun's.
  bool rerun_identical = true;
  bool ok = false;
};

ObjectResult run_object_schedule(int k, const ScheduleSpec& spec) {
  StagingSpace space(kServers, kMemoryPerServer, k, kServersPerDomain);
  populate(space);

  ObjectResult r;
  r.label = std::string("object/") + spec.name + "/k" + std::to_string(k);
  r.k = k;
  switch (spec.schedule) {
    case Schedule::Single: {
      const auto report = space.fail_server(2, LossPolicy::Relocate);
      r.dropped_objects += report.dropped_objects;
      space.recover_server(2);
      break;
    }
    case Schedule::Rolling: {
      for (int s = 0; s < kServers; ++s) {
        const auto report = space.fail_server(s, LossPolicy::Relocate);
        r.dropped_objects += report.dropped_objects;
        space.recover_server(s);
      }
      break;
    }
    case Schedule::Simultaneous: {
      // k-1 concurrent failures, one per failure domain, survivors left
      // under-replicated until the anti-entropy pass below.
      for (int f = 0; f < k - 1; ++f) {
        const auto report =
            space.fail_server(f * kServersPerDomain, LossPolicy::Repair);
        r.dropped_objects += report.dropped_objects;
      }
      const auto pass = space.anti_entropy_repair();
      r.repaired_replicas += pass.repaired_replicas;
      for (int f = 0; f < k - 1; ++f) space.recover_server(f * kServersPerDomain);
      break;
    }
    case Schedule::FailDuringRepair: {
      const auto first = space.fail_server(0, LossPolicy::Repair);
      r.dropped_objects += first.dropped_objects;
      // Partial pass: a tight byte budget leaves most of the deficit behind,
      // so the second failure overlaps an in-progress repair.
      const auto partial = space.anti_entropy_repair(/*max_bytes=*/4096);
      r.repaired_replicas += partial.repaired_replicas;
      const auto second = space.fail_server(2, LossPolicy::Repair);
      r.dropped_objects += second.dropped_objects;
      const auto full = space.anti_entropy_repair();
      r.repaired_replicas += full.repaired_replicas;
      space.recover_server(0);
      space.recover_server(2);
      break;
    }
  }

  // Converge: with every server back, one unbudgeted pass must restore full
  // replication.
  const auto final_pass = space.anti_entropy_repair();
  r.repaired_replicas += final_pass.repaired_replicas;
  r.objects_after = space.object_count();
  r.deficit_after = space.replica_deficit();
  r.checksum = space_checksum(space);
  r.ok = r.dropped_objects == 0 && r.objects_after == kObjects && r.deficit_after == 0;
  return r;
}

/// Negative control: kill every server holding a replica of one object, all
/// at once, with LossPolicy::Drop. The object MUST be lost — if this passes
/// without loss, the harness's loss accounting is broken and every green
/// zero-loss gate above is meaningless.
ObjectResult run_overload_control(int k) {
  StagingSpace space(kServers, kMemoryPerServer, k, kServersPerDomain);
  populate(space);

  ObjectResult r;
  r.label = "object/overload-control/k" + std::to_string(k);
  r.k = k;
  const auto victims = space.query(0, Box::domain({256, 256, 256}));
  const std::vector<int> replicas = victims.front()->replicas;  // k servers
  for (int s : replicas) {
    const auto report = space.fail_server(s, LossPolicy::Drop);
    r.dropped_objects += report.dropped_objects;
  }
  r.objects_after = space.object_count();
  r.deficit_after = 0;
  r.checksum = space_checksum(space);
  // The control PASSES by losing data.
  r.ok = r.dropped_objects >= 1 && r.objects_after < kObjects;
  return r;
}

// --- part (b): workflow-level chaos on both substrates -----------------------

struct WorkflowCase {
  const char* schedule;
  int replication;
  int lease_steps;
  int max_concurrent_down;  ///< worst overlap the crash schedule reaches.
};

WorkflowConfig chaos_config(const WorkflowCase& wc) {
  WorkflowConfig c;
  c.machine = cluster::titan();
  c.sim_cores = 128;
  c.staging_cores = 8;
  c.steps = 15;
  // Static in-transit with deliberately expensive analysis kernels: the
  // staging backlog is non-empty when the crash fires, so the shed / repair
  // arithmetic runs on real staged bytes instead of an empty ledger (and the
  // adaptive middleware cannot dodge the fault by going in-situ).
  c.mode = Mode::StaticInTransit;
  c.geometry.base_domain = Box::domain({256, 128, 128});
  c.geometry.tile_size = 8;
  c.geometry.front_speed = 0.01;
  c.memory_model.ncomp = 1;
  c.hints.factor_phases = {{0, {2}}};
  c.active_cell_fraction = 0.5;
  c.costs.mc_scan_flops_per_cell = 500;
  c.costs.mc_active_flops_per_cell = 5000;
  c.replication = wc.replication;

  // Crash-only schedules: no transfer drops, so every nonzero dropped_bytes
  // is a staged-object loss and the zero-loss gate is unambiguous.
  c.faults = runtime::parse_fault_spec("seed=11;retries=2;backoff=0.001");
  c.faults.lease_steps = wc.lease_steps;
  const auto crash = [&c](int step, int servers, int duration) {
    runtime::FaultSpec spec;
    spec.kind = runtime::FaultKind::ServerCrash;
    spec.step = step;
    spec.servers = servers;
    spec.duration_steps = duration;
    c.faults.events.push_back(spec);
  };
  if (std::strcmp(wc.schedule, "single") == 0) {
    crash(5, 1, 4);
  } else if (std::strcmp(wc.schedule, "rolling") == 0) {
    crash(4, 1, 3);
    crash(9, 1, 3);
  } else if (std::strcmp(wc.schedule, "simultaneous") == 0) {
    crash(5, 2, 4);
  } else {  // fail-during-repair: second crash lands while the first repair
            // is still queued, but the outages never overlap.
    crash(5, 1, 2);
    crash(8, 1, 2);
  }
  return c;
}

struct WorkflowCaseResult {
  std::string label;
  WorkflowCase wc{};
  std::size_t dropped_bytes = 0;
  int suspicions = 0;
  int repairs = 0;
  int read_repairs = 0;
  double end_to_end_seconds = 0.0;
  std::uint64_t csv_checksum = 0;
  bool identical_substrates = false;
  bool identical_rerun = false;
  bool zero_loss_required = false;
  bool ok = false;
};

std::uint64_t fnv(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char ch : s) h = (h ^ ch) * 1099511628211ull;
  return h;
}

std::string events_csv_of(const WorkflowConfig& config, ExecutionSubstrate& substrate,
                          WorkflowResult* out) {
  CoupledWorkflow wf(config);
  EventLog log;
  wf.set_observer(&log);
  const WorkflowResult result = wf.run_on(substrate);
  if (out) *out = result;
  std::ostringstream os;
  write_events_csv(os, log);
  return os.str();
}

WorkflowCaseResult run_workflow_case(const WorkflowCase& wc) {
  const WorkflowConfig config = chaos_config(wc);

  WorkflowCaseResult r;
  r.wc = wc;
  r.label = std::string("workflow/") + wc.schedule + "/k" +
            std::to_string(wc.replication) + "/lease" + std::to_string(wc.lease_steps);

  WorkflowResult result;
  AnalyticSubstrate analytic1, analytic2;
  EventQueueSubstrate des;
  const std::string a1 = events_csv_of(config, analytic1, &result);
  const std::string a2 = events_csv_of(config, analytic2, nullptr);
  const std::string d = events_csv_of(config, des, nullptr);

  r.dropped_bytes = result.dropped_bytes;
  r.suspicions = result.server_suspicions;
  r.repairs = result.repairs_scheduled;
  r.read_repairs = result.read_repairs;
  r.end_to_end_seconds = result.end_to_end_seconds;
  r.csv_checksum = fnv(a1);
  r.identical_rerun = a1 == a2;
  r.identical_substrates = a1 == d;
  r.zero_loss_required = wc.max_concurrent_down <= wc.replication - 1;
  r.ok = r.identical_rerun && r.identical_substrates &&
         (!r.zero_loss_required || r.dropped_bytes == 0);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = bench::parse_gate_flags(argc, argv, "bench_chaos_sweep");
  if (!flags) return 2;
  const bool quick = flags->quick;
  bench::Report report("chaos_sweep", *flags);

  // --- part (a): object chaos (cheap; identical in quick and full mode) ----
  std::printf("=== Chaos sweep (a): staged-object durability, %d servers / %d domains ===\n",
              kServers, kServers / kServersPerDomain);
  std::printf("%-34s %8s %8s %8s %9s %18s %5s\n", "case", "dropped", "objects",
              "deficit", "repaired", "checksum", "ok");
  std::vector<ObjectResult> objects;
  for (int k = 1; k <= 3; ++k) {
    for (const ScheduleSpec& spec : kSchedules) {
      if (k < spec.min_k) continue;
      ObjectResult r = run_object_schedule(k, spec);
      r.rerun_identical = run_object_schedule(k, spec).checksum == r.checksum;
      r.ok = r.ok && r.rerun_identical;
      objects.push_back(r);
    }
    objects.push_back(run_overload_control(k));
  }
  for (const ObjectResult& r : objects) {
    std::printf("%-34s %8zu %8zu %8zu %9zu %18llu %5s\n", r.label.c_str(),
                r.dropped_objects, r.objects_after, r.deficit_after,
                r.repaired_replicas, static_cast<unsigned long long>(r.checksum),
                r.ok ? "yes" : "NO");
    report.invariant(r.label, r.ok,
                     r.label + (r.rerun_identical ? " violated its invariant"
                                                  : " checksum drifted across reruns"));
    report.add("object_cases", bench::Record()
                                   .set("case", r.label)
                                   .set("replication", r.k)
                                   .set("dropped_objects", r.dropped_objects)
                                   .set("objects_after", r.objects_after)
                                   .set("deficit_after", r.deficit_after)
                                   .set("repaired_replicas", r.repaired_replicas)
                                   .set("checksum", r.checksum)
                                   .set("rerun_identical", r.rerun_identical)
                                   .set("ok", r.ok));
  }

  // --- part (b): workflow chaos on both substrates --------------------------
  std::vector<const char*> schedules;
  if (quick) {
    schedules = {"single", "simultaneous"};
  } else {
    schedules = {"single", "rolling", "simultaneous", "fail-during-repair"};
  }
  std::printf("\n=== Chaos sweep (b): workflow crash schedules x replication x lease (%s) ===\n",
              quick ? "quick" : "full");
  std::printf("%-42s %12s %5s %7s %7s %10s %6s %5s %5s\n", "case", "dropped_B",
              "susp", "repairs", "rd-rep", "end-to-end", "subst", "rerun", "ok");
  int workflow_cases = 0;
  for (const char* schedule : schedules) {
    const int max_down = std::strcmp(schedule, "simultaneous") == 0 ? 2 : 1;
    for (int k : {1, 2}) {
      for (int lease : {0, 2}) {
        const WorkflowCaseResult r = run_workflow_case({schedule, k, lease, max_down});
        std::printf("%-42s %12zu %5d %7d %7d %9.1fs %6s %5s %5s\n", r.label.c_str(),
                    r.dropped_bytes, r.suspicions, r.repairs, r.read_repairs,
                    r.end_to_end_seconds, r.identical_substrates ? "yes" : "NO",
                    r.identical_rerun ? "yes" : "NO", r.ok ? "yes" : "NO");
        report.invariant(r.label, r.ok,
                         r.label + (r.identical_substrates ? "" : " substrates diverged") +
                             (r.identical_rerun ? "" : " rerun diverged") +
                             (r.zero_loss_required && r.dropped_bytes > 0
                                  ? " lost staged bytes under <= k-1 failures"
                                  : ""));
        report.add("workflow_cases",
                   bench::Record()
                       .set("case", r.label)
                       .set("dropped_bytes", r.dropped_bytes)
                       .set("suspicions", r.suspicions)
                       .set("repairs", r.repairs)
                       .set("read_repairs", r.read_repairs)
                       .set("end_to_end_seconds", r.end_to_end_seconds)
                       .set("csv_checksum", r.csv_checksum)
                       .set("identical_substrates", r.identical_substrates)
                       .set("identical_rerun", r.identical_rerun)
                       .set("zero_loss_required", r.zero_loss_required)
                       .set("ok", r.ok));
        ++workflow_cases;
      }
    }
  }
  std::printf("(event CSVs bit-identical across substrates and reruns in every case)\n");

  return report.finish(bench::strprintf(
      "%zu object cases zero-loss + negative control, %d workflow cases substrate- "
      "and rerun-identical",
      objects.size(), workflow_cases));
}
