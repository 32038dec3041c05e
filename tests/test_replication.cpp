// Tests for the staging durability layer: k-way replica placement across
// failure domains, per-replica ledger accounting, LossPolicy semantics,
// quorum reads with read-repair, budgeted anti-entropy, the chaos schedules
// (no staged object or byte lost while concurrent failures stay at or below
// k-1, on the space and in the workflow), and the threaded service surviving
// k-1 concurrent server failures under client load (the TSan chaos target).
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/machine.hpp"
#include "common/contract.hpp"
#include "common/error.hpp"
#include "events_csv.hpp"
#include "runtime/fault.hpp"
#include "staging/service.hpp"
#include "staging/space.hpp"
#include "workflow/coupled_workflow.hpp"
#include "workflow/execution_substrate.hpp"

namespace xl::staging {
namespace {

using mesh::Box;
using mesh::Fab;

Box box_at(int i) { return Box::cube({(i % 8) * 32, ((i / 8) % 8) * 32, 0}, 16); }

void fill(StagingSpace& space, int objects, std::size_t bytes = 4096) {
  for (int i = 0; i < objects; ++i) space.put(i % 4, box_at(i), 1, bytes);
}

// --- replica placement -------------------------------------------------------

TEST(ReplicaPlacement, TargetsAreDistinctAliveServers) {
  StagingSpace space(8, std::size_t{1} << 20, /*replication=*/3);
  for (int i = 0; i < 16; ++i) {
    const std::vector<int> targets = space.replica_targets(box_at(i), 4096);
    ASSERT_EQ(targets.size(), 3u) << "object " << i;
    EXPECT_EQ(targets.front(), space.target_server(box_at(i)));
    const std::set<int> unique(targets.begin(), targets.end());
    EXPECT_EQ(unique.size(), targets.size()) << "duplicate server, object " << i;
  }
}

TEST(ReplicaPlacement, PrefersDistinctFailureDomains) {
  // 8 servers in 4 domains of 2: with k = 3 and everything alive, the three
  // replicas must land in three different domains.
  StagingSpace space(8, std::size_t{1} << 20, /*replication=*/3, /*servers_per_domain=*/2);
  for (int i = 0; i < 16; ++i) {
    const std::vector<int> targets = space.replica_targets(box_at(i), 4096);
    ASSERT_EQ(targets.size(), 3u);
    std::set<int> domains;
    for (int s : targets) domains.insert(space.domain_of(s));
    EXPECT_EQ(domains.size(), 3u) << "object " << i;
  }
}

TEST(ReplicaPlacement, DegradedGroupYieldsFewerReplicas) {
  StagingSpace space(4, std::size_t{1} << 20, /*replication=*/3);
  space.fail_server(1, LossPolicy::Drop);
  space.fail_server(2, LossPolicy::Drop);
  const Box box = box_at(0);
  const std::vector<int> targets = space.replica_targets(box, 4096);
  EXPECT_EQ(targets.size(), 2u);  // only 2 alive servers remain
  const auto id = space.put(0, box, 1, 4096);
  EXPECT_EQ(space.object_replicas(id), 2u);
}

TEST(ReplicaPlacement, QuorumIsMajority) {
  EXPECT_EQ(StagingSpace(4, 1 << 20, 1).quorum(), 1);
  EXPECT_EQ(StagingSpace(4, 1 << 20, 2).quorum(), 2);
  EXPECT_EQ(StagingSpace(4, 1 << 20, 3).quorum(), 2);
  EXPECT_EQ(StagingSpace(8, 1 << 20, 5).quorum(), 3);
}

// --- target_server probing edges ---------------------------------------------

TEST(TargetServer, AllDeadReturnsMinusOne) {
  StagingSpace space(3, 1 << 20);
  for (int s = 0; s < 3; ++s) space.fail_server(s, LossPolicy::Drop);
  EXPECT_EQ(space.alive_servers(), 0);
  EXPECT_EQ(space.target_server(box_at(0)), -1);
  EXPECT_TRUE(space.replica_targets(box_at(0), 64).empty());
}

TEST(TargetServer, SingleSurvivorMapsEverything) {
  StagingSpace space(4, 1 << 20);
  for (int s : {0, 1, 3}) space.fail_server(s, LossPolicy::Drop);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(space.target_server(box_at(i)), 2);
}

TEST(TargetServer, RecoveryRestoresHashTargets) {
  StagingSpace space(4, 1 << 20);
  std::vector<int> before;
  for (int i = 0; i < 32; ++i) before.push_back(space.target_server(box_at(i)));
  for (int s = 0; s < 4; ++s) {
    space.fail_server(s, LossPolicy::Drop);
    space.recover_server(s);
  }
  for (int i = 0; i < 32; ++i) EXPECT_EQ(space.target_server(box_at(i)), before[i]);
}

// --- ledger accounting under replication -------------------------------------

TEST(ReplicaLedger, EveryReplicaIsCharged) {
  StagingSpace space(8, std::size_t{1} << 20, /*replication=*/3);
  fill(space, 16, 4096);
  // Physical footprint = k x payload; per-server ledgers sum to used_bytes().
  EXPECT_EQ(space.used_bytes(), 16u * 4096u * 3u);
  EXPECT_EQ(space.replica_count(), 48u);
  std::size_t per_server = 0;
  for (int s = 0; s < 8; ++s) per_server += space.server_used_bytes(s);
  EXPECT_EQ(per_server, space.used_bytes());
  EXPECT_EQ(space.free_bytes(), space.capacity_bytes() - space.used_bytes());
}

TEST(ReplicaLedger, BalancesThroughFailRepairRecoverCycles) {
  StagingSpace space(8, std::size_t{1} << 20, /*replication=*/3, /*servers_per_domain=*/2);
  fill(space, 24, 4096);
  const std::size_t logical = 24u * 4096u;
  for (int cycle = 0; cycle < 3; ++cycle) {
    const int victim = (2 * cycle) % 8;
    space.fail_server(victim, LossPolicy::Repair);
    EXPECT_EQ(space.server_used_bytes(victim), 0u) << "cycle " << cycle;
    const RepairReport pass = space.anti_entropy_repair();
    EXPECT_EQ(pass.remaining_deficit, 0u) << "cycle " << cycle;
    space.recover_server(victim);
    // Full replication restored: ledgers sum to exactly k x logical again.
    EXPECT_EQ(space.used_bytes(), logical * 3u) << "cycle " << cycle;
    EXPECT_EQ(space.replica_deficit(), 0u) << "cycle " << cycle;
    std::size_t per_server = 0;
    for (int s = 0; s < 8; ++s) per_server += space.server_used_bytes(s);
    EXPECT_EQ(per_server, space.used_bytes()) << "cycle " << cycle;
  }
  EXPECT_EQ(space.object_count(), 24u);
}

TEST(ReplicaLedger, EraseFreesEveryReplica) {
  StagingSpace space(8, std::size_t{1} << 20, /*replication=*/2);
  const auto id = space.put(0, box_at(0), 1, 4096);
  EXPECT_EQ(space.used_bytes(), 8192u);
  space.erase(id);
  EXPECT_EQ(space.used_bytes(), 0u);
  for (int s = 0; s < 8; ++s) EXPECT_EQ(space.server_used_bytes(s), 0u);
}

// --- LossPolicy semantics ----------------------------------------------------

TEST(LossPolicy, RelocateRebuildsReplicasImmediately) {
  StagingSpace space(8, std::size_t{1} << 20, /*replication=*/2);
  fill(space, 16, 4096);
  const ServerLossReport report = space.fail_server(3, LossPolicy::Relocate);
  EXPECT_EQ(report.dropped_objects, 0u);
  EXPECT_EQ(report.degraded_objects, 0u);
  // Whatever server 3 held came back as fresh replicas elsewhere.
  EXPECT_EQ(report.repaired_bytes, report.repaired_objects * 4096u);
  EXPECT_EQ(space.replica_deficit(), 0u);
  EXPECT_EQ(space.object_count(), 16u);
}

TEST(LossPolicy, RepairLeavesSurvivorsDegraded) {
  StagingSpace space(8, std::size_t{1} << 20, /*replication=*/2);
  fill(space, 16, 4096);
  const ServerLossReport report = space.fail_server(3, LossPolicy::Repair);
  EXPECT_EQ(report.dropped_objects, 0u);
  EXPECT_EQ(report.repaired_objects, 0u);
  EXPECT_EQ(space.replica_deficit(), report.degraded_objects);
  const RepairReport pass = space.anti_entropy_repair();
  EXPECT_EQ(pass.repaired_replicas, report.degraded_objects);
  EXPECT_EQ(space.replica_deficit(), 0u);
}

TEST(LossPolicy, DropAbandonsLastCopies) {
  StagingSpace space(2, std::size_t{1} << 20, /*replication=*/1);
  fill(space, 16, 4096);
  const std::size_t on0 = space.server_used_bytes(0) / 4096;
  const ServerLossReport report = space.fail_server(0, LossPolicy::Drop);
  EXPECT_EQ(report.dropped_objects, on0);
  EXPECT_EQ(report.dropped_bytes, on0 * 4096u);
  EXPECT_EQ(space.object_count(), 16u - on0);
}

// --- crash-loss closed form --------------------------------------------------

TEST(CrashLoss, SingleCopyLosesTheDeadServersShareOfTheSurvivors) {
  EXPECT_EQ(crash_loss_fraction(8, 1, 0, 2), 2.0 / 8.0);
  EXPECT_EQ(crash_loss_fraction(8, 1, 2, 4), 2.0 / 6.0);  // of the six survivors
  EXPECT_EQ(crash_loss_fraction(8, 1, 3, 8), 1.0);
}

TEST(CrashLoss, ReplicatedObjectsDieOnlyWithAllTheirReplicas) {
  EXPECT_EQ(crash_loss_fraction(8, 2, 0, 1), 0.0);  // d < k
  EXPECT_DOUBLE_EQ(crash_loss_fraction(8, 2, 0, 2), 1.0 / 28.0);  // C(2,2)/C(8,2)
  // C(4,2)/C(8,2) = 6/28 in all, of which 5/27 falls on the 27/28 that
  // survived the first crash.
  EXPECT_DOUBLE_EQ(crash_loss_fraction(8, 2, 2, 4), 5.0 / 27.0);
  EXPECT_EQ(crash_loss_fraction(8, 3, 1, 8), 1.0);
}

TEST(CrashLoss, IncrementalShedsComposeToTheOneShotLoss) {
  for (int k : {1, 2, 3}) {
    const double first = crash_loss_fraction(12, k, 0, 4);
    const double second = crash_loss_fraction(12, k, 4, 7);
    EXPECT_NEAR(first + (1.0 - first) * second, crash_loss_fraction(12, k, 0, 7), 1e-12)
        << "k=" << k;
  }
}

TEST(CrashLoss, RejectsImpossibleCounts) {
  EXPECT_THROW(crash_loss_fraction(8, 1, 2, 2), ContractError);  // nothing new died
  EXPECT_THROW(crash_loss_fraction(8, 1, 0, 9), ContractError);
  EXPECT_THROW(crash_loss_fraction(8, 9, 0, 1), ContractError);
}

TEST(CrashLoss, SingleCopyMatchesTheObjectModelOnAverage) {
  // k = 1: the Morton hash spreads objects near-uniformly, so killing d of M
  // servers drops close to d/M of the bytes.
  StagingSpace space(8, std::size_t{1} << 30, /*replication=*/1);
  for (int i = 0; i < 512; ++i) {
    space.put(0, Box::cube({(i % 8) * 16, (i / 8 % 8) * 16, (i / 64) * 16}, 8), 1, 4096);
  }
  std::size_t dropped = 0;
  for (int server : {0, 1, 2}) dropped += space.fail_server(server, LossPolicy::Drop).dropped_bytes;
  EXPECT_NEAR(static_cast<double>(dropped) / (512.0 * 4096.0), crash_loss_fraction(8, 1, 0, 3),
              0.08);
}

// --- replica-loss closed form ------------------------------------------------

TEST(ReplicaLoss, NewlyDeadServersHeldTheirShareOfTheReplicaFootprint) {
  // k = 2 copies of 800 surviving bytes on 8 servers: 200 bytes per server.
  EXPECT_EQ(replica_loss_bytes(800, 8, 2, 0, 2), 400u);
  EXPECT_EQ(replica_loss_bytes(800, 8, 2, 2, 3), 200u);  // only the newly dead
  EXPECT_EQ(replica_loss_bytes(0, 8, 3, 0, 4), 0u);
  // Evaluated as k * staged * d_new / M in doubles, the modeled pipeline's
  // order, so the repair events it prices stay bit-identical.
  const std::size_t staged = 123456789;
  EXPECT_EQ(replica_loss_bytes(staged, 7, 3, 1, 4),
            f2s(static_cast<double>(staged) * 3.0 * 3.0 / 7.0));
}

TEST(ReplicaLoss, MatchesTheObjectModelOnAverage) {
  // One crash among 8 servers at k = 2: the survivors miss about 2/8 of
  // their replicas, which anti-entropy must re-create.
  StagingSpace space(8, std::size_t{1} << 30, /*replication=*/2);
  for (int i = 0; i < 512; ++i) {
    space.put(0, Box::cube({(i % 8) * 16, (i / 8 % 8) * 16, (i / 64) * 16}, 8), 1, 4096);
  }
  space.fail_server(0, LossPolicy::Repair);
  ASSERT_EQ(space.object_count(), 512u);  // k = 2 survives one crash
  const double expected = static_cast<double>(replica_loss_bytes(512 * 4096, 8, 2, 0, 1));
  EXPECT_NEAR(static_cast<double>(space.replica_deficit() * 4096), expected, 0.2 * expected);
}

TEST(ReplicaLoss, RejectsImpossibleCounts) {
  EXPECT_THROW(replica_loss_bytes(4096, 8, 2, 2, 2), ContractError);  // nothing new died
  EXPECT_THROW(replica_loss_bytes(4096, 8, 2, 0, 9), ContractError);
  EXPECT_THROW(replica_loss_bytes(4096, 8, 9, 0, 1), ContractError);
}

// --- anti-entropy budget and read-repair -------------------------------------

TEST(AntiEntropy, ByteBudgetBoundsOnePass) {
  StagingSpace space(8, std::size_t{1} << 20, /*replication=*/2);
  fill(space, 16, 4096);
  space.fail_server(2, LossPolicy::Repair);
  const std::size_t deficit = space.replica_deficit();
  ASSERT_GT(deficit, 1u);  // the schedule must actually degrade something
  const RepairReport partial = space.anti_entropy_repair(/*max_bytes=*/4096);
  EXPECT_EQ(partial.repaired_replicas, 1u);  // one 4096-byte copy fits
  EXPECT_EQ(partial.remaining_deficit, deficit - 1);
  const RepairReport rest = space.anti_entropy_repair();
  EXPECT_EQ(rest.remaining_deficit, 0u);
  EXPECT_EQ(partial.repaired_replicas + rest.repaired_replicas, deficit);
}

TEST(ReadRepair, RestoresQuorumForTheReadObjects) {
  StagingSpace space(8, std::size_t{1} << 20, /*replication=*/3);
  fill(space, 16, 4096);
  space.fail_server(1, LossPolicy::Repair);
  space.fail_server(4, LossPolicy::Repair);
  ASSERT_GT(space.replica_deficit(), 0u);
  const Box everything = Box::domain({256, 256, 256});
  const ReadReport read = space.read_repair(0, everything);  // version 0 only
  EXPECT_EQ(read.objects, 4u);
  EXPECT_GT(read.repaired_replicas, 0u);
  // Every object the read touched is back at full strength for this group.
  for (const StagedObject* obj : space.query(0, everything)) {
    EXPECT_GE(obj->replicas.size(), static_cast<std::size_t>(space.quorum()));
  }
  // Objects of other versions were NOT repaired by this read.
  EXPECT_GT(space.replica_deficit(), 0u);
}

// --- object-level chaos ------------------------------------------------------

// Scripted failure schedules. Each keeps concurrent failures at or below k-1
// for every k it runs at, so none may lose an object.
enum class Schedule { Single, Rolling, Simultaneous, FailDuringRepair };

struct ScheduleCase {
  Schedule schedule;
  const char* name;
  int min_k;  ///< smallest k the schedule stays within k-1 failures at.
};

const ScheduleCase kSchedules[] = {
    // Relocate rebuilds even a sole copy, so these hold at k = 1.
    {Schedule::Single, "single", 1},
    {Schedule::Rolling, "rolling", 1},
    // k-1 concurrent failures in distinct domains; the survivors stay
    // degraded until the anti-entropy pass.
    {Schedule::Simultaneous, "simultaneous", 2},
    // The second failure lands while the first repair is part-way through
    // its byte budget: two concurrent failures.
    {Schedule::FailDuringRepair, "fail-during-repair", 3},
};

constexpr std::size_t kChaosObjects = 64;
const Box kEverything = Box::domain({256, 256, 256});

/// 64 objects of 4 versions and 7 sizes on 8 servers in 4 domains of 2.
StagingSpace chaos_space(int k) {
  StagingSpace space(8, std::size_t{1} << 20, k, /*servers_per_domain=*/2);
  for (int i = 0; i < static_cast<int>(kChaosObjects); ++i) {
    const Box box = Box::cube({(i % 8) * 32, ((i / 8) % 8) * 32, ((i / 16) % 4) * 64}, 16);
    space.put(i % 4, box, 1, 2048 + 64 * static_cast<std::size_t>(i % 7));
  }
  return space;
}

/// Run `schedule` at replication `k`, then recover every server and repair
/// without a byte budget. Returns the objects the failures dropped.
std::size_t run_schedule(StagingSpace& space, Schedule schedule, int k) {
  std::size_t dropped = 0;
  const auto fail = [&](int server, LossPolicy policy) {
    dropped += space.fail_server(server, policy).dropped_objects;
  };
  switch (schedule) {
    case Schedule::Single:
      fail(2, LossPolicy::Relocate);
      space.recover_server(2);
      break;
    case Schedule::Rolling:
      for (int s = 0; s < space.num_servers(); ++s) {
        fail(s, LossPolicy::Relocate);
        space.recover_server(s);
      }
      break;
    case Schedule::Simultaneous:
      for (int f = 0; f < k - 1; ++f) fail(2 * f, LossPolicy::Repair);
      space.anti_entropy_repair();
      for (int f = 0; f < k - 1; ++f) space.recover_server(2 * f);
      break;
    case Schedule::FailDuringRepair:
      fail(0, LossPolicy::Repair);
      space.anti_entropy_repair(/*max_bytes=*/4096);
      fail(2, LossPolicy::Repair);
      space.anti_entropy_repair();
      space.recover_server(0);
      space.recover_server(2);
      break;
  }
  space.anti_entropy_repair();
  return dropped;
}

/// Every server's liveness and ledger, then every object's id, version, bytes
/// and replicas, primary first.
std::string space_state(const StagingSpace& space) {
  std::ostringstream os;
  for (int s = 0; s < space.num_servers(); ++s) {
    os << space.server_alive(s) << ' ' << space.server_used_bytes(s) << '\n';
  }
  for (int version = 0; version < 4; ++version) {
    for (const StagedObject* obj : space.query(version, kEverything)) {
      os << obj->id << ' ' << obj->version << ' ' << obj->bytes << ':';
      for (int r : obj->replicas) os << ' ' << r;
      os << '\n';
    }
  }
  return os.str();
}

TEST(ObjectChaos, ZeroLossWithinKMinusOneFailures) {
  for (int k = 1; k <= 3; ++k) {
    for (const ScheduleCase& sc : kSchedules) {
      if (k < sc.min_k) continue;
      SCOPED_TRACE(testing::Message() << sc.name << " at k=" << k);
      StagingSpace space = chaos_space(k);
      EXPECT_EQ(run_schedule(space, sc.schedule, k), 0u);
      EXPECT_EQ(space.object_count(), kChaosObjects);
      EXPECT_EQ(space.replica_deficit(), 0u);
      StagingSpace rerun = chaos_space(k);
      run_schedule(rerun, sc.schedule, k);
      EXPECT_EQ(space_state(rerun), space_state(space));
    }
  }
}

TEST(ObjectChaos, KillingEveryReplicaLosesTheObject) {
  // The negative control: the harness sees a loss when there is one.
  for (int k = 1; k <= 3; ++k) {
    SCOPED_TRACE(testing::Message() << "k=" << k);
    StagingSpace space = chaos_space(k);
    const std::vector<int> holders = space.query(0, kEverything).front()->replicas;
    ASSERT_EQ(holders.size(), static_cast<std::size_t>(k));
    std::size_t dropped = 0;
    for (int s : holders) dropped += space.fail_server(s, LossPolicy::Drop).dropped_objects;
    EXPECT_GE(dropped, 1u);
    EXPECT_EQ(space.object_count(), kChaosObjects - dropped);
  }
}

// --- workflow-level chaos ----------------------------------------------------

// Crash schedules on Titan 128+8, static in transit, with deliberately
// expensive analysis kernels: the staging backlog is non-empty when a crash
// fires, so the shed and repair arithmetic runs on staged bytes, and the
// static placement cannot dodge a crash by going in situ.
struct CrashSchedule {
  const char* name;
  const char* crashes;  ///< fault-spec crash clauses.
  int max_down;         ///< most servers down at once.
};

const CrashSchedule kCrashSchedules[] = {
    {"single", "crash=5:1:4", 1},
    {"rolling", "crash=4:1:3;crash=9:1:3", 1},
    {"simultaneous", "crash=5:2:4", 2},
    // The second crash lands while the first one's repair is still queued;
    // the outages never overlap.
    {"fail-during-repair", "crash=5:1:2;crash=8:1:2", 1},
};

workflow::WorkflowConfig crash_config(const CrashSchedule& schedule, int k, int lease) {
  workflow::WorkflowConfig c;
  c.machine = cluster::titan();
  c.sim_cores = 128;
  c.staging_cores = 8;
  c.steps = 15;
  c.mode = workflow::Mode::StaticInTransit;
  c.geometry.base_domain = Box::domain({256, 128, 128});
  c.geometry.tile_size = 8;
  c.geometry.front_speed = 0.01;
  c.memory_model.ncomp = 1;
  c.hints.factor_phases = {{0, {2}}};
  c.active_cell_fraction = 0.5;
  c.costs.mc_scan_flops_per_cell = 500;
  c.costs.mc_active_flops_per_cell = 5000;
  c.replication = k;
  // Crashes only, no transfer drops: every dropped byte is a lost staged one.
  c.faults = runtime::parse_fault_spec("seed=11;retries=2;backoff=0.001;lease=" +
                                       std::to_string(lease) + ";" + schedule.crashes);
  return c;
}

TEST(WorkflowChaos, ZeroLossWithinKMinusOneAndIdenticalReplays) {
  std::size_t dropped_unreplicated = 0;
  for (const CrashSchedule& schedule : kCrashSchedules) {
    for (int k : {1, 2}) {
      for (int lease : {0, 2}) {
        SCOPED_TRACE(testing::Message() << schedule.name << " k=" << k << " lease=" << lease);
        const workflow::WorkflowConfig config = crash_config(schedule, k, lease);
        workflow::AnalyticSubstrate a1, a2;
        workflow::EventQueueSubstrate des;
        workflow::WorkflowResult result;
        const std::string csv = test::events_csv(config, a1, &result);
        EXPECT_EQ(csv, test::events_csv(config, a2));
        EXPECT_EQ(csv, test::events_csv(config, des));
        if (schedule.max_down <= k - 1) {
          EXPECT_EQ(result.dropped_bytes, 0u);
        }
        if (k == 1) dropped_unreplicated += result.dropped_bytes;
      }
    }
  }
  // The crashes reach staged bytes: without replication they lose some.
  EXPECT_GT(dropped_unreplicated, 0u);
}

// --- service-level chaos (the TSan target) -----------------------------------

// f = k-1 concurrent server failures under concurrent client load: no staged
// object may be lost, and every future must complete. Run under TSan with
// XL_THREADS=4 in CI; the assertions hold regardless of thread interleaving
// because loss takes k overlapping failures.
TEST(ServiceChaos, SurvivesConcurrentFailuresBelowReplication) {
  constexpr int kReplication = 3;
  constexpr int kPuts = 48;
  ServiceConfig cfg;
  cfg.num_servers = 8;
  cfg.memory_per_server = std::size_t{8} << 20;
  cfg.replication = kReplication;
  cfg.servers_per_domain = 2;
  cfg.loss_policy = LossPolicy::Repair;
  StagingService service(cfg);

  std::atomic<int> accepted{0};
  std::thread writer([&] {
    for (int i = 0; i < kPuts; ++i) {
      const Box box = box_at(i);
      if (service.put_async(0, box, Fab(box, 1, double(i))).get().accepted) {
        accepted.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  std::thread chaos([&] {
    // k-1 = 2 concurrent failures in distinct domains, twice, with repair
    // and recovery between rounds — failures land mid-put-stream.
    for (int round = 0; round < 2; ++round) {
      const int a = round * 4, b = round * 4 + 2;
      (void)service.fail_server(a);
      (void)service.fail_server(b);
      (void)service.repair_async().get();
      service.recover_server(a);
      service.recover_server(b);
    }
  });
  writer.join();
  chaos.join();
  service.drain();
  (void)service.repair_async().get();

  // Zero loss: every accepted put is still readable.
  const auto fabs = service.get_async(0, Box::domain({256, 256, 256})).get();
  EXPECT_EQ(static_cast<int>(fabs.size()), accepted.load());
  EXPECT_EQ(accepted.load(), kPuts);  // memory was ample; nothing was refused
  EXPECT_EQ(service.replica_deficit(), 0u);
  EXPECT_EQ(service.replica_count(), static_cast<std::size_t>(kPuts) * kReplication);
}

TEST(ServiceChaos, ObserverSeesDurabilityEvents) {
  ServiceEventLog log;
  ServiceConfig cfg;
  cfg.num_servers = 4;
  cfg.memory_per_server = std::size_t{4} << 20;
  cfg.replication = 2;
  cfg.loss_policy = LossPolicy::Repair;
  cfg.observer = log.observer();
  StagingService service(cfg);
  const Box box = Box::domain({8, 8, 8});
  ASSERT_TRUE(service.put_async(0, box, Fab(box, 1, 1.0)).get().accepted);
  (void)service.fail_server(staging::server_for_box(box, 4));  // the primary
  (void)service.get_async(0, box).get();  // quorum read repairs on the way
  service.drain();

  EXPECT_GE(log.count(ServiceEvent::Kind::Put), 1u);
  EXPECT_GE(log.count(ServiceEvent::Kind::ServerLost), 1u);
  EXPECT_GE(log.count(ServiceEvent::Kind::Get), 1u);
}

}  // namespace
}  // namespace xl::staging
