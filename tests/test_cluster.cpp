// Tests for the cluster substrate: the deterministic event queue, machine
// specs, and the kernel/transfer cost models.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "cluster/cost_model.hpp"
#include "cluster/event_queue.hpp"
#include "cluster/machine.hpp"

namespace xl::cluster {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(3.0, [&] { order.push_back(3); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(2.0, [&] { order.push_back(2); });
  q.run_until_empty();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, TiesBreakBySchedulingOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  q.run_until_empty();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1.0, [&] {
    ++fired;
    q.schedule_in(0.5, [&] { ++fired; });
  });
  q.run_until_empty();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(q.now(), 1.5);
}

TEST(EventQueue, RunUntilAdvancesClockWithoutOvershooting) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1.0, [&] { ++fired; });
  q.schedule_at(5.0, [&] { ++fired; });
  q.run_until(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, RejectsSchedulingInThePast) {
  EventQueue q;
  q.schedule_at(2.0, [] {});
  q.run_until_empty();
  EXPECT_THROW(q.schedule_at(1.0, [] {}), ContractError);
  EXPECT_THROW(q.schedule_in(-1.0, [] {}), ContractError);
}

TEST(Machine, PaperSpecs) {
  const MachineSpec bgp = intrepid();
  EXPECT_EQ(bgp.cores_per_node, 4);
  EXPECT_EQ(bgp.mem_per_core_bytes(), std::size_t{512} << 20);  // 500MB-class
  const MachineSpec xk7 = titan();
  EXPECT_EQ(xk7.cores_per_node, 16);
  EXPECT_EQ(xk7.mem_per_core_bytes(), std::size_t{2} << 30);
  EXPECT_GT(xk7.core_flops, bgp.core_flops);
  EXPECT_GT(xk7.network.link_bandwidth_Bps, bgp.network.link_bandwidth_Bps);
}

TEST(CostModel, KernelTimeScalesWithCellsAndCores) {
  const CostModel cost(test_machine());
  const double t1 = cost.kernel_seconds(100.0, 1'000'000, 1);
  const double t2 = cost.kernel_seconds(100.0, 2'000'000, 1);
  EXPECT_NEAR(t2, 2.0 * t1, 1e-12);
  const double t_p = cost.kernel_seconds(100.0, 1'000'000, 16);
  EXPECT_LT(t_p, t1 / 8.0);   // parallel speedup...
  EXPECT_GT(t_p, t1 / 16.0);  // ...but sublinear (efficiency < 1)
}

TEST(CostModel, SimStepEulerCostlierThanAdvection) {
  const CostModel cost(test_machine());
  EXPECT_GT(cost.sim_step_seconds(1 << 20, 8, true),
            cost.sim_step_seconds(1 << 20, 8, false));
}

TEST(CostModel, MarchingCubesChargesScanPlusActive) {
  const CostModel cost(test_machine());
  const double scan_only = cost.marching_cubes_seconds(1 << 20, 0, 4);
  const double with_active = cost.marching_cubes_seconds(1 << 20, 1 << 14, 4);
  EXPECT_GT(with_active, scan_only);
}

TEST(CostModel, TransferBoundedBySlowerSide) {
  const CostModel cost(test_machine());
  const std::size_t GB = std::size_t{1} << 30;
  const double wide = cost.transfer_seconds(GB, 64, 64);
  const double narrow_rx = cost.transfer_seconds(GB, 64, 4);
  EXPECT_NEAR(narrow_rx, 16.0 * wide, 0.01 * narrow_rx);
  EXPECT_GT(cost.transfer_seconds(1, 1, 1), 0.0);  // latency floor
  EXPECT_THROW(cost.transfer_seconds(GB, 0, 4), ContractError);
}

TEST(CostModel, FasterMachineRunsFaster) {
  const CostModel slow(intrepid());
  const CostModel fast(titan());
  EXPECT_GT(slow.sim_step_seconds(1 << 22, 64, true),
            fast.sim_step_seconds(1 << 22, 64, true));
}

// --- event-queue stress and contract tests ----------------------------------

/// splitmix64 finalizer — the sanctioned deterministic stand-in for
/// randomness in tests.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

TEST(EventQueue, LadderStressMatchesStableSortReference) {
  // Many hash-spread timestamps including deliberate collisions. The firing
  // order must equal a stable sort by time — stable sort on scheduling order
  // IS the (time, seq) tie-break contract.
  constexpr std::size_t kN = 20000;
  EventQueue q;
  std::vector<double> times(kN);
  std::vector<std::size_t> fired;
  fired.reserve(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    // Coarse quantization forces plenty of equal timestamps.
    times[i] = 1.0 + static_cast<double>(mix64(i) % 4096) / 256.0;
    q.schedule_at(times[i], [&fired, i] { fired.push_back(i); });
  }
  std::vector<std::size_t> want(kN);
  for (std::size_t i = 0; i < kN; ++i) want[i] = i;
  std::stable_sort(want.begin(), want.end(),
                   [&](std::size_t a, std::size_t b) { return times[a] < times[b]; });
  q.run_until_empty();
  ASSERT_EQ(fired.size(), kN);
  EXPECT_EQ(fired, want);
  EXPECT_EQ(q.stats().scheduled, kN);
  EXPECT_EQ(q.stats().fired, kN);
}

TEST(EventQueue, AllEqualTimestampsFireInSchedulingOrderAtLadderScale) {
  // A degenerate batch (every event at one timestamp) is ordered by
  // sequence number alone.
  constexpr std::size_t kN = 5000;
  EventQueue q;
  std::vector<std::size_t> fired;
  fired.reserve(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    q.schedule_at(7.0, [&fired, i] { fired.push_back(i); });
  }
  q.run_until_empty();
  ASSERT_EQ(fired.size(), kN);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(fired[i], i) << "seq tie-break broken at position " << i;
  }
}

TEST(EventQueue, MidDrainSameTimestampSchedulingFiresAfterPendingTies) {
  // An event scheduling another event at its own timestamp: the new event's
  // seq is larger than every already-pending tie, so it fires after them —
  // even though it arrives while the tie group is mid-drain.
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(1.0, [&] {
    order.push_back(0);
    q.schedule_at(1.0, [&] { order.push_back(9); });  // same-timestamp insert
  });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(1.0, [&] { order.push_back(2); });
  q.schedule_at(2.0, [&] { order.push_back(3); });
  q.run_until_empty();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 9, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
}

TEST(EventQueue, RunUntilOnEmptyQueueStillAdvancesClock) {
  // The clock observes the passage of simulated time even with nothing to
  // fire — and never moves backwards.
  EventQueue q;
  q.run_until(5.0);
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
  q.run_until(3.0);  // earlier horizon: a no-op, not a rewind
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
  EXPECT_TRUE(q.empty());
  // After idle advancement, scheduling relative to the new clock works.
  int fired = 0;
  q.schedule_in(1.0, [&] { ++fired; });
  q.run_until_empty();
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(q.now(), 6.0);
}

TEST(EventQueue, SchedulingAtExactlyNowIsAllowed) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1.0, [&] {
    ++fired;
    q.schedule_at(q.now(), [&] { ++fired; });  // t == now(): legal boundary
  });
  q.run_until_empty();
  EXPECT_EQ(fired, 2);
  EXPECT_THROW(q.schedule_at(0.5, [] {}), ContractError);
}

TEST(EventQueue, SelfSchedulingSteadyStateReusesArenas) {
  // A self-scheduling chain drains and refills the queue repeatedly; each
  // link fires a quarter second after the one before.
  EventQueue q;
  std::uint64_t count = 0;
  struct Chain {
    EventQueue* q;
    std::uint64_t* count;
    std::uint64_t left;
    void operator()() const {
      ++*count;
      if (left > 0) q->schedule_in(0.25, Chain{q, count, left - 1});
    }
  };
  q.schedule_at(0.0, Chain{&q, &count, 999});
  q.run_until_empty();
  EXPECT_EQ(count, 1000u);
  EXPECT_DOUBLE_EQ(q.now(), 0.25 * 999);
}

TEST(EventQueue, OversizedClosuresStillFire) {
  // A capture far beyond std::function's inline buffer fires with its values.
  EventQueue q;
  double sum = 0.0;
  double big[32] = {};  // 256 bytes captured by value
  big[0] = 1.5;
  big[31] = 2.5;
  q.schedule_at(1.0, [&sum, big] { sum = big[0] + big[31]; });
  q.run_until_empty();
  EXPECT_DOUBLE_EQ(sum, 4.0);
}

// --- the hold model: firing-order evidence ----------------------------------
// A closed self-scheduling workload: one in-flight event per virtual rank,
// each firing and scheduling the rank's next event a hash-spread step later.
// An FNV fold over the rank firing order pins the engine's (time, seq) order.

/// Per-event timestep in [0.5, 1.5) simulated units, hash-spread so the
/// pending set rarely ties.
double hashed_dt(std::uint64_t rank, std::uint64_t round) {
  const std::uint64_t h = mix64(rank * 0x9e3779b97f4a7c15ull + round);
  return 0.5 + static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
}

struct RankRecord {
  double busy_until = 0.0;
  std::uint64_t events = 0;
  std::uint64_t bytes_sent = 0;
};

struct HoldState {
  std::vector<RankRecord> ranks;
  std::uint64_t fired = 0;
  std::uint64_t checksum = 0;  ///< FNV over the rank firing order.
};

/// One rank's event: folds the rank into the checksum, then schedules the
/// rank's next event until its chain ends. `payload_a` pads the closure to
/// nine words, past std::function's inline buffer.
struct RankEvent {
  EventQueue* queue;
  HoldState* state;
  std::uint64_t rank;
  std::uint64_t round;
  std::uint64_t rounds_left;
  std::uint64_t bytes;
  std::uint64_t events_acc;
  std::uint64_t bytes_acc;
  std::uint64_t payload_a;

  void operator()() const {
    ++state->fired;
    state->checksum = (state->checksum ^ rank) * 1099511628211ull;
    if (rounds_left == 0) {
      RankRecord& rec = state->ranks[rank];
      rec.busy_until = queue->now();
      rec.events += events_acc + 1;
      rec.bytes_sent += bytes_acc + bytes;
      return;
    }
    RankEvent next = *this;
    next.round = round + 1;
    next.rounds_left = rounds_left - 1;
    next.events_acc = events_acc + 1;
    next.bytes_acc = bytes_acc + bytes;
    next.bytes = mix64(bytes) & 0xffff;
    queue->schedule_at(queue->now() + hashed_dt(rank, round + 1), next);
  }
};

/// Runs `nranks` ranks of `rounds` events each; returns {events fired,
/// checksum ^ Σ events ^ Σ bytes}.
std::pair<std::uint64_t, std::uint64_t> run_hold_model(std::size_t nranks,
                                                       std::uint64_t rounds) {
  EventQueue queue;
  HoldState state;
  state.ranks.resize(nranks);
  for (std::size_t rank = 0; rank < nranks; ++rank) {
    queue.schedule_at(hashed_dt(rank, 0),
                      RankEvent{&queue, &state, rank, 0, rounds - 1, mix64(rank) & 0xffff,
                                0, 0, rank * 2654435761ull});
  }
  queue.run_until_empty();
  std::uint64_t events = 0;
  std::uint64_t bytes = 0;
  for (const RankRecord& r : state.ranks) {
    events += r.events;
    bytes += r.bytes_sent;
  }
  return {state.fired, state.checksum ^ events ^ bytes};
}

TEST(EventQueue, HoldModelFiringOrderMatchesTheLadder) {
  // Checksums recorded from the ladder queue this engine replaced; any
  // engine firing in (time, seq) order reproduces them.
  using Result = std::pair<std::uint64_t, std::uint64_t>;
  EXPECT_EQ(run_hold_model(2048, 64), (Result{131072, 0xa8ef82f299739902ull}));
  EXPECT_EQ(run_hold_model(16384, 16), (Result{262144, 0x4f02489b4b9db307ull}));
}

}  // namespace
}  // namespace xl::cluster
