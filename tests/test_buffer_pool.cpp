// BufferPool unit tests plus the determinism proof the pool's contract
// promises: (a) size-bucketed recycling actually reuses allocations and the
// stats ledger balances; (b) acquire/release is safe under concurrent use
// (run under TSan in CI with XL_THREADS=4); (c) pool on/off and pool-size
// sweeps leave every Mode's golden event log byte-identical — pooling changes
// WHERE memory comes from, never values.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/buffer_pool.hpp"
#include "common/thread_pool.hpp"
#include "mesh/box.hpp"
#include "mesh/fab.hpp"
#include "workflow/coupled_workflow.hpp"
#include "workflow/observer.hpp"
#include "workflow/trace_io.hpp"

using namespace xl;
using namespace xl::workflow;

namespace {

TEST(BufferPool, MissThenBucketReuse) {
  BufferPool pool;
  std::vector<double> a = pool.acquire<double>(100);
  EXPECT_EQ(a.size(), 100u);
  EXPECT_GE(a.capacity(), 128u);  // reserved to the next-pow2 bucket
  const double* raw = a.data();
  pool.release(std::move(a));

  // A smaller request is served from the same 128-element bucket: same
  // allocation comes back, no reallocation.
  std::vector<double> b = pool.acquire<double>(90);
  EXPECT_EQ(b.size(), 90u);
  EXPECT_EQ(b.data(), raw);

  const PoolStats s = pool.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.releases, 1u);
  EXPECT_EQ(s.trims, 0u);
  pool.release(std::move(b));
}

TEST(BufferPool, TinyAcquiresShareTheMinimumBucket) {
  BufferPool pool;
  std::vector<std::uint32_t> a = pool.acquire<std::uint32_t>(3);
  EXPECT_GE(a.capacity(), BufferPool::kMinBucketElements);
  pool.release(std::move(a));
  // 3 and 60 both round up to the 64-element bucket, so the second acquire
  // is a hit instead of fragmenting the shelf.
  std::vector<std::uint32_t> b = pool.acquire<std::uint32_t>(60);
  EXPECT_EQ(pool.stats().hits, 1u);
  pool.release(std::move(b));
}

TEST(BufferPool, ZeroSizeAcquireAndEmptyReleaseAreNoOps) {
  BufferPool pool;
  std::vector<double> empty = pool.acquire<double>(0);
  EXPECT_TRUE(empty.empty());
  pool.release(std::move(empty));
  const PoolStats s = pool.stats();
  EXPECT_EQ(s.hits + s.misses + s.releases + s.trims, 0u);
  EXPECT_EQ(s.outstanding_bytes, 0u);
}

TEST(BufferPool, GaugesBalanceAcrossAcquireRelease) {
  BufferPool pool;
  std::vector<double> a = pool.acquire<double>(256);
  PoolStats s = pool.stats();
  EXPECT_EQ(s.outstanding_bytes, 256 * sizeof(double));
  EXPECT_EQ(s.pooled_bytes, 0u);

  pool.release(std::move(a));
  s = pool.stats();
  EXPECT_EQ(s.outstanding_bytes, 0u);
  EXPECT_EQ(s.pooled_bytes, 256 * sizeof(double));
  EXPECT_EQ(s.high_water_outstanding_bytes, 256 * sizeof(double));
  EXPECT_EQ(s.high_water_pooled_bytes, 256 * sizeof(double));

  pool.clear();
  s = pool.stats();
  EXPECT_EQ(s.pooled_bytes, 0u);
  // clear() drops buffers; the high-water marks and counters keep history.
  EXPECT_EQ(s.high_water_pooled_bytes, 256 * sizeof(double));
  EXPECT_EQ(s.releases, 1u);
}

TEST(BufferPool, DisabledPoolTrimsEveryRelease) {
  BufferPool pool;
  pool.set_enabled(false);
  EXPECT_FALSE(pool.enabled());
  std::vector<double> a = pool.acquire<double>(64);
  pool.release(std::move(a));
  const PoolStats s = pool.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.trims, 1u);
  EXPECT_EQ(s.releases, 0u);
  EXPECT_EQ(s.pooled_bytes, 0u);
}

TEST(BufferPool, CapacityCapTrimsOverflow) {
  BufferPool pool(/*capacity_bytes=*/64 * sizeof(double));
  std::vector<double> a = pool.acquire<double>(64);
  std::vector<double> b = pool.acquire<double>(64);
  pool.release(std::move(a));  // fills the cap exactly
  pool.release(std::move(b));  // over the cap -> dropped to the heap
  const PoolStats s = pool.stats();
  EXPECT_EQ(s.releases, 1u);
  EXPECT_EQ(s.trims, 1u);
  EXPECT_EQ(s.pooled_bytes, 64 * sizeof(double));
}

TEST(BufferPool, CopiedBytesTapAccumulates) {
  BufferPool pool;
  pool.add_copied_bytes(100);
  pool.add_copied_bytes(28);
  EXPECT_EQ(pool.stats().copied_bytes, 128u);
}

TEST(BufferPool, ScratchRaiiAcquiresAndReleases) {
  BufferPool pool;
  {
    Scratch<std::size_t> scratch(pool, 32);
    ASSERT_EQ(scratch.size(), 32u);
    scratch[0] = 7;
    EXPECT_EQ(scratch.vec().size(), 32u);
    // The gauge tracks capacity: 32 rounds up to the 64-element minimum bucket.
    EXPECT_EQ(pool.stats().outstanding_bytes,
              BufferPool::kMinBucketElements * sizeof(std::size_t));
  }
  const PoolStats s = pool.stats();
  EXPECT_EQ(s.outstanding_bytes, 0u);
  EXPECT_EQ(s.releases, 1u);
}

// Hammer one shared pool from the global ThreadPool's workers (XL_THREADS=4
// in the TSan CI job; degrades to a serial loop when unset). The ledger must
// balance exactly afterwards: every acquire is a hit or a miss, nothing stays
// outstanding, and TSan sees no races on the shelves.
TEST(BufferPool, CrossThreadAcquireReleaseLedgerBalances) {
  BufferPool pool;
  constexpr std::size_t kTasks = 64;
  constexpr int kRounds = 16;
  ThreadPool::TaskGroup group(ThreadPool::global());
  for (std::size_t t = 0; t < kTasks; ++t) {
    group.run([&pool, t] {
      for (int r = 0; r < kRounds; ++r) {
        const std::size_t n = 64 + 16 * ((t + static_cast<std::size_t>(r)) % 8);
        std::vector<double> buf = pool.acquire<double>(n);
        buf[0] = static_cast<double>(t);
        buf[n - 1] = static_cast<double>(r);
        pool.release(std::move(buf));
      }
    });
  }
  group.wait();
  const PoolStats s = pool.stats();
  EXPECT_EQ(s.hits + s.misses, kTasks * kRounds);
  EXPECT_EQ(s.releases + s.trims, kTasks * kRounds);
  EXPECT_EQ(s.outstanding_bytes, 0u);
}

// Fab round-trips (fill, copy, pack/unpack) must produce identical values
// whether their storage is recycled or fresh. Prime the global pool with a
// dirty buffer of the right size to prove recycled contents never leak.
TEST(BufferPool, FabValuesUnaffectedByRecycledStorage) {
  BufferPool& pool = BufferPool::global();
  const mesh::Box box = mesh::Box::domain({8, 8, 8});

  const bool was_enabled = pool.enabled();
  pool.set_enabled(true);
  {
    std::vector<double> dirty =
        pool.acquire<double>(static_cast<std::size_t>(box.num_cells()));
    std::fill(dirty.begin(), dirty.end(), -999.0);
    pool.release(std::move(dirty));
  }
  mesh::Fab fab(box, 1, 0.5);  // storage likely recycled from `dirty`
  for (mesh::BoxIterator it(box); it.ok(); ++it) {
    ASSERT_EQ(fab(*it), 0.5);
  }

  std::vector<double> packed;
  fab.pack_into(box, packed);
  mesh::Fab back(box, 1, 0.0);
  back.unpack(box, packed);
  for (mesh::BoxIterator it(box); it.ok(); ++it) {
    ASSERT_EQ(back(*it), 0.5);
  }
  pool.release(std::move(packed));
  pool.set_enabled(was_enabled);
}

// ---------------------------------------------------------------------------
// Golden-trace bit-identity: pool on, pool off, and pool-size sweeps must
// leave the full event CSV of every Mode byte-identical. The pipeline reports
// pool counters as deltas since RunBegin, and modeled runs allocate no
// payload, so the CSV — timings, bytes, adaptations, pool columns — is
// invariant under any pool state.
// ---------------------------------------------------------------------------

// Same configuration as test_pipeline.cpp's golden_config.
WorkflowConfig golden_config(Mode mode) {
  WorkflowConfig c;
  c.machine = cluster::titan();
  c.sim_cores = 128;
  c.staging_cores = 8;
  c.steps = 15;
  c.mode = mode;
  c.geometry.base_domain = mesh::Box::domain({128, 64, 64});
  c.geometry.tile_size = 8;
  c.geometry.front_speed = 0.01;
  c.memory_model.ncomp = 1;
  c.hints.factor_phases = {{0, {2, 4}}};
  return c;
}

std::string events_csv(Mode mode) {
  CoupledWorkflow wf(golden_config(mode));
  EventLog log;
  wf.set_observer(&log);
  (void)wf.run();
  std::ostringstream os;
  write_events_csv(os, log);
  return os.str();
}

class PoolSweepGolden : public ::testing::TestWithParam<Mode> {};

TEST_P(PoolSweepGolden, EventLogInvariantUnderPoolState) {
  BufferPool& pool = BufferPool::global();
  const bool was_enabled = pool.enabled();

  pool.set_enabled(true);
  pool.set_capacity_bytes(BufferPool::kDefaultCapacityBytes);
  const std::string baseline = events_csv(GetParam());
  EXPECT_FALSE(baseline.empty());

  pool.set_enabled(false);
  pool.clear();
  EXPECT_EQ(events_csv(GetParam()), baseline) << "pool off changed the trace";

  pool.set_enabled(true);
  pool.set_capacity_bytes(std::size_t{1} << 16);  // 64 KiB: trims constantly
  EXPECT_EQ(events_csv(GetParam()), baseline) << "tiny pool changed the trace";

  pool.set_capacity_bytes(std::size_t{1} << 30);  // 1 GiB: trims never
  EXPECT_EQ(events_csv(GetParam()), baseline) << "huge pool changed the trace";

  pool.set_capacity_bytes(BufferPool::kDefaultCapacityBytes);
  pool.set_enabled(was_enabled);
}

INSTANTIATE_TEST_SUITE_P(AllModes, PoolSweepGolden,
                         ::testing::Values(Mode::StaticInSitu,
                                           Mode::StaticInTransit,
                                           Mode::StaticHybrid,
                                           Mode::AdaptiveMiddleware,
                                           Mode::AdaptiveResource,
                                           Mode::Global));

}  // namespace
