// Unit tests for src/common: statistics, histograms, EWMA, RNG determinism,
// table formatting, thread pool, and the contract-check macros.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <thread>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"

namespace xl {
namespace {

TEST(Error, RequireThrowsContractError) {
  EXPECT_THROW(XL_REQUIRE(false, "boom"), ContractError);
  EXPECT_NO_THROW(XL_REQUIRE(true, "fine"));
}

TEST(Error, CheckThrowsInternalError) {
  EXPECT_THROW(XL_CHECK(false, "bug"), InternalError);
}

TEST(Error, MessagesCarryContext) {
  try {
    XL_REQUIRE(1 == 2, "one is not two");
    FAIL() << "should have thrown";
  } catch (const ContractError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("one is not two"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
  }
}

TEST(RunningStats, MeanMinMaxSum) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(SampleSet, ExactQuantiles) {
  SampleSet s;
  for (int i = 100; i >= 1; --i) s.add(i);  // 1..100 reversed
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_DOUBLE_EQ(s.median(), 50.5);
  EXPECT_NEAR(s.quantile(0.25), 25.75, 1e-12);
}

TEST(SampleSet, QuantileContractChecks) {
  SampleSet s;
  EXPECT_THROW(s.quantile(0.5), ContractError);
  s.add(1.0);
  EXPECT_THROW(s.quantile(1.5), ContractError);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
}

TEST(Histogram, BinningAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(-5.0);   // clamps to bin 0
  h.add(0.5);
  h.add(9.99);
  h.add(42.0);   // clamps to last bin
  EXPECT_EQ(h.total(), 4u);
  // Bars scale to the fullest bin: two samples in each edge bin.
  const std::string bars = h.to_string(4);
  EXPECT_EQ(bars.substr(0, bars.find('\n')), "[0, 1) #### 2");
  EXPECT_NE(bars.find("[5, 6)  0\n"), std::string::npos);
  EXPECT_EQ(bars.substr(bars.rfind('[')), "[9, 10) #### 2\n");
  EXPECT_DOUBLE_EQ(h.bin_lo(3), 3.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(3), 4.0);
  EXPECT_THROW(h.bin_lo(10), ContractError);
}

TEST(Histogram, RejectsDegenerateRange) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), ContractError);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), ContractError);
}

TEST(Ewma, ConvergesToConstant) {
  Ewma e(0.5);
  EXPECT_TRUE(e.empty());
  for (int i = 0; i < 50; ++i) e.add(3.0);
  EXPECT_NEAR(e.value(), 3.0, 1e-12);
}

TEST(Ewma, FirstValueSeedsDirectly) {
  Ewma e(0.1);
  e.add(10.0);
  EXPECT_DOUBLE_EQ(e.value(), 10.0);
  e.add(0.0);
  EXPECT_DOUBLE_EQ(e.value(), 9.0);  // 0.1*0 + 0.9*10
}

TEST(Ewma, RejectsBadAlpha) {
  EXPECT_THROW(Ewma(0.0), ContractError);
  EXPECT_THROW(Ewma(1.5), ContractError);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
    const auto k = rng.uniform_int(-3, 3);
    EXPECT_GE(k, -3);
    EXPECT_LE(k, 3);
  }
}

TEST(Rng, NormalMomentsRoughlyCorrect) {
  Rng rng(5);
  constexpr int kSamples = 20000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const double x = rng.normal(1.0, 2.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / kSamples;
  EXPECT_NEAR(mean, 1.0, 0.06);
  EXPECT_NEAR(std::sqrt(sum_sq / kSamples - mean * mean), 2.0, 0.06);
}

TEST(Rng, SplitStreamsAreIndependentAndDeterministic) {
  Rng parent1(42), parent2(42);
  Rng child1 = parent1.split(7);
  Rng child2 = parent2.split(7);
  EXPECT_EQ(child1.next_u64(), child2.next_u64());
  Rng other = parent1.split(8);
  EXPECT_NE(child1.next_u64(), other.next_u64());
}

TEST(Table, FormatsAlignedColumns) {
  Table t({"name", "value"});
  t.row().cell("alpha").cell(1.5, 1);
  t.row().cell("b").cell(std::size_t{42});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("| alpha | 1.5   |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 42    |"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsTooManyCells) {
  Table t({"only"});
  t.row().cell("x");
  EXPECT_THROW(t.cell("y"), ContractError);
  Table u({"a"});
  EXPECT_THROW(u.cell("no-row-yet"), ContractError);
}

TEST(Formatters, Bytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(1536), "1.50 KiB");
  EXPECT_EQ(format_bytes(3.0 * 1024 * 1024 * 1024), "3.00 GiB");
}

TEST(Formatters, Seconds) {
  EXPECT_EQ(format_seconds(1.25), "1.25 s");
  EXPECT_EQ(format_seconds(0.000834), "834.0 us");
  EXPECT_EQ(format_seconds(12 * 60 + 34), "12m34s");
}

TEST(Formatters, Percent) {
  EXPECT_EQ(format_percent(0.8711), "87.11%");
  EXPECT_EQ(format_percent(0.5, 0), "50%");
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, 0, 1000, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  ThreadPool::TaskGroup group(pool);
  int calls = 0;
  group.run([&] { ++calls; });
  EXPECT_EQ(calls, 1);  // ran on the caller before run() returned
  group.wait();
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(2);
  ThreadPool::TaskGroup group(pool);
  group.run([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(group.wait(), std::runtime_error);
  // The group and the pool remain usable afterwards.
  std::atomic<int> ok{0};
  group.run([&] { ok = 1; });
  group.wait();
  EXPECT_EQ(ok.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  parallel_for(pool, 5, 5, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ExceptionPropagatesThroughParallelFor) {
  ThreadPool pool(2);
  EXPECT_THROW(parallel_for(pool, 0, 100,
                            [&](std::size_t lo, std::size_t) {
                              if (lo == 0) throw std::runtime_error("chunk failed");
                            }),
               std::runtime_error);
  // The pool survives the failed loop.
  std::atomic<int> count{0};
  parallel_for(pool, 0, 10, [&](std::size_t lo, std::size_t hi) {
    count += static_cast<int>(hi - lo);
  });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  std::atomic<bool> nested_was_inline{true};
  parallel_for(pool, 0, 8, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      // A nested loop on the same pool must degrade to inline execution
      // (one chunk, no cross-worker wait) instead of deadlocking in wait().
      if (parallel_chunk_count(pool, 100) != 1) nested_was_inline = false;
      parallel_for(pool, 0, 100, [&](std::size_t ilo, std::size_t ihi) {
        inner_total += static_cast<int>(ihi - ilo);
      });
    }
  });
  EXPECT_EQ(inner_total.load(), 8 * 100);
  EXPECT_TRUE(nested_was_inline.load());
}

TEST(ThreadPool, ConcurrentParallelForsWaitOnlyOnTheirOwnTasks) {
  // Two threads drive independent parallel_fors on the SAME pool; each wait()
  // is scoped to its own TaskGroup, so both complete with correct results.
  ThreadPool pool(3);
  std::atomic<int> total_a{0};
  std::atomic<int> total_b{0};
  std::thread other([&] {
    for (int rep = 0; rep < 50; ++rep) {
      parallel_for(pool, 0, 64, [&](std::size_t lo, std::size_t hi) {
        total_b += static_cast<int>(hi - lo);
      });
    }
  });
  for (int rep = 0; rep < 50; ++rep) {
    parallel_for(pool, 0, 64, [&](std::size_t lo, std::size_t hi) {
      total_a += static_cast<int>(hi - lo);
    });
  }
  other.join();
  EXPECT_EQ(total_a.load(), 50 * 64);
  EXPECT_EQ(total_b.load(), 50 * 64);
}

TEST(ThreadPool, ParallelForChunksCoversRangeInChunkOrder) {
  ThreadPool pool(3);
  const std::size_t n = 100;
  const std::size_t nchunks = parallel_chunk_count(pool, n);
  ASSERT_GT(nchunks, 1u);
  std::vector<std::pair<std::size_t, std::size_t>> ranges(nchunks);
  parallel_for_chunks(pool, 0, n,
                      [&](std::size_t c, std::size_t lo, std::size_t hi) {
    ranges[c] = {lo, hi};
  });
  // Chunks tile [0, n) in increasing chunk index order.
  std::size_t expect_lo = 0;
  for (const auto& [lo, hi] : ranges) {
    EXPECT_EQ(lo, expect_lo);
    EXPECT_LT(lo, hi);
    expect_lo = hi;
  }
  EXPECT_EQ(expect_lo, n);
}

TEST(ThreadPool, ParallelForChunksInvokesEveryAdvertisedChunk) {
  // Call sites pre-size per-chunk scratch with parallel_chunk_count and merge
  // over every slot, so every advertised chunk index must be invoked exactly
  // once — including awkward n where a ceil-sized partition would tile the
  // range in fewer chunks (4 workers, n=100: 16 advertised, 15 ceil-sized).
  for (const std::size_t workers : {2u, 3u, 4u, 7u}) {
    ThreadPool pool(workers);
    for (const std::size_t n : {2u, 15u, 16u, 17u, 100u, 101u, 1000u}) {
      const std::size_t nchunks = parallel_chunk_count(pool, n);
      std::vector<std::atomic<int>> invoked(nchunks);
      std::atomic<std::size_t> covered{0};
      parallel_for_chunks(pool, 0, n,
                          [&](std::size_t c, std::size_t lo, std::size_t hi) {
        ASSERT_LT(c, nchunks);
        ASSERT_LT(lo, hi);
        invoked[c].fetch_add(1);
        covered += hi - lo;
      });
      for (std::size_t c = 0; c < nchunks; ++c) {
        EXPECT_EQ(invoked[c].load(), 1)
            << "chunk " << c << " of " << nchunks << " (workers=" << workers
            << ", n=" << n << ")";
      }
      EXPECT_EQ(covered.load(), n);
    }
  }
}

TEST(ThreadPool, SetGlobalWorkersResizesTheSharedPool) {
  ThreadPool::set_global_workers(3);
  EXPECT_EQ(ThreadPool::global().worker_count(), 3u);
  std::atomic<int> count{0};
  parallel_for(ThreadPool::global(), 0, 100, [&](std::size_t lo, std::size_t hi) {
    count += static_cast<int>(hi - lo);
  });
  EXPECT_EQ(count.load(), 100);
  ThreadPool::set_global_workers(0);
  EXPECT_EQ(ThreadPool::global().worker_count(), 0u);
}

TEST(SampleSet, ConcurrentQuantileReadsAreSafe) {
  SampleSet s;
  for (int i = 0; i < 1000; ++i) s.add(static_cast<double>(i));
  // quantile() is const but sorts lazily; concurrent readers must agree.
  std::vector<std::thread> readers;
  std::atomic<int> bad{0};
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      for (int rep = 0; rep < 100; ++rep) {
        if (s.quantile(0.5) != 499.5) ++bad;
      }
    });
  }
  for (auto& r : readers) r.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST(Histogram, IgnoresNaNSamples) {
  Histogram h(0.0, 10.0, 10);
  h.add(std::nan(""));
  EXPECT_EQ(h.total(), 0u);
  h.add(5.0);
  EXPECT_EQ(h.total(), 1u);
  // Infinities clamp to the edge bins instead of invoking UB.
  h.add(std::numeric_limits<double>::infinity());
  h.add(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.total(), 3u);
  const std::string bars = h.to_string(4);
  EXPECT_EQ(bars.substr(0, bars.find('\n')), "[0, 1) #### 1");
  EXPECT_NE(bars.find("[5, 6) #### 1\n"), std::string::npos);
  EXPECT_EQ(bars.substr(bars.rfind('[')), "[9, 10) #### 1\n");
}

TEST(Log, ThresholdFiltering) {
  const auto old = log::threshold();
  log::set_threshold(log::Level::Error);
  EXPECT_EQ(log::threshold(), log::Level::Error);
  XL_LOG_INFO("this must not crash even when filtered");
  log::set_threshold(old);
}

TEST(Log, LevelNames) {
  EXPECT_STREQ(log::level_name(log::Level::Warn), "WARN");
  EXPECT_STREQ(log::level_name(log::Level::Trace), "TRACE");
}

}  // namespace
}  // namespace xl
