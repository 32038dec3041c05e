// Tests for the transfer retry ladder and the DataSpaces-like staging space
// (spatial index, versioned objects, memory accounting).
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "runtime/fault.hpp"
#include "staging/space.hpp"
#include "transport/retry_ladder.hpp"

namespace xl {
namespace {

using mesh::Box;
using mesh::Fab;
using runtime::FaultConfig;
using runtime::FaultKind;
using runtime::FaultPlan;
using staging::StagingSpace;
using transport::LostAttempt;

// --- transfer retry ladder ----------------------------------------------------

TEST(RetryLadder, DetectionWaitsTheWireTimeWithoutATimeout) {
  const FaultConfig faults;
  ASSERT_EQ(faults.transfer_timeout_seconds, 0.0);
  EXPECT_DOUBLE_EQ(transport::detection_seconds(faults, 0.5), 0.5);
}

TEST(RetryLadder, DetectionTakesTheTimeoutCappedAtTheWireTime) {
  FaultConfig faults;
  faults.transfer_timeout_seconds = 0.2;
  EXPECT_DOUBLE_EQ(transport::detection_seconds(faults, 0.5), 0.2);
  // A loss can never be noticed later than the data would have arrived.
  EXPECT_DOUBLE_EQ(transport::detection_seconds(faults, 0.1), 0.1);
}

TEST(RetryLadder, BackoffIsBaseTimesMultiplierToTheAttempt) {
  FaultConfig faults;
  faults.transfer_drop_rate = 1.0;
  faults.max_transfer_retries = 4;
  faults.retry_backoff_seconds = 0.1;
  faults.backoff_multiplier = 2.0;
  const FaultPlan plan(faults);
  const double expected[] = {0.1, 0.2, 0.4, 0.8};
  for (int r = 0; r < 4; ++r) {
    const std::optional<LostAttempt> lost = transport::lost_attempt(plan, 7, r, 1.0);
    ASSERT_TRUE(lost.has_value()) << r;
    EXPECT_DOUBLE_EQ(lost->backoff_seconds, expected[r]) << r;
    EXPECT_DOUBLE_EQ(lost->detect_seconds, 1.0) << r;
  }
}

TEST(RetryLadder, AttemptAtTheRetryBudgetIsFatal) {
  FaultConfig faults;
  faults.transfer_drop_rate = 1.0;
  faults.max_transfer_retries = 2;
  const FaultPlan plan(faults);
  for (int attempt = 0; attempt < 2; ++attempt) {
    const std::optional<LostAttempt> lost = transport::lost_attempt(plan, 0, attempt, 1.0);
    ASSERT_TRUE(lost.has_value());
    EXPECT_FALSE(lost->fatal) << attempt;
    EXPECT_EQ(lost->fault, FaultKind::TransferDrop);
  }
  const std::optional<LostAttempt> last = transport::lost_attempt(plan, 0, 2, 1.0);
  ASSERT_TRUE(last.has_value());
  EXPECT_TRUE(last->fatal);
  EXPECT_DOUBLE_EQ(last->backoff_seconds, 0.0);
  // A zero budget makes the first lost attempt fatal.
  faults.max_transfer_retries = 0;
  EXPECT_TRUE(transport::lost_attempt(FaultPlan(faults), 0, 0, 1.0)->fatal);
}

TEST(RetryLadder, NoAttemptIsLostWhenEveryRateIsZero) {
  // Crashes enable the plan, but with zero drop/corrupt rates every attempt
  // gets through.
  const FaultPlan plan(runtime::parse_fault_spec("crash=1:2:3;retries=0"));
  ASSERT_TRUE(plan.enabled());
  for (std::uint64_t t = 0; t < 64; ++t) {
    for (int a = 0; a < 4; ++a) {
      EXPECT_FALSE(transport::lost_attempt(plan, t, a, 1.0).has_value()) << t << ":" << a;
    }
  }
}

TEST(RetryLadder, LostAttemptsFollowTheFaultOracle) {
  FaultConfig faults;
  faults.transfer_drop_rate = 0.3;
  faults.transfer_corrupt_rate = 0.2;
  faults.max_transfer_retries = 8;
  const FaultPlan plan(faults);
  int lost_count = 0;
  for (std::uint64_t t = 0; t < 64; ++t) {
    for (int a = 0; a < 4; ++a) {
      const std::optional<FaultKind> fate = plan.transfer_attempt_fault(t, a);
      const std::optional<LostAttempt> lost = transport::lost_attempt(plan, t, a, 1.0);
      ASSERT_EQ(lost.has_value(), fate.has_value()) << t << ":" << a;
      if (lost) {
        EXPECT_EQ(lost->fault, *fate);
        ++lost_count;
      }
    }
  }
  EXPECT_GT(lost_count, 0);
  EXPECT_LT(lost_count, 64 * 4);
}

// --- staging space ------------------------------------------------------------

TEST(ServerForBox, DeterministicAndInRange) {
  const Box b = Box::cube({10, 20, 30}, 8);
  const int s = staging::server_for_box(b, 16);
  EXPECT_EQ(s, staging::server_for_box(b, 16));
  EXPECT_GE(s, 0);
  EXPECT_LT(s, 16);
  EXPECT_EQ(staging::server_for_box(b, 1), 0);
}

TEST(ServerForBox, SpreadsAcrossServers) {
  // Many distinct boxes should hit many servers.
  std::vector<int> hits(8, 0);
  for (int i = 0; i < 64; ++i) {
    ++hits[static_cast<std::size_t>(
        staging::server_for_box(Box::cube({i * 8, (i % 5) * 16, (i % 3) * 32}, 4), 8))];
  }
  int used = 0;
  for (int h : hits) used += h > 0;
  EXPECT_GE(used, 5);
}

TEST(StagingSpace, PutQueryEraseLifecycle) {
  StagingSpace space(4, std::size_t{1} << 20);
  const Box box = Box::cube({0, 0, 0}, 8);
  const auto id = space.put(7, box, 1, 4096);
  EXPECT_EQ(space.object_count(), 1u);
  EXPECT_EQ(space.used_bytes(), 4096u);

  const auto hits = space.query(7, box.grow(2));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0]->id, id);
  EXPECT_EQ(hits[0]->version, 7);
  EXPECT_TRUE(space.query(8, box).empty());              // wrong version
  EXPECT_TRUE(space.query(7, Box::cube({100, 0, 0}, 2)).empty());  // disjoint

  space.erase(id);
  EXPECT_EQ(space.used_bytes(), 0u);
  EXPECT_THROW(space.erase(id), ContractError);
}

TEST(StagingSpace, PayloadRoundTrip) {
  StagingSpace space(2, std::size_t{1} << 20);
  const Box box = Box::cube({4, 4, 4}, 4);
  Fab payload(box, 2, 1.5);
  const std::size_t bytes = payload.bytes();
  space.put(0, box, 2, bytes, std::make_shared<const Fab>(std::move(payload)));
  const auto hits = space.query(0, box);
  ASSERT_EQ(hits.size(), 1u);
  ASSERT_TRUE(hits[0]->payload != nullptr);
  EXPECT_DOUBLE_EQ((*hits[0]->payload)(mesh::IntVect{5, 5, 5}, 1), 1.5);
}

TEST(StagingSpace, MemoryAccountingPerServer) {
  StagingSpace space(2, 1000);
  const Box box = Box::cube({0, 0, 0}, 4);
  const int server = staging::server_for_box(box, 2);
  EXPECT_TRUE(space.can_accept(box, 800));
  space.put(0, box, 1, 800);
  EXPECT_EQ(space.server_used_bytes(server), 800u);
  EXPECT_FALSE(space.can_accept(box, 300));  // same server full
  EXPECT_THROW(space.put(1, box, 1, 300), ContractError);
  EXPECT_EQ(space.free_bytes(), 2000u - 800u);
}

TEST(StagingSpace, EraseVersionFreesEverything) {
  StagingSpace space(4, std::size_t{1} << 20);
  for (int i = 0; i < 6; ++i) {
    space.put(i % 2, Box::cube({i * 8, 0, 0}, 4), 1, 100);
  }
  const std::size_t freed = space.erase_version(0);
  EXPECT_EQ(freed, 300u);
  EXPECT_EQ(space.object_count(), 3u);
  EXPECT_EQ(space.used_bytes(), 300u);
}

TEST(StagingSpace, ValidatesConstruction) {
  EXPECT_THROW(StagingSpace(0, 1024), ContractError);
  EXPECT_THROW(StagingSpace(4, 0), ContractError);
}

}  // namespace
}  // namespace xl
