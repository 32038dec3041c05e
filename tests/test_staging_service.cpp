// Tests for the threaded staging service: asynchronous completion, memory
// admission, in-transit analysis correctness (matches direct extraction),
// concurrency safety, and backlog/accounting signals.
#include <gtest/gtest.h>

#include <cmath>

#include "staging/service.hpp"

namespace xl::staging {
namespace {

using mesh::Box;
using mesh::BoxIterator;
using mesh::Fab;

Fab sphere_fab(const Box& box, double radius, double cx, double cy, double cz) {
  Fab f(box, 1);
  for (BoxIterator it(box); it.ok(); ++it) {
    const double dx = (*it)[0] + 0.5 - cx;
    const double dy = (*it)[1] + 0.5 - cy;
    const double dz = (*it)[2] + 0.5 - cz;
    f(*it) = std::sqrt(dx * dx + dy * dy + dz * dz) - radius;
  }
  return f;
}

ServiceConfig small_service(int servers = 2) {
  ServiceConfig cfg;
  cfg.num_servers = servers;
  cfg.memory_per_server = std::size_t{4} << 20;
  return cfg;
}

TEST(StagingService, PutThenGetRoundTrip) {
  StagingService service(small_service());
  const Box box = Box::domain({8, 8, 8});
  Fab payload(box, 1, 3.25);
  auto ack = service.put_async(0, box, std::move(payload)).get();
  EXPECT_TRUE(ack.accepted);

  auto fabs = service.get_async(0, box).get();
  ASSERT_EQ(fabs.size(), 1u);
  EXPECT_DOUBLE_EQ((*fabs[0])(mesh::IntVect{4, 4, 4}), 3.25);
  EXPECT_GT(service.used_bytes(), 0u);
}

TEST(StagingService, VersionsAreIsolated) {
  StagingService service(small_service());
  const Box box = Box::domain({4, 4, 4});
  service.put_async(1, box, Fab(box, 1, 1.0)).get();
  service.put_async(2, box.shift({8, 0, 0}), Fab(box.shift({8, 0, 0}), 1, 2.0)).get();
  EXPECT_EQ(service.get_async(1, Box::domain({64, 64, 64})).get().size(), 1u);
  EXPECT_EQ(service.get_async(3, Box::domain({64, 64, 64})).get().size(), 0u);
}

TEST(StagingService, ObserverSeesEveryRequest) {
  ServiceEventLog log;
  ServiceConfig cfg = small_service();
  cfg.observer = log.observer();
  StagingService service(cfg);
  const Box box = Box::domain({8, 8, 8});
  auto ack = service.put_async(3, box, Fab(box, 1, 1.5)).get();
  EXPECT_TRUE(ack.accepted);
  (void)service.get_async(3, box).get();
  (void)service.analyze_async(3, box, 0.0, 0).get();
  service.drain();

  const std::vector<ServiceEvent> seen = log.snapshot();
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0].kind, ServiceEvent::Kind::Put);
  EXPECT_EQ(seen[0].version, 3);
  EXPECT_TRUE(seen[0].accepted);
  EXPECT_GT(seen[0].bytes, 0u);
  EXPECT_EQ(seen[1].kind, ServiceEvent::Kind::Get);
  EXPECT_EQ(seen[1].objects, 1u);
  EXPECT_EQ(seen[2].kind, ServiceEvent::Kind::Analysis);
  EXPECT_EQ(seen[2].objects, 1u);
  EXPECT_EQ(seen[3].kind, ServiceEvent::Kind::Drain);
}

TEST(StagingService, RejectsWhenServerFull) {
  ServiceConfig cfg = small_service(1);
  cfg.memory_per_server = 1000;  // tiny
  StagingService service(cfg);
  const Box box = Box::domain({8, 8, 8});  // 4 KiB payload
  auto ack = service.put_async(0, box, Fab(box, 1)).get();
  EXPECT_FALSE(ack.accepted);
  EXPECT_EQ(service.used_bytes(), 0u);
}

TEST(StagingService, InTransitAnalysisMatchesDirectExtraction) {
  StagingService service(small_service());
  const Box box = Box::domain({16, 16, 16});
  const Fab field = sphere_fab(box, 5.0, 8, 8, 8);
  const mesh::Box cells(box.lo(), box.hi() - 1);
  const std::size_t direct =
      viz::extract_isosurface(field, cells, 0.0).triangle_count();
  ASSERT_GT(direct, 0u);

  Fab copy(box, 1);
  copy.copy_from(field, box);
  service.put_async(5, box, std::move(copy)).get();
  const AnalysisResult result = service.analyze_async(5, box, 0.0, 0).get();
  EXPECT_EQ(result.objects, 1u);
  EXPECT_EQ(result.triangles, direct);
  EXPECT_GT(result.service_seconds, 0.0);
  // Analysis consumed the object: memory freed, nothing left to get.
  service.drain();
  EXPECT_EQ(service.used_bytes(), 0u);
  EXPECT_TRUE(service.get_async(5, box).get().empty());
}

TEST(StagingService, AnalysisAggregatesMultipleObjects) {
  StagingService service(small_service());
  // Two half-domain fabs of the same sphere: together they triangulate the
  // same surface as the full field minus the seam cells.
  const Box full = Box::domain({16, 16, 16});
  const Fab field = sphere_fab(full, 5.0, 8, 8, 8);
  const Box left({0, 0, 0}, {7, 15, 15});
  const Box right({8, 0, 0}, {15, 15, 15});
  for (const Box& part : {left, right}) {
    Fab f(part, 1);
    f.copy_from(field, part);
    EXPECT_TRUE(service.put_async(9, part, std::move(f)).get().accepted);
  }
  const AnalysisResult result =
      service.analyze_async(9, full, 0.0, 0).get();
  EXPECT_EQ(result.objects, 2u);
  EXPECT_GT(result.triangles, 0u);
}

TEST(StagingService, OverlapsWithClientWork) {
  // Fire a batch of analyses and verify the futures all complete while the
  // client thread keeps doing its own accumulation (the overlap the paper's
  // in-transit path exists for).
  StagingService service(small_service(2));
  const Box box = Box::domain({16, 16, 16});
  std::vector<std::future<AnalysisResult>> futures;
  for (int v = 0; v < 8; ++v) {
    Fab f = sphere_fab(box, 4.0 + 0.2 * v, 8, 8, 8);
    service.put_async(v, box, std::move(f)).get();
    futures.push_back(service.analyze_async(v, box, 0.0, 0));
  }
  // Client-side "simulation" proceeds while the service churns.
  double client_work = 0.0;
  for (int i = 1; i < 200000; ++i) client_work += 1.0 / i;
  EXPECT_GT(client_work, 0.0);
  std::size_t total = 0;
  for (auto& f : futures) total += f.get().triangles;
  EXPECT_GT(total, 0u);
  EXPECT_GT(service.busy_seconds(), 0.0);
}

TEST(StagingService, DrainWaitsForQueue) {
  StagingService service(small_service(1));
  const Box box = Box::domain({12, 12, 12});
  for (int v = 0; v < 5; ++v) {
    service.put_async(v, box, sphere_fab(box, 4.0, 6, 6, 6));
    service.analyze_async(v, box, 0.0, 0);
  }
  service.drain();
  EXPECT_EQ(service.pending_requests(), 0u);
  EXPECT_EQ(service.used_bytes(), 0u);
}

TEST(StagingService, FailServerEmitsServerLostAndShrinksCapacity) {
  ServiceEventLog log;
  ServiceConfig cfg = small_service(2);
  cfg.observer = log.observer();
  StagingService service(cfg);
  const Box box = Box::domain({8, 8, 8});
  ASSERT_TRUE(service.put_async(0, box, Fab(box, 1, 1.0)).get().accepted);
  const std::size_t staged = service.used_bytes();
  ASSERT_GT(staged, 0u);

  // Kill both servers: the first loss relocates onto the survivor, the
  // second drops whatever is left.
  const ServerLossReport first = service.fail_server(0);
  EXPECT_EQ(service.alive_servers(), 1);
  EXPECT_EQ(first.dropped_bytes, 0u);  // the survivor has room to relocate
  const ServerLossReport second = service.fail_server(1);
  EXPECT_EQ(service.alive_servers(), 0);
  EXPECT_EQ(second.dropped_bytes, staged);  // nowhere left to relocate
  EXPECT_EQ(service.used_bytes(), 0u);
  EXPECT_EQ(service.free_bytes(), 0u);

  service.recover_server(0);
  EXPECT_EQ(service.alive_servers(), 1);
  EXPECT_TRUE(service.put_async(1, box, Fab(box, 1, 2.0)).get().accepted);
  service.drain();

  EXPECT_EQ(log.count(ServiceEvent::Kind::ServerLost), 2u);
  EXPECT_EQ(log.count(ServiceEvent::Kind::ServerRecovered), 1u);
}

TEST(StagingService, FailServerIsSafeUnderConcurrentTraffic) {
  // Kill and revive a server while puts/analyses are in flight: nothing may
  // crash or deadlock, and accounting must stay exact after drain.
  StagingService service(small_service(4));
  const Box box = Box::domain({12, 12, 12});
  std::vector<std::future<AnalysisResult>> futures;
  for (int v = 0; v < 12; ++v) {
    ASSERT_TRUE(service.put_async(v, box, sphere_fab(box, 4.0, 6, 6, 6)).get().accepted);
    futures.push_back(service.analyze_async(v, box, 0.0, 0));
    if (v == 4) service.fail_server(1);
    if (v == 8) service.recover_server(1);
  }
  for (auto& f : futures) (void)f.get();
  service.drain();
  EXPECT_EQ(service.pending_requests(), 0u);
  EXPECT_EQ(service.used_bytes(), 0u);
  EXPECT_EQ(service.alive_servers(), 4);
}

TEST(StagingService, ManyConcurrentPutsAccountExactly) {
  StagingService service(small_service(4));
  const int n = 32;
  std::vector<std::future<PutAck>> acks;
  std::size_t expected = 0;
  for (int i = 0; i < n; ++i) {
    const Box box = Box::cube({8 * i, 0, 0}, 4);
    Fab f(box, 1, static_cast<double>(i));
    expected += f.bytes();
    acks.push_back(service.put_async(0, box, std::move(f)));
  }
  std::size_t accepted_bytes = 0;
  for (int i = 0; i < n; ++i) {
    if (acks[static_cast<std::size_t>(i)].get().accepted) {
      accepted_bytes += 4 * 4 * 4 * sizeof(double);
    }
  }
  service.drain();
  EXPECT_EQ(service.used_bytes(), accepted_bytes);
  EXPECT_LE(accepted_bytes, expected);
}

}  // namespace
}  // namespace xl::staging
