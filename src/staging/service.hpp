// A live, threaded staging service: the in-process equivalent of a
// DataSpaces server group. Server worker threads own the staging space and
// execute requests (put / get / in-transit analysis) asynchronously, so a
// client-side simulation genuinely overlaps its next step with in-transit
// work — the mechanism the paper's middleware policy exploits, running for
// real rather than as a timeline model.
//
// Clients interact through futures:
//   auto ack = service.put_async(version, box, std::move(fab));
//   auto iso = service.analyze_async(version, region, isovalue, comp);
//   ... keep simulating ...
//   iso.get().triangles;   // completed on the service threads
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"
#include "staging/space.hpp"
#include "viz/marching_cubes.hpp"

namespace xl::staging {

/// One completed service request, reported through ServiceConfig::observer —
/// the live-service analogue of the workflow's EventLog stream.
struct ServiceEvent {
  enum class Kind {
    Put,
    Get,
    Analysis,
    Drain,
    ServerLost,
    ServerRecovered,
    ReadRepair,  ///< a get re-materialized missing replicas.
    Repair,      ///< an anti-entropy pass re-created replicas.
  };
  Kind kind = Kind::Put;
  int version = -1;            ///< request version (-1 for Drain/Repair).
  std::uint64_t id = 0;        ///< staged-object id (Put only).
  std::size_t bytes = 0;       ///< payload bytes (Put) / copied (Get/ReadRepair/Repair) / dropped (ServerLost).
  std::size_t objects = 0;     ///< objects touched (Get/Analysis) / dropped (ServerLost).
  double seconds = 0.0;        ///< service-thread time for this request.
  bool accepted = true;        ///< Put: false when the space was full.
  int server = -1;             ///< ServerLost/ServerRecovered: which server.
  std::size_t replicas = 0;    ///< Put: copies placed; ReadRepair/Repair: copies re-created.
};

/// Thread-safe recorder for the ServiceEvent stream — the sanctioned
/// ServiceConfig::observer sink. Service workers append concurrently; tests
/// and benches snapshot after a drain. Connect with `log.observer()`.
class ServiceEventLog {
 public:
  void append(const ServiceEvent& event) {
    MutexLock lock(mutex_);
    events_.push_back(event);
  }

  /// Copy of the stream so far (stable snapshot; workers may keep appending).
  std::vector<ServiceEvent> snapshot() const {
    MutexLock lock(mutex_);
    return events_;
  }

  std::size_t count(ServiceEvent::Kind kind) const {
    MutexLock lock(mutex_);
    std::size_t n = 0;
    for (const ServiceEvent& e : events_) n += e.kind == kind;
    return n;
  }

  std::size_t size() const {
    MutexLock lock(mutex_);
    return events_.size();
  }

  /// Callback bound to this log, suitable for ServiceConfig::observer.
  std::function<void(const ServiceEvent&)> observer() {
    return [this](const ServiceEvent& event) { append(event); };
  }

 private:
  mutable Mutex mutex_;
  std::vector<ServiceEvent> events_ XL_GUARDED_BY(mutex_);
};

struct ServiceConfig {
  int num_servers = 2;                       ///< worker threads (staging "cores").
  std::size_t memory_per_server = std::size_t{64} << 20;
  /// Copies of every staged object (see StagingSpace). 1 = the paper's
  /// unreplicated shared space.
  int replication = 1;
  /// Consecutive server ids per failure domain (replicas spread across
  /// domains when possible).
  int servers_per_domain = 1;
  /// What fail_server does with a dead server's replicas by default.
  LossPolicy loss_policy = LossPolicy::Relocate;
  /// Optional event tap. IMPORTANT: invoked from the service worker threads
  /// (and from the caller's thread for Drain), possibly concurrently — the
  /// callback must be thread-safe. It is called outside the service mutex.
  std::function<void(const ServiceEvent&)> observer;
};

/// Result of an asynchronous put.
struct PutAck {
  bool accepted = false;    ///< false when the target server was out of memory.
  std::uint64_t id = 0;
};

/// Result of an in-transit isosurface analysis.
struct AnalysisResult {
  std::size_t objects = 0;    ///< staged objects consumed.
  std::size_t triangles = 0;
  double service_seconds = 0.0;  ///< wall time spent on the service thread.
};

class StagingService {
 public:
  explicit StagingService(const ServiceConfig& config);
  ~StagingService();

  StagingService(const StagingService&) = delete;
  StagingService& operator=(const StagingService&) = delete;

  /// Stage one object by shared immutable ownership: the caller's buffer IS
  /// the staged buffer (no copy anywhere on the path). Never blocks the
  /// caller beyond enqueueing.
  std::future<PutAck> put_async(int version, const mesh::Box& box,
                                std::shared_ptr<const mesh::Fab> payload);

  /// Convenience: take ownership of an rvalue Fab (one move, zero copies).
  std::future<PutAck> put_async(int version, const mesh::Box& box, mesh::Fab&& payload) {
    return put_async(version, box,
                     std::make_shared<const mesh::Fab>(std::move(payload)));
  }

  /// Shared read-only references to all objects of `version` intersecting
  /// `region` — the staged buffers themselves, not copies. They stay valid
  /// (and keep their server memory pinned only until the object is erased;
  /// the buffer itself lives until the last reader drops it). Under
  /// replication this is a quorum read: the get first re-materializes any
  /// missing replicas of the objects it touches (read-repair, emitting
  /// ServiceEvent::ReadRepair when it re-created copies).
  std::future<std::vector<std::shared_ptr<const mesh::Fab>>> get_async(
      int version, const mesh::Box& region);

  /// Background anti-entropy pass: re-create missing replicas (id order,
  /// at most `max_bytes` of copy traffic per pass, 0 = unlimited). Queued
  /// behind client requests so repair competes with workflow traffic. Emits
  /// ServiceEvent::Repair when it re-created copies.
  std::future<RepairReport> repair_async(std::size_t max_bytes = 0);

  /// In-transit analysis: marching cubes over every staged object of
  /// `version` intersecting `region`; consumed objects are erased (their
  /// memory returns to the space).
  std::future<AnalysisResult> analyze_async(int version, const mesh::Box& region,
                                            double isovalue, int comp);

  /// Block until every enqueued request has completed.
  void drain();

  /// Kill one staging server (fault injection): what happens to its replicas
  /// follows `policy` (defaults to the config's loss_policy); the server
  /// stops accepting puts. Emits ServiceEvent::ServerLost. Safe to call from
  /// any thread; runs inline on the caller (not queued behind requests).
  ServerLossReport fail_server(int server);
  ServerLossReport fail_server(int server, LossPolicy policy);

  /// Bring a dead server back online (empty). Emits ServerRecovered.
  void recover_server(int server);

  /// Servers currently accepting data.
  int alive_servers() const;

  /// Requests queued or running on the workers (the live analogue of the
  /// monitor's backlog signal). 0 when idle.
  std::size_t pending_requests() const;

  /// Accounting (valid once the relevant requests completed).
  std::size_t used_bytes() const;
  std::size_t free_bytes() const;
  std::size_t replica_count() const;    ///< live replicas across all objects.
  std::size_t replica_deficit() const;  ///< replicas missing vs full replication.
  double busy_seconds() const;  ///< cumulative service-thread busy time.
  int num_servers() const noexcept { return config_.num_servers; }
  int replication() const noexcept { return config_.replication; }

 private:
  void worker_loop();
  void enqueue(std::function<void()> task) XL_EXCLUDES(mutex_);

  XL_UNGUARDED("immutable after construction; observer must be thread-safe")
  ServiceConfig config_;
  mutable Mutex mutex_;
  XL_UNGUARDED("condition variables synchronize internally")
  CondVar work_cv_;
  XL_UNGUARDED("condition variables synchronize internally")
  CondVar idle_cv_;
  std::deque<std::function<void()>> queue_ XL_GUARDED_BY(mutex_);
  int in_flight_ XL_GUARDED_BY(mutex_) = 0;
  bool stop_ XL_GUARDED_BY(mutex_) = false;
  /// Requests may run on any worker; every space access takes the lock.
  StagingSpace space_ XL_GUARDED_BY(mutex_);
  double busy_seconds_ XL_GUARDED_BY(mutex_) = 0.0;
  XL_UNGUARDED("written once in the constructor before any request can race")
  std::vector<std::thread> workers_;
};

}  // namespace xl::staging
