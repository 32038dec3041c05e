#include "staging/service.hpp"

#include <chrono>
#include <cstdint>

#include "common/error.hpp"
#include "common/log.hpp"

namespace xl::staging {

// xl-lint: allow(wallclock): the in-process service reports real elapsed time
// for its own diagnostics; simulated experiments use the substrate clock.
using Clock = std::chrono::steady_clock;

StagingService::StagingService(const ServiceConfig& config)
    : config_(config),
      space_(config.num_servers, config.memory_per_server, config.replication,
             config.servers_per_domain) {
  XL_REQUIRE(config.num_servers >= 1, "service needs at least one server");
  workers_.reserve(static_cast<std::size_t>(config.num_servers));
  for (int s = 0; s < config.num_servers; ++s) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

StagingService::~StagingService() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void StagingService::enqueue(std::function<void()> task) {
  {
    MutexLock lock(mutex_);
    XL_REQUIRE(!stop_, "service is shutting down");
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void StagingService::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!stop_ && queue_.empty()) work_cv_.wait(lock);
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    const auto start = Clock::now();
    task();  // tasks capture their promise and never throw past it
    const double elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    {
      MutexLock lock(mutex_);
      busy_seconds_ += elapsed;
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

std::future<PutAck> StagingService::put_async(int version, const mesh::Box& box,
                                              std::shared_ptr<const mesh::Fab> payload) {
  // Fail on the caller's thread: a null payload dereferenced on a worker would
  // crash the service with the promise never satisfied. Metadata-only puts
  // (which StagingSpace::put itself supports) go through the space directly.
  XL_REQUIRE(payload != nullptr, "put_async requires a payload");
  auto promise = std::make_shared<std::promise<PutAck>>();
  std::future<PutAck> future = promise->get_future();
  enqueue([this, version, box, payload = std::move(payload), promise] {
    const auto start = Clock::now();
    PutAck ack;
    std::size_t replicas_placed = 0;
    const std::size_t bytes = payload->bytes();
    {
      // Space mutations happen on service threads; the space itself is guarded
      // by the service mutex (requests may run on several workers).
      MutexLock lock(mutex_);
      if (space_.can_accept(box, bytes)) {
        ack.id = space_.put(version, box, payload->ncomp(), bytes, payload);
        ack.accepted = true;
        replicas_placed = space_.object_replicas(ack.id);
      }
    }
    if (!ack.accepted) {
      XL_LOG_WARN("staging put rejected: version " << version << ", " << bytes
                                                   << " bytes (space full)");
    }
    if (config_.observer) {
      ServiceEvent ev;
      ev.kind = ServiceEvent::Kind::Put;
      ev.version = version;
      ev.id = ack.id;
      ev.bytes = bytes;
      ev.replicas = replicas_placed;
      ev.accepted = ack.accepted;
      ev.seconds = std::chrono::duration<double>(Clock::now() - start).count();
      config_.observer(ev);
    }
    promise->set_value(ack);
  });
  return future;
}

std::future<std::vector<std::shared_ptr<const mesh::Fab>>> StagingService::get_async(
    int version, const mesh::Box& region) {
  auto promise =
      std::make_shared<std::promise<std::vector<std::shared_ptr<const mesh::Fab>>>>();
  auto future = promise->get_future();
  enqueue([this, version, region, promise] {
    const auto start = Clock::now();
    std::vector<std::shared_ptr<const mesh::Fab>> out;
    std::size_t bytes = 0;
    ReadReport repair;
    {
      // Readers share the staged buffers: only refcounts move under the lock.
      MutexLock lock(mutex_);
      if (config_.replication > 1) {
        // Quorum read: re-materialize missing replicas of the objects this
        // get touches before handing the payloads out, so a reader leaves
        // the data it saw fully replicated.
        repair = space_.read_repair(version, region);
      }
      for (const StagedObject* obj : space_.query(version, region)) {
        if (!obj->payload) continue;
        bytes += obj->payload->bytes();
        out.push_back(obj->payload);
      }
    }
    if (config_.observer) {
      if (repair.repaired_replicas > 0) {
        ServiceEvent rev;
        rev.kind = ServiceEvent::Kind::ReadRepair;
        rev.version = version;
        rev.objects = repair.below_quorum;
        rev.bytes = repair.repaired_bytes;
        rev.replicas = repair.repaired_replicas;
        config_.observer(rev);
      }
      ServiceEvent ev;
      ev.kind = ServiceEvent::Kind::Get;
      ev.version = version;
      ev.bytes = bytes;
      ev.objects = out.size();
      ev.seconds = std::chrono::duration<double>(Clock::now() - start).count();
      config_.observer(ev);
    }
    promise->set_value(std::move(out));
  });
  return future;
}

std::future<RepairReport> StagingService::repair_async(std::size_t max_bytes) {
  auto promise = std::make_shared<std::promise<RepairReport>>();
  auto future = promise->get_future();
  enqueue([this, max_bytes, promise] {
    const auto start = Clock::now();
    RepairReport report;
    {
      MutexLock lock(mutex_);
      report = space_.anti_entropy_repair(max_bytes);
    }
    if (config_.observer && report.repaired_replicas > 0) {
      ServiceEvent ev;
      ev.kind = ServiceEvent::Kind::Repair;
      ev.objects = report.repaired_objects;
      ev.bytes = report.repaired_bytes;
      ev.replicas = report.repaired_replicas;
      ev.seconds = std::chrono::duration<double>(Clock::now() - start).count();
      config_.observer(ev);
    }
    promise->set_value(report);
  });
  return future;
}

std::future<AnalysisResult> StagingService::analyze_async(int version,
                                                          const mesh::Box& region,
                                                          double isovalue, int comp) {
  auto promise = std::make_shared<std::promise<AnalysisResult>>();
  auto future = promise->get_future();
  enqueue([this, version, region, isovalue, comp, promise] {
    const auto start = Clock::now();
    AnalysisResult result;
    // Reference matching payloads under the lock (refcount bumps, no copies),
    // erase the staged objects, then triangulate outside the lock so other
    // requests are not serialized behind the compute. The shared_ptrs keep
    // the buffers alive after the erase.
    std::vector<std::shared_ptr<const mesh::Fab>> payloads;
    {
      MutexLock lock(mutex_);
      std::vector<std::uint64_t> ids;
      for (const StagedObject* obj : space_.query(version, region)) {
        if (!obj->payload) continue;
        payloads.push_back(obj->payload);
        ids.push_back(obj->id);
      }
      for (std::uint64_t id : ids) space_.erase(id);
    }
    for (const auto& fab : payloads) {
      const mesh::Box cells(fab->box().lo(), fab->box().hi() - 1);
      if (cells.empty()) continue;
      result.triangles +=
          viz::extract_isosurface(*fab, cells, isovalue, comp).triangle_count();
    }
    result.objects = payloads.size();
    result.service_seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (config_.observer) {
      ServiceEvent ev;
      ev.kind = ServiceEvent::Kind::Analysis;
      ev.version = version;
      ev.objects = result.objects;
      ev.seconds = result.service_seconds;
      config_.observer(ev);
    }
    promise->set_value(result);
  });
  return future;
}

void StagingService::drain() {
  const auto start = Clock::now();
  {
    MutexLock lock(mutex_);
    while (!queue_.empty() || in_flight_ != 0) idle_cv_.wait(lock);
  }
  if (config_.observer) {
    ServiceEvent ev;
    ev.kind = ServiceEvent::Kind::Drain;
    ev.seconds = std::chrono::duration<double>(Clock::now() - start).count();
    config_.observer(ev);
  }
}

ServerLossReport StagingService::fail_server(int server) {
  return fail_server(server, config_.loss_policy);
}

ServerLossReport StagingService::fail_server(int server, LossPolicy policy) {
  ServerLossReport report;
  {
    MutexLock lock(mutex_);
    report = space_.fail_server(server, policy);
  }
  XL_LOG_WARN("staging server " << server << " lost (" << loss_policy_name(policy)
                                << "): dropped " << report.dropped_objects
                                << " objects (" << report.dropped_bytes
                                << " bytes), relocated " << report.relocated_objects
                                << ", repaired " << report.repaired_objects
                                << ", degraded " << report.degraded_objects);
  if (config_.observer) {
    ServiceEvent ev;
    ev.kind = ServiceEvent::Kind::ServerLost;
    ev.server = server;
    ev.objects = report.dropped_objects;
    ev.bytes = report.dropped_bytes;
    ev.replicas = report.repaired_objects;
    config_.observer(ev);
  }
  return report;
}

void StagingService::recover_server(int server) {
  {
    MutexLock lock(mutex_);
    space_.recover_server(server);
  }
  if (config_.observer) {
    ServiceEvent ev;
    ev.kind = ServiceEvent::Kind::ServerRecovered;
    ev.server = server;
    config_.observer(ev);
  }
}

int StagingService::alive_servers() const {
  MutexLock lock(mutex_);
  return space_.alive_servers();
}

std::size_t StagingService::pending_requests() const {
  MutexLock lock(mutex_);
  return queue_.size() + static_cast<std::size_t>(in_flight_);
}

std::size_t StagingService::used_bytes() const {
  MutexLock lock(mutex_);
  return space_.used_bytes();
}

std::size_t StagingService::free_bytes() const {
  MutexLock lock(mutex_);
  return space_.free_bytes();
}

std::size_t StagingService::replica_count() const {
  MutexLock lock(mutex_);
  return space_.replica_count();
}

std::size_t StagingService::replica_deficit() const {
  MutexLock lock(mutex_);
  return space_.replica_deficit();
}

double StagingService::busy_seconds() const {
  MutexLock lock(mutex_);
  return busy_seconds_;
}

}  // namespace xl::staging
