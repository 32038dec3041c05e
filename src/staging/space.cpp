#include "staging/space.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "common/contract.hpp"
#include "common/error.hpp"

namespace xl::staging {

const char* loss_policy_name(LossPolicy policy) noexcept {
  switch (policy) {
    case LossPolicy::Relocate: return "relocate";
    case LossPolicy::Drop: return "drop";
    case LossPolicy::Repair: return "repair";
  }
  return "?";
}

int server_for_box(const Box& box, int num_servers) {
  XL_REQUIRE(num_servers >= 1, "need at least one server");
  XL_REQUIRE(!box.empty(), "cannot index an empty box");
  const mesh::IntVect center{(box.lo()[0] + box.hi()[0]) / 2,
                             (box.lo()[1] + box.hi()[1]) / 2,
                             (box.lo()[2] + box.hi()[2]) / 2};
  const std::uint64_t key = mesh::morton_key(center);
  // SplitMix64 finalizer: a plain multiply would leave the low bits (and so
  // the modulus) a function of only the low Morton bits, hashing nearly all
  // boxes to one server.
  std::uint64_t h = key;
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
  h ^= h >> 31;
  return static_cast<int>(h % static_cast<std::uint64_t>(num_servers));
}

double crash_loss_fraction(int servers, int k, int down_before, int down_now) {
  XL_REQUIRE(k >= 1 && k <= servers, "crash loss needs 1 <= k <= servers");
  XL_REQUIRE(0 <= down_before && down_before < down_now && down_now <= servers,
             "crash loss needs 0 <= down_before < down_now <= servers");
  if (k == 1) {
    return down_now >= servers ? 1.0
                               : static_cast<double>(down_now - down_before) /
                                     static_cast<double>(servers - down_before);
  }
  const auto all_replicas_dead = [&](int d) {
    if (d >= servers) return 1.0;
    if (d < k) return 0.0;
    double f = 1.0;
    for (int i = 0; i < k; ++i) {
      f *= static_cast<double>(d - i) / static_cast<double>(servers - i);
    }
    return f;
  };
  const double before = all_replicas_dead(down_before);
  const double now = all_replicas_dead(down_now);
  return before >= 1.0 ? 1.0 : (now - before) / (1.0 - before);
}

std::size_t replica_loss_bytes(std::size_t staged_bytes, int servers, int k,
                               int down_before, int down_now) {
  XL_REQUIRE(k >= 1 && k <= servers, "replica loss needs 1 <= k <= servers");
  XL_REQUIRE(0 <= down_before && down_before < down_now && down_now <= servers,
             "replica loss needs 0 <= down_before < down_now <= servers");
  return f2s(static_cast<double>(staged_bytes) * static_cast<double>(k) *
             static_cast<double>(down_now - down_before) / static_cast<double>(servers));
}

StagingSpace::StagingSpace(int num_servers, std::size_t memory_per_server,
                           int replication, int servers_per_domain)
    : memory_per_server_(memory_per_server),
      replication_(replication),
      servers_per_domain_(servers_per_domain),
      server_used_(static_cast<std::size_t>(num_servers), 0),
      server_dead_(static_cast<std::size_t>(num_servers), false) {
  XL_REQUIRE(num_servers >= 1, "need at least one staging server");
  XL_REQUIRE(memory_per_server > 0, "staging servers need memory");
  XL_REQUIRE(replication >= 1, "replication factor must be >= 1");
  XL_REQUIRE(servers_per_domain >= 1, "failure domains need >= 1 server");
}

int StagingSpace::alive_servers() const noexcept {
  int alive = 0;
  for (const bool dead : server_dead_) {
    if (!dead) ++alive;
  }
  return alive;
}

bool StagingSpace::server_alive(int server) const {
  XL_REQUIRE(server >= 0 && server < num_servers(), "server out of range");
  return !server_dead_[static_cast<std::size_t>(server)];
}

std::size_t StagingSpace::used_bytes() const noexcept {
  return std::accumulate(server_used_.begin(), server_used_.end(), std::size_t{0});
}

std::size_t StagingSpace::server_used_bytes(int server) const {
  XL_REQUIRE(server >= 0 && server < num_servers(), "server out of range");
  return server_used_[static_cast<std::size_t>(server)];
}

int StagingSpace::target_server(const Box& box) const {
  const int hashed = server_for_box(box, num_servers());
  // Linear probe from the hash target so the mapping stays deterministic and
  // collapses back to the hash once the server recovers.
  for (int i = 0; i < num_servers(); ++i) {
    const int candidate = (hashed + i) % num_servers();
    if (!server_dead_[static_cast<std::size_t>(candidate)]) return candidate;
  }
  return -1;
}

std::vector<int> StagingSpace::replica_targets(const Box& box,
                                               std::size_t bytes) const {
  std::vector<int> targets;
  const int primary = target_server(box);
  if (primary < 0) return targets;
  targets.push_back(primary);
  // The ledgers stay fixed while targets are chosen and `targets` only grows,
  // so untouched failure domains fill before any domain takes a second copy.
  while (targets.size() < static_cast<std::size_t>(replication_)) {
    const int next = probe(box, bytes, targets);
    if (next < 0) break;
    targets.push_back(next);
  }
  return targets;
}

bool StagingSpace::can_accept(const Box& box, std::size_t bytes) const {
  const int server = target_server(box);
  if (server < 0) return false;
  return server_used_[static_cast<std::size_t>(server)] + bytes <= memory_per_server_;
}

void StagingSpace::charge(int server, std::size_t bytes) {
  server_used_[static_cast<std::size_t>(server)] += bytes;
}

void StagingSpace::release(int server, std::size_t bytes, std::uint64_t id) {
  auto& used = server_used_[static_cast<std::size_t>(server)];
  XL_ASSERT(used >= bytes, "server " << server << " accounts " << used
                                     << " bytes but object " << id << " holds "
                                     << bytes);
  used -= bytes;
}

std::uint64_t StagingSpace::put(int version, const Box& box, int ncomp,
                                std::size_t bytes, std::shared_ptr<const Fab> payload) {
  const int server = target_server(box);
  XL_REQUIRE(server >= 0, "no staging server alive");
  XL_REQUIRE(server_used_[static_cast<std::size_t>(server)] + bytes <=
                 memory_per_server_,
             "staging server out of memory (caller must check can_accept)");
  if (payload) {
    XL_REQUIRE(payload->ncomp() == ncomp, "payload component count mismatch");
  }
  StagedObject obj;
  obj.id = next_id_++;
  obj.version = version;
  obj.box = box;
  obj.ncomp = ncomp;
  obj.bytes = bytes;
  obj.payload = std::move(payload);
  obj.server = server;
  if (replication_ == 1) {
    obj.replicas.push_back(server);
  } else {
    obj.replicas = replica_targets(box, bytes);
    XL_ASSERT(!obj.replicas.empty() && obj.replicas.front() == server,
              "replica targets must start with the primary");
  }
  for (int r : obj.replicas) charge(r, bytes);
  objects_.emplace(obj.id, std::move(obj));
  return next_id_ - 1;
}

std::vector<const StagedObject*> StagingSpace::query(int version, const Box& region) const {
  std::vector<const StagedObject*> hits;
  for (const auto& [id, obj] : objects_) {
    if (obj.version == version && obj.box.intersects(region)) hits.push_back(&obj);
  }
  return hits;
}

void StagingSpace::erase(std::uint64_t id) {
  auto it = objects_.find(id);
  XL_REQUIRE(it != objects_.end(), "erase of unknown staged object");
  for (int r : it->second.replicas) release(r, it->second.bytes, id);
  objects_.erase(it);
}

std::size_t StagingSpace::erase_version(int version) {
  std::size_t freed = 0;
  for (auto it = objects_.begin(); it != objects_.end();) {
    if (it->second.version == version) {
      freed += it->second.bytes;
      for (int r : it->second.replicas) release(r, it->second.bytes, it->second.id);
      it = objects_.erase(it);
    } else {
      ++it;
    }
  }
  return freed;
}

int StagingSpace::desired_replicas() const noexcept {
  return std::min(replication_, alive_servers());
}

int StagingSpace::probe(const Box& box, std::size_t bytes,
                        const std::vector<int>& held) const {
  const int hashed = server_for_box(box, num_servers());
  auto holds = [&](int server) {
    return std::find(held.begin(), held.end(), server) != held.end();
  };
  auto in_used_domain = [&](int server) {
    for (int t : held) {
      if (domain_of(t) == domain_of(server)) return true;
    }
    return false;
  };
  // Two probe passes from the hash: the first insists on untouched failure
  // domains, the second takes any distinct alive server with room. Probe
  // order is identical every call — placement depends only on (box,
  // liveness, ledgers), never on history.
  for (const bool domain_strict : {true, false}) {
    for (int i = 0; i < num_servers(); ++i) {
      const int candidate = (hashed + i) % num_servers();
      const auto c = static_cast<std::size_t>(candidate);
      if (server_dead_[c] || holds(candidate)) continue;
      if (server_used_[c] + bytes > memory_per_server_) continue;
      if (domain_strict && in_used_domain(candidate)) continue;
      return candidate;
    }
  }
  return -1;
}

ServerLossReport StagingSpace::fail_server(int server, LossPolicy policy) {
  XL_REQUIRE(server >= 0 && server < num_servers(), "server out of range");
  const auto s = static_cast<std::size_t>(server);
  ServerLossReport report;
  report.server = server;
  if (server_dead_[s]) return report;  // already down; nothing new to lose.
  server_dead_[s] = true;

  // Walk the dead server's replicas in id order (map order) so any immediate
  // re-creation is deterministic: first objects get first pick of the
  // survivors' free space.
  for (auto it = objects_.begin(); it != objects_.end();) {
    StagedObject& obj = it->second;
    const auto replica = std::find(obj.replicas.begin(), obj.replicas.end(), server);
    if (replica == obj.replicas.end()) {
      ++it;
      continue;
    }
    release(server, obj.bytes, obj.id);
    obj.replicas.erase(replica);
    const bool survivors = !obj.replicas.empty();
    if (survivors) obj.server = obj.replicas.front();

    int dest = -1;
    if (policy == LossPolicy::Relocate) dest = probe(obj.box, obj.bytes, obj.replicas);
    if (dest >= 0) {
      obj.replicas.push_back(dest);
      charge(dest, obj.bytes);
      if (survivors) {
        // Re-created from a surviving copy: a repair, not a move.
        ++report.repaired_objects;
        report.repaired_bytes += obj.bytes;
      } else {
        // The only copy moved whole (the k = 1 relocate path).
        obj.server = dest;
        ++report.relocated_objects;
        report.relocated_bytes += obj.bytes;
      }
      ++it;
    } else if (!survivors) {
      ++report.dropped_objects;
      report.dropped_bytes += obj.bytes;
      it = objects_.erase(it);
    } else {
      ++report.degraded_objects;
      report.degraded_bytes += obj.bytes;
      ++it;
    }
  }
  XL_CHECK(server_used_[s] == 0, "dead server still accounts bytes");
  return report;
}

void StagingSpace::recover_server(int server) {
  XL_REQUIRE(server >= 0 && server < num_servers(), "server out of range");
  server_dead_[static_cast<std::size_t>(server)] = false;
}

std::size_t StagingSpace::replica_deficit() const noexcept {
  const auto desired = static_cast<std::size_t>(desired_replicas());
  std::size_t deficit = 0;
  for (const auto& [id, obj] : objects_) {
    if (obj.replicas.size() < desired) deficit += desired - obj.replicas.size();
  }
  return deficit;
}

RepairReport StagingSpace::anti_entropy_repair(std::size_t max_bytes) {
  RepairReport report;
  const auto desired = static_cast<std::size_t>(desired_replicas());
  for (auto& [id, obj] : objects_) {
    bool repaired_this = false;
    while (obj.replicas.size() < desired) {
      if (max_bytes > 0 && report.repaired_bytes + obj.bytes > max_bytes) {
        report.remaining_deficit += desired - obj.replicas.size();
        break;
      }
      const int dest = probe(obj.box, obj.bytes, obj.replicas);
      if (dest < 0) {  // no survivor has room: deficit stays until one does.
        report.remaining_deficit += desired - obj.replicas.size();
        break;
      }
      obj.replicas.push_back(dest);
      charge(dest, obj.bytes);
      ++report.repaired_replicas;
      report.repaired_bytes += obj.bytes;
      repaired_this = true;
    }
    report.repaired_objects += repaired_this ? 1 : 0;
  }
  return report;
}

ReadReport StagingSpace::read_repair(int version, const Box& region) {
  ReadReport report;
  const auto desired = static_cast<std::size_t>(desired_replicas());
  const auto need = static_cast<std::size_t>(quorum());
  for (auto& [id, obj] : objects_) {
    if (obj.version != version || !obj.box.intersects(region)) continue;
    ++report.objects;
    if (obj.replicas.size() < std::min(need, desired)) ++report.below_quorum;
    while (obj.replicas.size() < desired) {
      const int dest = probe(obj.box, obj.bytes, obj.replicas);
      if (dest < 0) break;
      obj.replicas.push_back(dest);
      charge(dest, obj.bytes);
      ++report.repaired_replicas;
      report.repaired_bytes += obj.bytes;
    }
  }
  return report;
}

std::size_t StagingSpace::replica_count() const noexcept {
  std::size_t n = 0;
  for (const auto& [id, obj] : objects_) n += obj.replicas.size();
  return n;
}

std::size_t StagingSpace::object_replicas(std::uint64_t id) const noexcept {
  const auto it = objects_.find(id);
  return it == objects_.end() ? 0 : it->second.replicas.size();
}

}  // namespace xl::staging
