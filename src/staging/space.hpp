// The shared-space staging service modeled on DataSpaces: a group of staging
// servers holding versioned, spatially-indexed data objects with per-server
// memory accounting. In-process runs (StagingService) store real Fab
// payloads; an object put without one holds only its byte size. The modeled
// machine-scale pipeline does not use this space: it prices crash losses with
// the closed forms crash_loss_fraction and replica_loss_bytes below.
//
// Durability: objects are staged k-way replicated (replication >= 1). The
// primary replica lands on the Morton-hash target (server_for_box) and the
// k-1 secondaries are placed by the same deterministic linear probe onto
// distinct alive servers, preferring distinct failure domains. EVERY replica
// is charged to its server's memory ledger, so used_bytes() is the physical
// footprint (k x payload at full replication), not the logical one.
//
// Servers can die (fault injection): a dead server's replicas are removed
// from its ledger and, per LossPolicy, re-created immediately (Relocate),
// abandoned (Drop), or left under-replicated for the background
// anti_entropy_repair() pass (Repair). An object is lost only when its LAST
// replica dies — with k-way replication that takes k overlapping failures.
// Reads re-materialize missing replicas on surviving servers (read_repair),
// the quorum being replication/2 + 1.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "mesh/fab.hpp"
#include "mesh/layout.hpp"

namespace xl::staging {

using mesh::Box;
using mesh::Fab;

/// One staged object: the data of `box` at time step `version`.
///
/// The payload is held by shared immutable ownership: the producer's put, the
/// staged object, and every analysis reader reference ONE buffer — no copies
/// anywhere on the staging path. Relocation on server loss moves the object
/// (and its shared_ptr) between servers without touching the refcount
/// semantics; the buffer frees when the last reader drops it.
struct StagedObject {
  std::uint64_t id = 0;
  int version = 0;
  Box box;
  int ncomp = 1;
  std::size_t bytes = 0;
  std::shared_ptr<const Fab> payload;  ///< null in metadata-only mode.
  int server = -1;            ///< primary replica's server (== replicas.front()).
  std::vector<int> replicas;  ///< alive servers holding a copy, primary first.
};

/// What to do with a dead server's replicas.
enum class LossPolicy {
  Relocate,  ///< re-create each lost replica on a surviving server right away.
  Drop,      ///< abandon the lost replicas; objects whose last copy died drop.
  Repair,    ///< leave survivors under-replicated for anti_entropy_repair().
};

const char* loss_policy_name(LossPolicy policy) noexcept;

/// What happened to a dead server's contents.
struct ServerLossReport {
  int server = -1;
  /// Objects whose ONLY copy lived on the dead server and was moved whole to
  /// a survivor (the k = 1 "relocate" path).
  std::size_t relocated_objects = 0;
  std::size_t relocated_bytes = 0;
  /// Objects whose last replica died with nowhere to go: true data loss.
  std::size_t dropped_objects = 0;
  std::size_t dropped_bytes = 0;
  /// Replicas re-created immediately from a surviving copy (Relocate, k > 1).
  std::size_t repaired_objects = 0;
  std::size_t repaired_bytes = 0;
  /// Survivors left under-replicated (Drop/Repair, or Relocate with no room).
  std::size_t degraded_objects = 0;
  std::size_t degraded_bytes = 0;
};

/// Outcome of one anti-entropy pass.
struct RepairReport {
  std::size_t repaired_objects = 0;   ///< objects whose deficit shrank.
  std::size_t repaired_replicas = 0;  ///< replicas re-created.
  std::size_t repaired_bytes = 0;     ///< bytes copied onto new replicas.
  std::size_t remaining_deficit = 0;  ///< replicas still missing after the pass.
};

/// Outcome of a quorum read (query + read-repair).
struct ReadReport {
  std::size_t objects = 0;            ///< objects matching the read.
  std::size_t below_quorum = 0;       ///< objects with < quorum live replicas (pre-repair).
  std::size_t repaired_replicas = 0;  ///< replicas the read re-materialized.
  std::size_t repaired_bytes = 0;
};

/// Deterministic box -> server mapping via the Morton key of the box center:
/// a space-filling-curve hash like DataSpaces' distributed index, preserving
/// spatial locality across servers.
int server_for_box(const Box& box, int num_servers);

/// Share of the still-staged bytes lost when the dead-server count among
/// `servers` rises from `down_before` to `down_now`, every object holding `k`
/// replicas on distinct servers. The closed form the modeled pipeline sheds
/// with; it assumes uniform random replica placement. k = 1: the newly dead
/// servers' share of the survivors, (d - b) / (M - b). k > 1: an object dies
/// only when all k replicas sat on dead servers, C(d, k) / C(M, k), and the
/// result is the newly lost part of what survived `down_before`.
/// StagingSpace places replicas by probe and across failure domains, so its
/// realized loss can differ from this expectation.
double crash_loss_fraction(int servers, int k, int down_before, int down_now);

/// Replica bytes the newly dead servers held when the dead-server count among
/// `servers` rises from `down_before` to `down_now` and `staged_bytes`
/// logical bytes (`k` replicas each) survived the crash. Each server holds
/// k / M of the replica footprint on average, so the newly dead held
/// k * staged_bytes * (down_now - down_before) / M; anti-entropy repair
/// re-creates them. The same expectation caveat as crash_loss_fraction.
std::size_t replica_loss_bytes(std::size_t staged_bytes, int servers, int k,
                               int down_before, int down_now);

class StagingSpace {
 public:
  /// `replication` copies of every object (clamped to num_servers at put
  /// time); `servers_per_domain` groups consecutive server ids into failure
  /// domains (racks) that replica placement spreads across when it can.
  StagingSpace(int num_servers, std::size_t memory_per_server,
               int replication = 1, int servers_per_domain = 1);

  int num_servers() const noexcept { return static_cast<int>(server_used_.size()); }
  /// Servers currently accepting data.
  int alive_servers() const noexcept;
  bool server_alive(int server) const;
  std::size_t memory_per_server() const noexcept { return memory_per_server_; }
  int replication() const noexcept { return replication_; }
  int servers_per_domain() const noexcept { return servers_per_domain_; }
  /// Failure domain of a server (consecutive ids share a domain).
  int domain_of(int server) const noexcept { return server / servers_per_domain_; }
  /// Read quorum: majority of the replication factor.
  int quorum() const noexcept { return replication_ / 2 + 1; }

  /// Capacity of the *alive* servers only.
  std::size_t capacity_bytes() const noexcept {
    return memory_per_server_ * static_cast<std::size_t>(alive_servers());
  }
  /// Physical bytes held: every replica charged to its server's ledger.
  std::size_t used_bytes() const noexcept;
  std::size_t free_bytes() const noexcept {
    const std::size_t cap = capacity_bytes();
    const std::size_t used = used_bytes();
    return cap > used ? cap - used : 0;
  }
  std::size_t server_used_bytes(int server) const;

  /// Server that would hold `box` right now: the hash target if alive, else
  /// the nearest alive server by id (deterministic probing). -1 if none alive.
  int target_server(const Box& box) const;

  /// Alive servers an object of `bytes` at `box` would replicate onto right
  /// now: the primary (target_server) followed by deterministically probed
  /// distinct servers with room, preferring unvisited failure domains. At
  /// most replication() entries; fewer when the group is degraded.
  std::vector<int> replica_targets(const Box& box, std::size_t bytes) const;

  /// Would `put` of an object of `bytes` into the server chosen for `box`
  /// succeed right now? (Checks the primary; secondaries are best-effort.)
  bool can_accept(const Box& box, std::size_t bytes) const;

  /// Insert an object (payload optional, shared not copied), replicated onto
  /// up to replication() distinct servers. Returns the assigned id. Throws
  /// ContractError when no alive server can take the primary.
  std::uint64_t put(int version, const Box& box, int ncomp, std::size_t bytes,
                    std::shared_ptr<const Fab> payload = nullptr);

  /// All objects of `version` intersecting `region`.
  std::vector<const StagedObject*> query(int version, const Box& region) const;

  /// Remove one object (after its analysis has consumed it); frees every
  /// replica's ledger charge.
  void erase(std::uint64_t id);

  /// Remove every object of `version`; returns *payload* bytes freed (one
  /// count per object, not per replica).
  std::size_t erase_version(int version);

  /// Kill a server. Its replicas leave the ledger; surviving copies keep the
  /// object alive. See LossPolicy for what happens to the lost replicas.
  ServerLossReport fail_server(int server, LossPolicy policy = LossPolicy::Relocate);

  /// Bring a dead server back (empty); it resumes accepting new objects.
  void recover_server(int server);

  /// Replicas missing across all objects (how far the space is from full
  /// replication, capped by what the alive group could actually hold).
  std::size_t replica_deficit() const noexcept;

  /// Background anti-entropy: walk under-replicated objects in id order and
  /// re-create missing replicas on probed alive servers with room, spending
  /// at most `max_bytes` of copy traffic (0 = unlimited). Deterministic.
  RepairReport anti_entropy_repair(std::size_t max_bytes = 0);

  /// Quorum read with read-repair: for every object of `version` intersecting
  /// `region`, count live replicas against quorum() and re-materialize
  /// missing replicas on surviving servers (same placement as anti-entropy,
  /// scoped to the read). The DataSpaces get path calls this before handing
  /// payloads out.
  ReadReport read_repair(int version, const Box& region);

  std::size_t object_count() const noexcept { return objects_.size(); }
  /// Live replicas across all objects (== object_count() when replication=1).
  std::size_t replica_count() const noexcept;
  /// Live replicas of one object (0 when the id is unknown).
  std::size_t object_replicas(std::uint64_t id) const noexcept;

 private:
  /// Probe from `box`'s hash for a server to host a NEW replica of `bytes`
  /// (alive, has room, not in `held`; the first pass prefers failure domains
  /// `held` does not occupy yet). -1 when nothing fits.
  int probe(const Box& box, std::size_t bytes, const std::vector<int>& held) const;
  /// Replicas this object should hold given the current alive group.
  int desired_replicas() const noexcept;
  void charge(int server, std::size_t bytes);
  void release(int server, std::size_t bytes, std::uint64_t id);

  std::size_t memory_per_server_;
  int replication_;
  int servers_per_domain_;
  std::vector<std::size_t> server_used_;
  std::vector<bool> server_dead_;
  std::map<std::uint64_t, StagedObject> objects_;
  std::uint64_t next_id_ = 0;
};

}  // namespace xl::staging
