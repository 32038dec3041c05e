// Deterministic discrete-event engine. Events at equal timestamps fire in
// scheduling order (sequence-number tie-break), so simulated experiments are
// bit-reproducible regardless of host scheduling.
//
// The engine is built for million-core virtual machines: the pending set is a
// ladder queue (Top / rungs-of-buckets / sorted Bottom) over flat, arena-
// allocated event records instead of a binary heap of std::function closures.
// Scheduling appends a 24-byte EventRef to a flat bucket and constructs the
// handler once, in place, in a pooled slab arena; popping moves the handler
// out (never copies it) and recycles the slot. At steady state neither path
// touches the heap — bucket storage and handler slabs cycle through
// common/buffer_pool.hpp arenas. See DESIGN.md §3.6 for the structure and
// bench/bench_des_scaling.cpp for the 2K→1M virtual-core regression gate.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/buffer_pool.hpp"
#include "common/error.hpp"

namespace xl::cluster {

using SimTime = double;  ///< simulated seconds.

/// Move-only callable with a small-buffer-optimized handler slot: callables
/// up to kInlineBytes live inline (no heap), larger ones fall back to one
/// heap allocation. Unlike std::function it never requires copyability and
/// never copies the target — the properties the event hot path needs.
class EventHandler {
 public:
  /// Nine 8-byte words: bench_des_scaling's per-rank event closure is exactly
  /// this size and must stay inline for its allocations-per-event gate.
  static constexpr std::size_t kInlineBytes = 72;

  EventHandler() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventHandler> &&
                std::is_invocable_v<std::decay_t<F>&>>>
  EventHandler(F&& fn) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      ops_ = inline_ops<Fn>();
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
      ops_ = heap_ops<Fn>();
    }
  }

  EventHandler(const EventHandler&) = delete;
  EventHandler& operator=(const EventHandler&) = delete;

  EventHandler(EventHandler&& o) noexcept : ops_(o.ops_) {
    if (ops_ != nullptr) ops_->relocate(storage_, o.storage_);
    o.ops_ = nullptr;
  }

  EventHandler& operator=(EventHandler&& o) noexcept {
    if (this != &o) {
      if (ops_ != nullptr) ops_->destroy(storage_);
      ops_ = o.ops_;
      if (ops_ != nullptr) ops_->relocate(storage_, o.storage_);
      o.ops_ = nullptr;
    }
    return *this;
  }

  ~EventHandler() {
    if (ops_ != nullptr) ops_->destroy(storage_);
  }

  void operator()() { ops_->invoke(storage_); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// True when the callable was too large for the inline slot (diagnostics:
  /// the DES hot path should never see heap-backed handlers).
  bool heap_backed() const noexcept { return ops_ != nullptr && ops_->heap; }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
    bool heap;
  };

  template <typename Fn>
  static const Ops* inline_ops() noexcept {
    static const Ops kOps = {
        [](void* p) { (*std::launder(reinterpret_cast<Fn*>(p)))(); },
        [](void* dst, void* src) noexcept {
          Fn* from = std::launder(reinterpret_cast<Fn*>(src));
          ::new (dst) Fn(std::move(*from));
          from->~Fn();
        },
        [](void* p) noexcept { std::launder(reinterpret_cast<Fn*>(p))->~Fn(); },
        /*heap=*/false,
    };
    return &kOps;
  }

  template <typename Fn>
  static const Ops* heap_ops() noexcept {
    static const Ops kOps = {
        [](void* p) { (**std::launder(reinterpret_cast<Fn**>(p)))(); },
        [](void* dst, void* src) noexcept {
          ::new (dst) Fn*(*std::launder(reinterpret_cast<Fn**>(src)));
        },
        [](void* p) noexcept { delete *std::launder(reinterpret_cast<Fn**>(p)); },
        /*heap=*/true,
    };
    return &kOps;
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// Engine telemetry the scaling bench and tests read.
struct EventQueueStats {
  std::uint64_t scheduled = 0;      ///< events accepted.
  std::uint64_t fired = 0;          ///< events executed.
  std::uint64_t rung_spawns = 0;    ///< ladder rungs materialized.
  std::uint64_t direct_sorts = 0;   ///< Top/bucket batches sorted straight to Bottom.
  std::uint64_t heap_handlers = 0;  ///< handlers too large for the inline slot.
  std::size_t peak_pending = 0;     ///< high-water pending-event count.
};

class EventQueue {
 public:
  EventQueue();
  ~EventQueue();

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedule `fn` at absolute simulated time `t` (must be >= now()). The
  /// handler is constructed ONCE, directly in its arena slot — no temporary,
  /// no closure copy.
  template <typename F>
  void schedule_at(SimTime t, F&& fn) {
    XL_REQUIRE(t >= now_, "cannot schedule in the past");
    const std::uint32_t slot = reserve_slot();
    EventHandler* handler =
        ::new (slot_mem(slot)) EventHandler(std::forward<F>(fn));
    finish_schedule(t, slot, handler->heap_backed());
  }

  /// Schedule `fn` `delay` seconds from now.
  template <typename F>
  void schedule_in(SimTime delay, F&& fn) {
    XL_REQUIRE(delay >= 0.0, "negative delay");
    schedule_at(now_ + delay, std::forward<F>(fn));
  }

  SimTime now() const noexcept { return now_; }
  bool empty() const noexcept { return pending_ == 0; }
  std::size_t pending() const noexcept { return pending_; }
  const EventQueueStats& stats() const noexcept { return stats_; }

  /// Pop and run the earliest event; returns false when the queue is empty.
  /// The handler runs IN its arena slot (never moved or copied); the slot is
  /// destroyed and recycled when the handler returns — or throws, matching
  /// the seed engine's consume-even-on-throw semantics.
  bool run_one();

  /// Drain the queue (events may schedule further events).
  void run_until_empty() {
    while (run_one()) {
    }
  }

  /// Run events with time <= t_end, then advance the clock to t_end (the
  /// clock advances even when no event fired — an empty queue still observes
  /// the passage of simulated time).
  void run_until(SimTime t_end);

 private:
  /// One pending event: flat, trivially copyable, sorted by (time, seq).
  /// The handler lives in the slab arena at `slot`.
  struct EventRef {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  static bool before(const EventRef& a, const EventRef& b) noexcept {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }

  /// One ladder rung: a window [start, start + nbuckets*width) split into
  /// equal buckets; `cur` is the next bucket to drain, so the rung's live
  /// range starts at threshold() and inserts below it belong further down
  /// the ladder. Bucket arenas keep their pooled capacity across reuse.
  struct Rung {
    double start = 0.0;
    double width = 0.0;
    double inv_width = 0.0;  ///< 1/width: bucket index by multiply, not divide.
    std::size_t cur = 0;
    std::size_t nbuckets = 0;
    std::size_t count = 0;
    std::vector<ArenaVec<EventRef>> buckets;

    double threshold() const noexcept {
      return start + static_cast<double>(cur) * width;
    }
  };

 public:
  /// Buckets at or below this size sort straight into Bottom; larger ones
  /// spawn a child rung. Sorting a few hundred flat 24-byte records is
  /// cache-local and beats another level of re-bucketing, so the threshold
  /// sits well above the classic ladder's.
  static constexpr std::size_t kBucketThreshold = 256;

 private:
  static constexpr std::size_t kMaxRungs = 8;
  // Handler slabs grow geometrically from 1 Ki to 256 Ki slots (80 KiB to
  // ~21 MiB), so small queues stay tiny while million-event queues get a few
  // large slabs that BufferPool backs with transparent hugepages. A slot id
  // packs (slab index << kSlotIdxBits) | index-within-slab.
  static constexpr std::size_t kSlotIdxBits = 18;
  static constexpr std::size_t kMaxSlabSlots = std::size_t{1} << kSlotIdxBits;
  static constexpr std::size_t kBaseSlabSlots = 1024;

  static constexpr std::size_t slots_in_slab(std::size_t i) noexcept {
    return i >= 8 ? kMaxSlabSlots : (kBaseSlabSlots << i);
  }

  std::uint32_t reserve_slot();
  void* slot_mem(std::uint32_t slot) noexcept;
  void finish_schedule(SimTime t, std::uint32_t slot, bool heap_backed);
  void insert_ref(const EventRef& ref);
  bool prepare_bottom();
  void spawn_rung(ArenaVec<EventRef>& source, double start, double width,
                  std::size_t nbuckets);
  void sort_into_bottom(ArenaVec<EventRef>& batch);
  void destroy_all() noexcept;

  // --- handler slab arena ----------------------------------------------------
  EventHandler* slot_ptr(std::uint32_t slot) noexcept;
  void release_slot(std::uint32_t slot) noexcept;

  SimTime now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::size_t pending_ = 0;
  EventQueueStats stats_;

  // Ladder tiers. Bottom is sorted descending by (time, seq) — pop_back is
  // the minimum; Top is the unsorted far future (everything >= top_floor_).
  ArenaVec<EventRef> bottom_;
  std::array<Rung, kMaxRungs> rungs_;
  std::size_t nrungs_ = 0;
  ArenaVec<EventRef> top_;
  double top_floor_ = 0.0;  ///< -inf whenever the queue is fully drained.
  double top_min_ = 0.0;
  double top_max_ = 0.0;
  ArenaVec<EventRef> drain_;  ///< scratch bucket being transferred.

  // Handler arena: fixed-size slots in pooled slabs, LIFO free list. Slabs
  // are stable (never relocated) so slot pointers survive arena growth.
  std::vector<PoolVec<std::uint8_t>> slabs_;
  ArenaVec<std::uint32_t> free_slots_;
  std::uint32_t slab_used_ = 0;     ///< slots handed out from the last slab.
  std::size_t total_slots_ = 0;     ///< slots across all slabs.
};

}  // namespace xl::cluster
