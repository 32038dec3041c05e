// Pooled buffer recycling for the payload data path. Every hop of a coupled
// step (Fab backing stores, pack/compress scratch, staged payloads) used to
// heap-allocate fresh vectors; at scale the step loop was bounded by allocator
// churn, not by the modeled kernels. The BufferPool turns those allocations
// into recycled acquires: buffers are bucketed by capacity (next power of
// two), returned on release, and handed back on the next acquire of a
// compatible size.
//
// Determinism contract: pooling changes WHERE memory comes from, never values.
// acquire() returns a buffer of exactly the requested size whose elements are
// value-initialized only where the vector grew; every consumer in the tree
// fully overwrites the buffer before reading it (Fab fills, pack_into packs,
// compress zero-fills its stream). The golden-trace tests in
// tests/test_buffer_pool.cpp prove pool on/off and pool-size sweeps leave
// every Mode's event log byte-identical.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <new>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"

namespace xl {

/// Every pooled buffer starts on a 64-byte boundary: one cache line, and wide
/// enough for any current SIMD width (AVX-512 included). Fab rows and
/// Scratch slabs can therefore use aligned vector loads on lane zero of every
/// buffer.
inline constexpr std::size_t kPoolAlignment = 64;

/// Minimal allocator handing out kPoolAlignment-aligned storage via the
/// align_val_t forms of operator new/delete. Stateless, so all instances are
/// interchangeable and PoolVec moves are pointer swaps, exactly like the
/// default allocator. This is the "aligned bucket class" behind the pool's
/// size buckets: buckets recycle whole PoolVecs, so every hand-out keeps the
/// allocation-time alignment.
template <typename T>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}  // NOLINT(google-explicit-constructor)

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kPoolAlignment}));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t{kPoolAlignment});
  }

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) noexcept {
    return true;
  }
};

/// The pooled buffer type: a std::vector whose storage is always 64-byte
/// aligned. Everything the BufferPool acquires, caches, and releases is a
/// PoolVec; iterator/span interop with plain vectors is unchanged.
template <typename T>
using PoolVec = std::vector<T, AlignedAllocator<T>>;

/// Snapshot of one pool's counters (monotonic except the byte gauges).
struct PoolStats {
  std::uint64_t hits = 0;      ///< acquires served from a recycled buffer.
  std::uint64_t misses = 0;    ///< acquires that fell through to the heap.
  std::uint64_t releases = 0;  ///< buffers accepted back into the pool.
  std::uint64_t trims = 0;     ///< released buffers dropped (cap or disabled).
  std::uint64_t copied_bytes = 0;  ///< payload bytes deep-copied (Fab copies,
                                   ///< copy_from, pack/unpack) process-wide.
  std::size_t pooled_bytes = 0;       ///< bytes currently cached in free lists.
  /// Capacity bytes acquired and not yet released. Acquire and release both
  /// gauge by buffer capacity, so the ledger balances exactly for the designed
  /// use (acquire, fill within capacity, release). It is approximate — clamped
  /// at zero, never exact — when a caller grows a buffer past its acquired
  /// capacity or donates a foreign heap buffer to release() (plotfile I/O).
  std::size_t outstanding_bytes = 0;
  std::size_t high_water_pooled_bytes = 0;
  std::size_t high_water_outstanding_bytes = 0;
};

/// Thread-safe, size-bucketed recycling pool for the element types the data
/// path moves: doubles (Fab stores, pack scratch), bytes (compressed streams),
/// uint32 (quantizer scratch), and size_t (histogram/count scratch).
///
/// One process-global instance backs mesh::Fab and the kernel scratch
/// (global()); local instances are freely constructible for isolation
/// (tests, per-subsystem pools).
class BufferPool {
 public:
  static constexpr std::size_t kDefaultCapacityBytes = std::size_t{256} << 20;
  /// Smallest bucket: buffers below this round up so tiny acquires recycle
  /// through one shared bucket instead of fragmenting the shelf.
  static constexpr std::size_t kMinBucketElements = 64;

  explicit BufferPool(std::size_t capacity_bytes = kDefaultCapacityBytes)
      : capacity_bytes_(capacity_bytes) {}

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// A buffer of exactly n elements, recycled when a compatible bucket has
  /// one cached, always starting on a kPoolAlignment boundary. Contents are
  /// unspecified beyond vector resize semantics — callers must fully
  /// overwrite before reading (see the determinism note above). Supported T:
  /// double, std::uint8_t, std::uint32_t, std::size_t.
  template <typename T>
  PoolVec<T> acquire(std::size_t n);

  /// Return a buffer to the pool. Buffers beyond the byte cap (or when the
  /// pool is disabled) are dropped to the heap and counted as trims.
  /// Releasing an empty buffer is a no-op. Foreign buffers (never acquired
  /// from this pool) are welcome donations, but they skew the outstanding
  /// gauge — see PoolStats::outstanding_bytes.
  template <typename T>
  void release(PoolVec<T>&& buf);

  /// Disabling makes every acquire a heap miss and every release a trim —
  /// the before/after switch bench_alloc_churn and the bit-identity tests
  /// flip. Values never change, only allocation behavior.
  void set_enabled(bool enabled);
  bool enabled() const;

  /// Cap on total cached bytes across all shelves.
  void set_capacity_bytes(std::size_t capacity_bytes);

  /// Drop every cached buffer (the gauges reset; counters keep counting).
  void clear();

  PoolStats stats() const;

  /// Copy-instrumentation tap: the data path calls this wherever it deep-
  /// copies payload bytes, so benches can report bytes-copied/step.
  void add_copied_bytes(std::size_t bytes) noexcept {
    copied_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }

  /// The process-global pool backing mesh::Fab and the kernel scratch.
  static BufferPool& global();

 private:
  template <typename T>
  struct Shelf {
    /// bucket capacity (elements) -> cached buffers of at least that capacity.
    std::map<std::size_t, std::vector<PoolVec<T>>> free;
  };

  template <typename T>
  Shelf<T>& shelf() XL_REQUIRES(mutex_);

  static std::size_t bucket_for_acquire(std::size_t n);
  static std::size_t bucket_for_release(std::size_t capacity);

  mutable Mutex mutex_;
  bool enabled_ XL_GUARDED_BY(mutex_) = true;
  std::size_t capacity_bytes_ XL_GUARDED_BY(mutex_);
  /// copied_bytes tracked separately in copied_bytes_.
  PoolStats stats_ XL_GUARDED_BY(mutex_);
  XL_UNGUARDED("lock-free tap on the hot copy path")
  std::atomic<std::uint64_t> copied_bytes_{0};
  Shelf<double> doubles_ XL_GUARDED_BY(mutex_);
  Shelf<std::uint8_t> bytes_ XL_GUARDED_BY(mutex_);
  Shelf<std::uint32_t> u32_ XL_GUARDED_BY(mutex_);
  Shelf<std::size_t> sizes_ XL_GUARDED_BY(mutex_);
};

/// RAII scratch buffer: acquires on construction, releases on destruction.
/// The unit of "persistent per-call scratch" for kernels — each task-group
/// chunk holds one for its working set and the pool recycles it for the next.
template <typename T>
class Scratch {
 public:
  Scratch(BufferPool& pool, std::size_t n) : pool_(&pool), buf_(pool.acquire<T>(n)) {}
  explicit Scratch(std::size_t n) : Scratch(BufferPool::global(), n) {}
  ~Scratch() { pool_->release(std::move(buf_)); }

  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  T* data() noexcept { return buf_.data(); }
  const T* data() const noexcept { return buf_.data(); }
  std::size_t size() const noexcept { return buf_.size(); }
  T& operator[](std::size_t i) { return buf_[i]; }
  const T& operator[](std::size_t i) const { return buf_[i]; }
  PoolVec<T>& vec() noexcept { return buf_; }

 private:
  BufferPool* pool_;
  PoolVec<T> buf_;
};

}  // namespace xl
