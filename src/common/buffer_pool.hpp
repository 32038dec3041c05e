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
#include <cstring>
#include <map>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/contract.hpp"
#include "common/mutex.hpp"

namespace xl {

/// Every pooled buffer starts on a 64-byte boundary: one cache line, and wide
/// enough for any current SIMD width (AVX-512 included). Fab rows, Scratch
/// slabs, and ArenaVec records can therefore use aligned vector loads on lane
/// zero of every buffer, and ArenaVec may hold records up to this alignment.
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

  /// A separate process-global pool for engine-internal arenas (the DES
  /// ladder queue's buckets and handler slabs, flat rank tables, the staged-
  /// byte ledger). Keeping engine bookkeeping off the data-path pool means
  /// the pool telemetry stamped into workflow events reflects payload
  /// traffic only — the analytic and event-queue substrates stay
  /// byte-identical — and engine arena churn never contends on the data
  /// path's lock.
  static BufferPool& engine();

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

/// Flat arena-backed array of trivially copyable records — the storage unit
/// behind the DES ladder-queue buckets, the per-rank record tables, and the
/// staged-byte ring. Semantically a stripped-down vector whose backing bytes
/// come from (and return to) a BufferPool, so steady-state growth cycles
/// recycle pooled capacity instead of touching the heap. Records are plain
/// data: growth is one memcpy, sorting works on raw T* iterators, and there
/// is never a per-element allocation or destructor.
///
/// Arena lifetime rules: the backing buffer belongs to this ArenaVec until
/// destruction (or move-from), at which point it is released to the owning
/// pool; elements must not hold pointers into the arena across push_back
/// (growth relocates), and T must be trivially copyable — both are enforced
/// at compile time where the language allows.
template <typename T>
class ArenaVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "ArenaVec records are relocated with memcpy");
  // Alignment contract: pooled byte buffers are PoolVec<std::uint8_t>
  // storage, which AlignedAllocator obtains from the align_val_t operator new
  // at kPoolAlignment (64 bytes). The pool recycles whole vectors (it never
  // offsets into them), so every bucket hand-out keeps that guarantee, and
  // the static_assert below makes the reinterpret_cast in data() safe for
  // every admissible T. grow() re-checks the invariant with XL_ASSERT each
  // time the backing buffer changes.
  static_assert(alignof(T) <= kPoolAlignment,
                "pooled buffers guarantee kPoolAlignment (64-byte) alignment only");

 public:
  /// Default-constructed arenas draw from the process-global pool.
  ArenaVec() : pool_(&BufferPool::global()) {}
  explicit ArenaVec(BufferPool& pool) : pool_(&pool) {}

  ArenaVec(const ArenaVec&) = delete;
  ArenaVec& operator=(const ArenaVec&) = delete;

  ArenaVec(ArenaVec&& o) noexcept
      : pool_(o.pool_), raw_(std::move(o.raw_)), size_(std::exchange(o.size_, 0)) {}

  ArenaVec& operator=(ArenaVec&& o) noexcept {
    if (this != &o) {
      reset();
      pool_ = o.pool_;
      raw_ = std::move(o.raw_);
      size_ = std::exchange(o.size_, 0);
    }
    return *this;
  }

  ~ArenaVec() { reset(); }

  /// Release the backing buffer to the pool and become empty.
  void reset() noexcept {
    size_ = 0;
    if (!raw_.empty() || raw_.capacity() != 0) pool_->release(std::move(raw_));
    raw_ = PoolVec<std::uint8_t>();
  }

  T* data() noexcept {
    XL_ASSERT_DBG(reinterpret_cast<std::uintptr_t>(raw_.data()) % alignof(T) == 0,
                  "pooled arena misaligned for T");
    return reinterpret_cast<T*>(raw_.data());
  }
  const T* data() const noexcept {
    XL_ASSERT_DBG(reinterpret_cast<std::uintptr_t>(raw_.data()) % alignof(T) == 0,
                  "pooled arena misaligned for T");
    return reinterpret_cast<const T*>(raw_.data());
  }
  T* begin() noexcept { return data(); }
  T* end() noexcept { return data() + size_; }
  const T* begin() const noexcept { return data(); }
  const T* end() const noexcept { return data() + size_; }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t capacity() const noexcept { return raw_.size() / sizeof(T); }

  T& operator[](std::size_t i) noexcept { return data()[i]; }
  const T& operator[](std::size_t i) const noexcept { return data()[i]; }
  T& back() noexcept { return data()[size_ - 1]; }
  const T& back() const noexcept { return data()[size_ - 1]; }

  void clear() noexcept { size_ = 0; }
  void pop_back() noexcept { --size_; }

  void reserve(std::size_t n) {
    if (n > capacity()) grow(n);
  }

  void push_back(const T& v) {
    if (size_ == capacity()) grow(size_ + 1);
    // memcpy into pooled byte storage implicitly begins the record's lifetime
    // (T is trivially copyable), sidestepping placement-new bookkeeping.
    std::memcpy(raw_.data() + size_ * sizeof(T), &v, sizeof(T));
    ++size_;
  }

  /// Insert `v` before index `at`, shifting the tail one slot right.
  void insert_at(std::size_t at, const T& v) {
    if (size_ == capacity()) grow(size_ + 1);
    std::memmove(raw_.data() + (at + 1) * sizeof(T), raw_.data() + at * sizeof(T),
                 (size_ - at) * sizeof(T));
    std::memcpy(raw_.data() + at * sizeof(T), &v, sizeof(T));
    ++size_;
  }

  /// Grow (value-filling new slots) or shrink to exactly `n` records.
  void resize(std::size_t n, const T& fill = T{}) {
    if (n > capacity()) grow(n);
    for (std::size_t i = size_; i < n; ++i) {
      std::memcpy(raw_.data() + i * sizeof(T), &fill, sizeof(T));
    }
    size_ = n;
  }

  void swap(ArenaVec& o) noexcept {
    std::swap(pool_, o.pool_);
    raw_.swap(o.raw_);
    std::swap(size_, o.size_);
  }

 private:
  void grow(std::size_t min_elems) {
    std::size_t want =
        capacity() == 0 ? BufferPool::kMinBucketElements : capacity() * 2;
    while (want < min_elems) want *= 2;
    PoolVec<std::uint8_t> bigger = pool_->acquire<std::uint8_t>(want * sizeof(T));
    XL_ASSERT(reinterpret_cast<std::uintptr_t>(bigger.data()) % alignof(T) == 0,
              "pool handed back a buffer misaligned for T (alignof="
                  << alignof(T) << ")");
    // The first growth has no backing buffer yet: memcpy from nullptr is
    // undefined even for zero bytes.
    if (size_ > 0) std::memcpy(bigger.data(), raw_.data(), size_ * sizeof(T));
    pool_->release(std::move(raw_));
    raw_ = std::move(bigger);
  }

  BufferPool* pool_;
  PoolVec<std::uint8_t> raw_;  ///< pooled backing bytes (capacity in slots).
  std::size_t size_ = 0;
};

}  // namespace xl
