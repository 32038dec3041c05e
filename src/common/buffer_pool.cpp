#include "common/buffer_pool.hpp"

#include <algorithm>
#include <cstdint>

namespace xl {

namespace {

std::size_t next_pow2(std::size_t n) {
  std::size_t b = 1;
  while (b < n) b <<= 1;
  return b;
}

std::size_t prev_pow2(std::size_t n) {
  std::size_t b = 1;
  while ((b << 1) <= n) b <<= 1;
  return b;
}

}  // namespace

std::size_t BufferPool::bucket_for_acquire(std::size_t n) {
  return next_pow2(std::max(n, kMinBucketElements));
}

std::size_t BufferPool::bucket_for_release(std::size_t capacity) {
  return prev_pow2(std::max(capacity, kMinBucketElements));
}

template <>
BufferPool::Shelf<double>& BufferPool::shelf<double>() { return doubles_; }
template <>
BufferPool::Shelf<std::uint32_t>& BufferPool::shelf<std::uint32_t>() { return u32_; }
template <>
BufferPool::Shelf<std::size_t>& BufferPool::shelf<std::size_t>() { return sizes_; }

template <typename T>
std::vector<T> BufferPool::acquire(std::size_t n) {
  if (n == 0) return {};
  std::vector<T> recycled;
  {
    MutexLock lock(mutex_);
    if (enabled_) {
      Shelf<T>& s = shelf<T>();
      // Any bucket at or above the rounded request can serve it: the cached
      // capacity is >= its bucket key >= n, so resize() never reallocates.
      auto it = s.free.lower_bound(bucket_for_acquire(n));
      if (it != s.free.end() && !it->second.empty()) {
        recycled = std::move(it->second.back());
        it->second.pop_back();
        if (it->second.empty()) s.free.erase(it);
        const std::size_t cached = recycled.capacity() * sizeof(T);
        stats_.pooled_bytes -= std::min(stats_.pooled_bytes, cached);
        ++stats_.hits;
      }
    }
    if (recycled.capacity() == 0) ++stats_.misses;
    // Gauge by capacity, not requested size: release() only sees the buffer's
    // capacity, so capacity is the one quantity both sides agree on. The heap
    // fall-through below reserves exactly the acquire bucket.
    stats_.outstanding_bytes +=
        (recycled.capacity() != 0 ? recycled.capacity() : bucket_for_acquire(n)) *
        sizeof(T);
    stats_.high_water_outstanding_bytes =
        std::max(stats_.high_water_outstanding_bytes, stats_.outstanding_bytes);
  }
  if (recycled.capacity() != 0) {
    recycled.resize(n);  // never reallocates: capacity >= bucket key >= n.
    return recycled;
  }
  // Heap fall-through outside the lock; reserve the full bucket so the buffer
  // recycles into the bucket it was sized for.
  std::vector<T> buf;
  buf.reserve(bucket_for_acquire(n));
  buf.resize(n);
  return buf;
}

template <typename T>
void BufferPool::release(std::vector<T>&& buf) {
  if (buf.capacity() == 0) return;
  const std::size_t cached = buf.capacity() * sizeof(T);
  MutexLock lock(mutex_);
  stats_.outstanding_bytes -= std::min(stats_.outstanding_bytes, cached);
  if (!enabled_ || stats_.pooled_bytes + cached > capacity_bytes_) {
    ++stats_.trims;
    return;  // buf frees to the heap on scope exit.
  }
  ++stats_.releases;
  stats_.pooled_bytes += cached;
  stats_.high_water_pooled_bytes =
      std::max(stats_.high_water_pooled_bytes, stats_.pooled_bytes);
  shelf<T>().free[bucket_for_release(buf.capacity())].push_back(std::move(buf));
}

template std::vector<double> BufferPool::acquire<double>(std::size_t);
template std::vector<std::uint32_t> BufferPool::acquire<std::uint32_t>(std::size_t);
template std::vector<std::size_t> BufferPool::acquire<std::size_t>(std::size_t);
template void BufferPool::release<double>(std::vector<double>&&);
template void BufferPool::release<std::uint32_t>(std::vector<std::uint32_t>&&);
template void BufferPool::release<std::size_t>(std::vector<std::size_t>&&);

void BufferPool::set_enabled(bool enabled) {
  MutexLock lock(mutex_);
  enabled_ = enabled;
}

bool BufferPool::enabled() const {
  MutexLock lock(mutex_);
  return enabled_;
}

void BufferPool::set_capacity_bytes(std::size_t capacity_bytes) {
  MutexLock lock(mutex_);
  capacity_bytes_ = capacity_bytes;
}

void BufferPool::clear() {
  MutexLock lock(mutex_);
  doubles_.free.clear();
  u32_.free.clear();
  sizes_.free.clear();
  stats_.pooled_bytes = 0;
}

PoolStats BufferPool::stats() const {
  MutexLock lock(mutex_);
  PoolStats out = stats_;
  out.copied_bytes = copied_bytes_.load(std::memory_order_relaxed);
  return out;
}

BufferPool& BufferPool::global() {
  // Leaked on purpose: Fab destructors in static storage may run after any
  // function-local static would have been destroyed. Still reachable through
  // this pointer, so leak checkers stay quiet.
  static BufferPool* pool = new BufferPool();
  return *pool;
}

}  // namespace xl
