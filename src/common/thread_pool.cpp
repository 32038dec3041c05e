#include "common/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>

#include "common/contract.hpp"
#include "common/error.hpp"

namespace xl {

namespace {

thread_local bool tl_on_worker = false;

/// Chunks per worker: >1 evens out imbalanced bodies (marching cubes spends
/// most of its time in a few active slabs) without changing results — chunk
/// boundaries only affect scheduling, never merge order.
constexpr std::size_t kChunksPerWorker = 4;

std::size_t default_global_workers() {
  // xl-lint: allow(banned-symbol): the single sanctioned environment read — the
  // documented XL_THREADS setting, the one outside control of the kernel pool.
  const char* env = std::getenv("XL_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  return parse_number<std::size_t>(env, "XL_THREADS");
}

struct GlobalPool {
  Mutex mutex;
  std::unique_ptr<ThreadPool> pool XL_GUARDED_BY(mutex);
};

GlobalPool& global_slot() {
  static GlobalPool slot;
  return slot;
}

}  // namespace

// --- TaskGroup ---------------------------------------------------------------

ThreadPool::TaskGroup::TaskGroup(ThreadPool& pool) : pool_(pool) {}

ThreadPool::TaskGroup::~TaskGroup() {
  MutexLock lock(pool_.mutex_);
  while (pending_ != 0) done_cv_.wait(lock);
}

void ThreadPool::TaskGroup::run(std::function<void()> task) {
  if (pool_.threads_.empty()) {
    task();
    return;
  }
  pool_.enqueue(std::move(task), *this);
}

void ThreadPool::TaskGroup::wait() {
  std::exception_ptr error;
  {
    MutexLock lock(pool_.mutex_);
    while (pending_ != 0) done_cv_.wait(lock);
    std::swap(error, first_error_);
  }
  if (error) std::rethrow_exception(error);
}

// --- ThreadPool --------------------------------------------------------------

ThreadPool::ThreadPool(std::size_t workers) {
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::enqueue(std::function<void()> task, TaskGroup& group) {
  {
    MutexLock lock(mutex_);
    queue_.push(Task{std::move(task), &group});
    ++group.pending_;
  }
  work_cv_.notify_one();
}

ThreadPool& ThreadPool::global() {
  GlobalPool& slot = global_slot();
  MutexLock lock(slot.mutex);
  if (!slot.pool) slot.pool = std::make_unique<ThreadPool>(default_global_workers());
  return *slot.pool;
}

void ThreadPool::set_global_workers(std::size_t workers) {
  GlobalPool& slot = global_slot();
  MutexLock lock(slot.mutex);
  if (slot.pool && slot.pool->worker_count() == workers) return;
  slot.pool.reset();  // joins the old workers before the new pool spins up
  slot.pool = std::make_unique<ThreadPool>(workers);
}

bool ThreadPool::on_worker_thread() noexcept { return tl_on_worker; }

void ThreadPool::worker_loop() {
  tl_on_worker = true;
  for (;;) {
    Task task;
    {
      MutexLock lock(mutex_);
      while (!stop_ && queue_.empty()) work_cv_.wait(lock);
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    std::exception_ptr error;
    try {
      task.fn();
    } catch (...) {
      error = std::current_exception();
    }
    {
      MutexLock lock(mutex_);
      TaskGroup& group = *task.group;
      if (error && !group.first_error_) group.first_error_ = error;
      if (--group.pending_ == 0) group.done_cv_.notify_all();
    }
  }
}

// --- parallel loops ----------------------------------------------------------

std::size_t parallel_chunk_count(const ThreadPool& pool, std::size_t n) {
  if (n <= 1 || pool.worker_count() <= 1 || ThreadPool::on_worker_thread()) {
    return n == 0 ? 0 : 1;
  }
  return std::min(n, pool.worker_count() * kChunksPerWorker);
}

void parallel_for_chunks(
    ThreadPool& pool, std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  XL_REQUIRE(begin <= end, "parallel_for range is inverted");
  if (begin == end) return;
  const std::size_t n = end - begin;
  const std::size_t chunks = parallel_chunk_count(pool, n);
  if (chunks == 1) {
    body(0, begin, end);
    return;
  }
  // Balanced partition: the first n % chunks chunks take one extra element, so
  // every chunk index in [0, chunks) runs exactly once with a non-empty range.
  // Call sites pre-size per-chunk buffers with parallel_chunk_count and merge
  // over every slot; a ceil-sized partition can tile the range in fewer chunks
  // (n=100, chunks=16 -> 15 invocations of size 7), leaving trailing slots
  // unwritten, and the merge would fold in values no chunk computed.
  const std::size_t base = n / chunks;
  const std::size_t extra = n % chunks;
  ThreadPool::TaskGroup group(pool);
  std::size_t lo = begin;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t hi = lo + base + (c < extra ? 1 : 0);
    group.run([&body, c, lo, hi] { body(c, lo, hi); });
    lo = hi;
  }
  group.wait();
}

void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  parallel_for_chunks(pool, begin, end,
                      [&body](std::size_t, std::size_t lo, std::size_t hi) {
                        body(lo, hi);
                      });
}

}  // namespace xl
