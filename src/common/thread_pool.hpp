// Shared-memory work distribution for the real kernels (AMR sweeps, marching
// cubes, entropy). OpenMP-style static chunking over an index range; the pool
// is optional — with 0 or 1 workers parallel_for degrades to a serial loop.
//
// Determinism contract: every kernel built on parallel_for/parallel_for_chunks
// merges per-chunk results in chunk order, so any worker count (including 0)
// produces bit-identical output. The process-wide default pool starts with
// XL_THREADS workers (0, serial, when unset); set_global_workers resizes it.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"

namespace xl {

/// Fixed-size worker pool with a simple task queue. Tasks reach it only
/// through a TaskGroup; exceptions are captured and rethrown by the owning
/// group's wait().
class ThreadPool {
 public:
  /// Waitable set of tasks submitted to one pool. Each parallel_for call owns
  /// its own group, so two concurrent parallel_fors on the same pool never
  /// wait on each other's tasks.
  class TaskGroup {
   public:
    explicit TaskGroup(ThreadPool& pool);
    /// Blocks until every task of THIS group finished; pending exceptions are
    /// swallowed here — call wait() explicitly to observe them.
    ~TaskGroup();

    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

    /// Enqueue a task into this group; runs inline when the pool has no
    /// workers (exceptions then propagate directly from run()).
    void run(std::function<void()> task);

    /// Block until every task of this group finished; rethrows the first
    /// captured exception, if any. The group is reusable afterwards.
    void wait();

   private:
    friend class ThreadPool;
    XL_UNGUARDED("reference to the owning pool, immutable after construction")
    ThreadPool& pool_;
    std::size_t pending_ XL_GUARDED_BY(pool_.mutex_) = 0;
    std::exception_ptr first_error_ XL_GUARDED_BY(pool_.mutex_);
    XL_UNGUARDED("condition variables synchronize internally")
    CondVar done_cv_;
  };

  /// @param workers number of worker threads; 0 means "run inline on the caller".
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const noexcept { return threads_.size(); }

  /// Process-wide default pool. Starts with XL_THREADS workers (0 — serial —
  /// when unset), resizable via set_global_workers(). An XL_THREADS that is
  /// not a whole non-negative integer throws xl::ContractError naming it.
  static ThreadPool& global();

  /// Resize the global pool. Must not be called while kernels are in flight
  /// (intended for startup / between runs: CLI flag, config key, tests).
  static void set_global_workers(std::size_t workers);

  /// True when the calling thread is a worker of any ThreadPool. parallel_for
  /// uses this to run nested parallelism inline instead of deadlocking on a
  /// queue its own worker would have to drain.
  static bool on_worker_thread() noexcept;

 private:
  struct Task {
    std::function<void()> fn;
    TaskGroup* group = nullptr;
  };

  void enqueue(std::function<void()> task, TaskGroup& group) XL_EXCLUDES(mutex_);
  void worker_loop();

  XL_UNGUARDED("written once in the constructor before any worker can race")
  std::vector<std::thread> threads_;
  std::queue<Task> queue_ XL_GUARDED_BY(mutex_);
  Mutex mutex_;
  XL_UNGUARDED("condition variables synchronize internally")
  CondVar work_cv_;
  bool stop_ XL_GUARDED_BY(mutex_) = false;
};

/// Static-chunked parallel loop over [begin, end). The body receives a
/// half-open subrange [lo, hi). Runs serially when the pool has <= 1 workers
/// or when called from inside a pool worker (nested parallelism).
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t, std::size_t)>& body);

/// Number of chunks parallel_for_chunks will split an n-element range into on
/// this pool from the calling thread (1 on the serial paths). Call sites that
/// accumulate per-chunk results pre-size their buffers with this.
std::size_t parallel_chunk_count(const ThreadPool& pool, std::size_t n);

/// Like parallel_for, but the body also receives the chunk index c. Every
/// chunk index in [0, parallel_chunk_count(pool, end - begin)) is invoked
/// exactly once with a non-empty subrange — per-chunk result buffers sized by
/// parallel_chunk_count are therefore fully written before any merge reads
/// them. Chunks partition the range in order (chunk 0 is the lowest
/// subrange), so merging per-chunk results by chunk index reproduces the
/// serial traversal order exactly.
void parallel_for_chunks(
    ThreadPool& pool, std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body);

}  // namespace xl
