#pragma once
// Shared-memory parallelism for the hot loops (GEMM, k-NN, histogram builds,
// GBDT split search) and for chunked model sampling. A single process-wide
// pool is created lazily and sized to the hardware.
//
// Work is tracked per TaskGroup, and waiting is *helping*: a thread blocked
// in ThreadPool::wait(group) executes that group's queued tasks instead of
// sleeping. A waiter can always run its own queued tasks, so nested
// parallelism is safe — a pool worker running a sampling chunk may itself
// call parallel_for (e.g. through GEMM) without deadlocking the pool. It
// never picks up another group's (or an ungrouped) task, so a GEMM wait
// inside one served job cannot absorb a whole unrelated job. parallel_for
// falls back to a serial loop when the range is small or the pool has a
// single worker, so call sites never special-case.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace surro::util {

class ThreadPool;

/// Point-in-time snapshot of a pool's load, taken atomically under the pool
/// mutex. `queued + active` is the classic "in flight" count; the monotonic
/// totals let callers compute rates over an interval. Consumed by
/// serve::ServiceStats and the bench harnesses.
struct PoolCounters {
  std::size_t workers = 0;        ///< worker thread count (constant)
  std::size_t queued = 0;         ///< tasks waiting in the queue
  std::size_t active = 0;         ///< tasks currently executing
  std::uint64_t submitted = 0;    ///< total tasks ever submitted
  std::uint64_t completed = 0;    ///< total tasks finished (ok or thrown)
};

/// Completion tracker for a batch of related tasks. Submit through
/// ThreadPool::submit(group, task) and block in wait(); reusable for
/// subsequent batches once wait() returned. If a task throws, the first
/// exception is captured and rethrown by wait() after the batch drains —
/// the pool's bookkeeping never wedges.
class TaskGroup {
 public:
  TaskGroup() = default;
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

 private:
  friend class ThreadPool;
  // Guarded by the owning pool's mutex.
  std::size_t pending_ = 0;  // submitted, not yet finished
  std::size_t queued_ = 0;   // submitted, not yet started
  std::exception_ptr error_;  // first failure
  std::condition_variable cv_;  // wait(): own task queued / group finished
};

class ThreadPool {
 public:
  /// Creates `threads` workers (0 -> std::thread::hardware_concurrency()).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue a task; completion is observed via wait_idle().
  void submit(std::function<void()> task);

  /// Enqueue a task tracked by `group`; completion is observed via
  /// wait(group). The group must outlive the task.
  void submit(TaskGroup& group, std::function<void()> task);

  /// Block until every task submitted against `group` has finished. The
  /// calling thread runs the group's own queued tasks while it waits (never
  /// anyone else's), so this is safe to call from inside a pool worker
  /// (nested parallelism). Rethrows the first exception any of the group's
  /// tasks threw.
  void wait(TaskGroup& group);

  /// Block until every submitted task (all groups) has finished. Unlike
  /// wait(), this must not be called from a pool worker. Exceptions from
  /// ungrouped tasks are rethrown here (first one wins).
  void wait_idle();

  /// Atomic snapshot of queue depth, running tasks, and lifetime totals.
  [[nodiscard]] PoolCounters counters() const;

  /// The process-wide pool (lazily constructed, never destroyed before exit).
  static ThreadPool& global();

 private:
  struct Task {
    std::function<void()> fn;
    TaskGroup* group = nullptr;
  };

  void worker_loop();
  /// Remove the task at `it` from the queue (caller holds the lock).
  Task take_locked(std::deque<Task>::iterator it);
  /// Run one task (caller holds no lock), then update the books.
  void run_task(Task task);

  std::vector<std::thread> workers_;
  std::deque<Task> tasks_;  // FIFO for workers; wait() scans for its own
  mutable std::mutex mutex_;
  std::condition_variable cv_task_;  // workers: work available / stop
  std::condition_variable cv_done_;  // wait_idle(): the pool went idle
  std::size_t in_flight_ = 0;
  std::uint64_t submitted_total_ = 0;
  std::uint64_t completed_total_ = 0;
  std::exception_ptr ungrouped_error_;  // first ungrouped-task failure
  bool stop_ = false;
};

/// Splits [begin, end) into contiguous chunks and runs `body(lo, hi)` on the
/// global pool. Serial when the range is tiny or only one worker exists.
/// `grain` is the minimum chunk size worth shipping to a worker. Safe to
/// call from inside pool tasks (the waiting thread helps execute).
/// `max_threads` caps the fan-out (at most that many chunks are in flight,
/// so at most that many pool workers run them): 0 = every pool worker,
/// 1 = run serially in the calling thread. Bodies that write disjoint
/// per-index outputs produce results bitwise independent of the count.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t, std::size_t)>& body,
                  std::size_t grain = 1024, std::size_t max_threads = 0);

/// Per-element convenience wrapper.
void parallel_for_each(std::size_t begin, std::size_t end,
                       const std::function<void(std::size_t)>& body,
                       std::size_t grain = 1024, std::size_t max_threads = 0);

}  // namespace surro::util
