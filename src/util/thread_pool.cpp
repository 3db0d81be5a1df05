#include "util/thread_pool.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace surro::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  {
    const std::lock_guard lock(mutex_);
    tasks_.push_back(Task{std::move(task), nullptr});
    ++in_flight_;
    ++submitted_total_;
  }
  cv_task_.notify_one();
}

void ThreadPool::submit(TaskGroup& group, std::function<void()> task) {
  {
    const std::lock_guard lock(mutex_);
    tasks_.push_back(Task{std::move(task), &group});
    ++in_flight_;
    ++submitted_total_;
    ++group.pending_;
    ++group.queued_;
    group.cv_.notify_one();  // a waiter may be asleep on this group
  }
  cv_task_.notify_one();
}

ThreadPool::Task ThreadPool::take_locked(std::deque<Task>::iterator it) {
  Task task = std::move(*it);
  tasks_.erase(it);
  if (task.group != nullptr) --task.group->queued_;
  return task;
}

void ThreadPool::run_task(Task task) {
  std::exception_ptr error;
  try {
    task.fn();
  } catch (...) {
    error = std::current_exception();
  }
  bool idle = false;
  {
    const std::lock_guard lock(mutex_);
    --in_flight_;
    ++completed_total_;
    idle = in_flight_ == 0;
    if (task.group != nullptr) {
      TaskGroup& group = *task.group;
      if (error && !group.error_) group.error_ = error;
      // Notified under the lock: the waiter may destroy the group as soon
      // as it observes pending_ == 0.
      if (--group.pending_ == 0) group.cv_.notify_all();
    } else if (error && !ungrouped_error_) {
      ungrouped_error_ = error;
    }
  }
  if (idle) cv_done_.notify_all();
}

void ThreadPool::wait(TaskGroup& group) {
  std::unique_lock lock(mutex_);
  while (group.pending_ != 0) {
    if (group.queued_ == 0) {
      // The group's remaining tasks are running on other threads.
      group.cv_.wait(lock, [&] {
        return group.pending_ == 0 || group.queued_ != 0;
      });
      continue;
    }
    // Help with the group's oldest queued task, never anyone else's.
    Task task = take_locked(std::find_if(
        tasks_.begin(), tasks_.end(),
        [&](const Task& t) { return t.group == &group; }));
    lock.unlock();
    run_task(std::move(task));
    lock.lock();
  }
  if (group.error_) {
    const std::exception_ptr error = std::exchange(group.error_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  cv_done_.wait(lock, [this] { return in_flight_ == 0; });
  if (ungrouped_error_) {
    const std::exception_ptr error = std::exchange(ungrouped_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    Task task;
    {
      std::unique_lock lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = take_locked(tasks_.begin());
    }
    run_task(std::move(task));
  }
}

PoolCounters ThreadPool::counters() const {
  const std::lock_guard lock(mutex_);
  PoolCounters c;
  c.workers = workers_.size();
  c.queued = tasks_.size();
  // in_flight_ counts queued + running; the difference is what executes now.
  c.active = in_flight_ - tasks_.size();
  c.submitted = submitted_total_;
  c.completed = completed_total_;
  return c;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t, std::size_t)>& body,
                  std::size_t grain, std::size_t max_threads) {
  if (begin >= end) return;
  auto& pool = ThreadPool::global();
  const std::size_t n = end - begin;
  std::size_t workers = pool.size();
  if (max_threads > 0) workers = std::min(workers, max_threads);
  if (workers <= 1 || n <= grain) {
    body(begin, end);
    return;
  }
  // Oversubscribe 4x for load balancing — except under a binding
  // max_threads cap, where each queued chunk may occupy one pool worker and
  // the chunk count is therefore the actual concurrency bound.
  const bool capped = max_threads > 0 && max_threads < pool.size();
  const std::size_t max_chunks = capped ? workers : workers * 4;
  const std::size_t chunks = std::min(max_chunks, (n + grain - 1) / grain);
  const std::size_t chunk = (n + chunks - 1) / chunks;
  TaskGroup group;
  for (std::size_t lo = begin; lo < end; lo += chunk) {
    const std::size_t hi = std::min(lo + chunk, end);
    pool.submit(group, [&body, lo, hi] { body(lo, hi); });
  }
  pool.wait(group);
}

void parallel_for_each(std::size_t begin, std::size_t end,
                       const std::function<void(std::size_t)>& body,
                       std::size_t grain, std::size_t max_threads) {
  parallel_for(
      begin, end,
      [&body](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) body(i);
      },
      grain, max_threads);
}

}  // namespace surro::util
