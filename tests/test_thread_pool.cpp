// Thread pool correctness: completion, coverage, reuse, and own-group
// helping waits.

#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <latch>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace surro::util {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(1);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int batch = 0; batch < 5; ++batch) {
    for (int i = 0; i < 20; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
    pool.wait_idle();
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, CountersTrackQueueAndActiveTasks) {
  ThreadPool pool(1);
  const auto idle = pool.counters();
  EXPECT_EQ(idle.workers, 1u);
  EXPECT_EQ(idle.queued, 0u);
  EXPECT_EQ(idle.active, 0u);
  EXPECT_EQ(idle.submitted, 0u);
  EXPECT_EQ(idle.completed, 0u);

  // Gate the single worker on a blocker task, then stack three more: the
  // snapshot must show exactly 1 active and 3 queued.
  std::promise<void> release;
  std::promise<void> started;
  auto release_future = release.get_future().share();
  pool.submit([&started, release_future] {
    started.set_value();
    release_future.wait();
  });
  started.get_future().wait();
  for (int i = 0; i < 3; ++i) pool.submit([] {});

  const auto busy = pool.counters();
  EXPECT_EQ(busy.queued, 3u);
  EXPECT_EQ(busy.active, 1u);
  EXPECT_EQ(busy.submitted, 4u);

  release.set_value();
  pool.wait_idle();
  const auto done = pool.counters();
  EXPECT_EQ(done.queued, 0u);
  EXPECT_EQ(done.active, 0u);
  EXPECT_EQ(done.submitted, 4u);
  EXPECT_EQ(done.completed, 4u);
}

TEST(ThreadPool, CountersIncludeGroupedAndThrowingTasks) {
  ThreadPool pool(2);
  TaskGroup group;
  for (int i = 0; i < 4; ++i) {
    pool.submit(group, [i] {
      if (i == 2) throw std::runtime_error("boom");
    });
  }
  EXPECT_THROW(pool.wait(group), std::runtime_error);
  const auto c = pool.counters();
  EXPECT_EQ(c.submitted, 4u);
  EXPECT_EQ(c.completed, 4u);  // a thrown task still completes
  EXPECT_EQ(c.queued, 0u);
  EXPECT_EQ(c.active, 0u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(
      0, n,
      [&hits](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
      },
      /*grain=*/64);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool called = false;
  parallel_for(5, 5, [&called](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SmallRangeRunsSerial) {
  std::vector<int> hits(10, 0);  // no atomics needed if serial
  parallel_for(
      0, 10,
      [&hits](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) hits[i]++;
      },
      /*grain=*/1024);
  const int total = std::accumulate(hits.begin(), hits.end(), 0);
  EXPECT_EQ(total, 10);
}

TEST(ParallelForEach, MatchesSerialSum) {
  const std::size_t n = 5000;
  std::vector<double> out(n, 0.0);
  parallel_for_each(
      0, n,
      [&out](std::size_t i) { out[i] = static_cast<double>(i) * 2.0; },
      /*grain=*/16);
  double sum = 0.0;
  for (const double v : out) sum += v;
  EXPECT_DOUBLE_EQ(sum, static_cast<double>(n) * (n - 1));
}

TEST(TaskGroup, WaitCoversOnlyOwnTasks) {
  ThreadPool pool(2);
  std::atomic<int> a{0};
  std::atomic<int> b{0};
  TaskGroup group_a;
  TaskGroup group_b;
  for (int i = 0; i < 50; ++i) {
    pool.submit(group_a, [&a] { a.fetch_add(1); });
    pool.submit(group_b, [&b] { b.fetch_add(1); });
  }
  pool.wait(group_a);
  EXPECT_EQ(a.load(), 50);
  pool.wait(group_b);
  EXPECT_EQ(b.load(), 50);
  pool.wait_idle();
}

TEST(TaskGroup, WaitHelpsOnlyWithItsOwnGroup) {
  // A helping wait runs its own group's queued tasks, never another
  // group's: with the only worker blocked, wait(A) must run A's task itself
  // and leave B's task queued, even though B's was queued first.
  ThreadPool pool(1);
  std::latch started(1);
  std::latch release(1);
  pool.submit([&] {
    started.count_down();
    release.wait();
  });
  started.wait();

  TaskGroup group_a;
  TaskGroup group_b;
  std::atomic<bool> ran_x{false};
  std::atomic<bool> ran_y{false};
  pool.submit(group_b, [&] { ran_x.store(true); });
  pool.submit(group_a, [&] { ran_y.store(true); });
  pool.wait(group_a);
  EXPECT_TRUE(ran_y.load());
  EXPECT_FALSE(ran_x.load());
  EXPECT_EQ(pool.counters().queued, 1u);

  release.count_down();
  pool.wait(group_b);
  EXPECT_TRUE(ran_x.load());
  pool.wait_idle();
}

TEST(TaskGroup, ReusableAfterWait) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  TaskGroup group;
  for (int batch = 0; batch < 4; ++batch) {
    for (int i = 0; i < 25; ++i) {
      pool.submit(group, [&counter] { counter.fetch_add(1); });
    }
    pool.wait(group);
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(TaskGroup, ThrowingTaskPropagatesWithoutWedgingPool) {
  ThreadPool pool(2);
  TaskGroup group;
  std::atomic<int> survivors{0};
  for (int i = 0; i < 10; ++i) {
    pool.submit(group, [&survivors, i] {
      if (i == 3) throw std::runtime_error("boom");
      survivors.fetch_add(1);
    });
  }
  EXPECT_THROW(pool.wait(group), std::runtime_error);
  EXPECT_EQ(survivors.load(), 9);
  // Bookkeeping survived: the pool accepts and completes new batches.
  std::atomic<int> after{0};
  for (int i = 0; i < 5; ++i) {
    pool.submit(group, [&after] { after.fetch_add(1); });
  }
  pool.wait(group);
  EXPECT_EQ(after.load(), 5);
  pool.wait_idle();
}

TEST(TaskGroup, NestedWaitFromWorkerDoesNotDeadlock) {
  // A pool task that itself fans out over the same pool and waits — the
  // pattern of parallel model sampling whose chunks call parallel_for
  // (GEMM). The helping wait must drain subtasks instead of deadlocking.
  ThreadPool& pool = ThreadPool::global();
  std::atomic<int> inner_sum{0};
  TaskGroup outer;
  const int outer_n = 8;
  for (int o = 0; o < outer_n; ++o) {
    pool.submit(outer, [&pool, &inner_sum] {
      TaskGroup inner;
      for (int i = 0; i < 16; ++i) {
        pool.submit(inner, [&inner_sum] { inner_sum.fetch_add(1); });
      }
      pool.wait(inner);
    });
  }
  pool.wait(outer);
  EXPECT_EQ(inner_sum.load(), outer_n * 16);
}

TEST(TaskGroup, NestedParallelForFromWorkerCompletes) {
  ThreadPool& pool = ThreadPool::global();
  TaskGroup group;
  std::vector<std::atomic<int>> hits(4096);
  for (int w = 0; w < 4; ++w) {
    pool.submit(group, [&hits] {
      parallel_for(
          0, hits.size(),
          [&hits](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
          },
          /*grain=*/64);
    });
  }
  pool.wait(group);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 4);
  }
}

TEST(ParallelFor, NestedBodiesComputeCorrectly) {
  // Exercise concurrent parallel_for calls from multiple submitting threads.
  ThreadPool& pool = ThreadPool::global();
  (void)pool;
  std::vector<long long> results(4, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t, &results] {
      long long local = 0;
      for (std::size_t i = 0; i < 1000; ++i) local += static_cast<long long>(i);
      results[t] = local;
    });
  }
  for (auto& t : threads) t.join();
  for (const long long r : results) EXPECT_EQ(r, 499500);
}

}  // namespace
}  // namespace surro::util
