#include "exec/thread_pool.h"

#include <atomic>
#include <cstddef>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace apple::exec {
namespace {

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  TaskGroup group(pool);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    group.run([&hits, i] { hits[i].fetch_add(1); });
  }
  group.wait();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ZeroThreadPoolRunsTasksInWait) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 0u);
  std::atomic<int> counter{0};
  TaskGroup group(pool);
  for (int i = 0; i < 10; ++i) {
    group.run([&counter] { counter.fetch_add(1); });
  }
  group.wait();
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, TaskGroupIsReusableAfterWait) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  TaskGroup group(pool);
  group.run([&counter] { counter.fetch_add(1); });
  group.wait();
  EXPECT_EQ(counter.load(), 1);
  group.run([&counter] { counter.fetch_add(1); });
  group.run([&counter] { counter.fetch_add(1); });
  group.wait();
  EXPECT_EQ(counter.load(), 3);
}

TEST(ThreadPoolTest, NestedTaskGroupsDoNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> leaf_count{0};
  TaskGroup outer(pool);
  for (int i = 0; i < 8; ++i) {
    outer.run([&pool, &leaf_count] {
      // A pool task that itself fans out and waits: wait() must help run
      // queued tasks instead of blocking a worker slot.
      TaskGroup inner(pool);
      for (int j = 0; j < 8; ++j) {
        inner.run([&leaf_count] { leaf_count.fetch_add(1); });
      }
      inner.wait();
    });
  }
  outer.wait();
  EXPECT_EQ(leaf_count.load(), 64);
}

TEST(ThreadPoolTest, WaitRethrowsFirstTaskException) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  TaskGroup group(pool);
  for (int i = 0; i < 16; ++i) {
    group.run([&completed, i] {
      if (i == 3) throw std::runtime_error("task failed");
      completed.fetch_add(1);
    });
  }
  EXPECT_THROW(group.wait(), std::runtime_error);
  // The failing task does not cancel the rest of the batch.
  EXPECT_EQ(completed.load(), 15);
  // The error was consumed: a reused group starts clean.
  group.run([&completed] { completed.fetch_add(1); });
  EXPECT_NO_THROW(group.wait());
  EXPECT_EQ(completed.load(), 16);
}

TEST(ThreadPoolTest, DestructorUnderLoadExecutesEverything) {
  std::atomic<int> counter{0};
  constexpr int kTasks = 200;
  {
    ThreadPool pool(4);
    TaskGroup group(pool);
    for (int i = 0; i < kTasks; ++i) {
      group.run([&counter] { counter.fetch_add(1); });
    }
    // No wait(): the group destructor (then the pool destructor) must
    // drain — every task runs exactly once, none is dropped.
  }
  EXPECT_EQ(counter.load(), kTasks);
}

TEST(ThreadPoolTest, TasksSpawnedDuringShutdownStillRun) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    TaskGroup group(pool);
    for (int i = 0; i < 8; ++i) {
      group.run([&pool, &counter] {
        TaskGroup child(pool);
        child.run([&counter] { counter.fetch_add(1); });
        child.wait();
        counter.fetch_add(1);
      });
    }
  }
  EXPECT_EQ(counter.load(), 16);
}

TEST(ThreadPoolTest, ParallelForCoversRangeOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, 0, hits.size(),
               [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  parallel_for(pool, 5, 5, [&calls](std::size_t) { ++calls; });
  parallel_for(pool, 7, 3, [&calls](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(parallel_for(pool, 0, 64,
                            [](std::size_t i) {
                              if (i == 17) throw std::logic_error("bad index");
                            }),
               std::logic_error);
}

TEST(ThreadPoolTest, StatsCountEveryTask) {
  ThreadPool pool(2);
  constexpr std::size_t kTasks = 50;
  TaskGroup group(pool);
  for (std::size_t i = 0; i < kTasks; ++i) {
    group.run([] {});
  }
  group.wait();
  const ThreadPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.tasks_executed, kTasks);
  EXPECT_GE(stats.queue_depth_high_water, 1u);
}

TEST(ThreadPoolTest, CurrentWorkerIndexDistinguishesPoolThreads) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.current_worker_index(), pool.num_threads());
  std::atomic<bool> saw_external_index{false};
  std::atomic<int> remaining{64};
  TaskGroup group(pool);
  for (int i = 0; i < 64; ++i) {
    group.run([&pool, &saw_external_index, &remaining] {
      if (pool.current_worker_index() >= pool.num_threads()) {
        saw_external_index.store(true);
      }
      remaining.fetch_sub(1);
    });
  }
  // Spin outside wait() so this thread never helps: every task then runs
  // on a pool thread and must observe a worker index, never the external
  // sentinel.
  while (remaining.load() > 0) std::this_thread::yield();
  group.wait();
  EXPECT_FALSE(saw_external_index.load());
}

}  // namespace
}  // namespace apple::exec
