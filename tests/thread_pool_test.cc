// ThreadPool / TaskGroup tests: submission, caller participation in
// Wait(), and nested fan-out (the shard-blocks-in-op pattern the
// morsel-parallel executor relies on).

#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

namespace cubrick {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 100; ++i) {
    // relaxed: independent counter; TaskGroup::Wait orders the final read
    group.Run([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  group.Wait();
  EXPECT_EQ(ran.load(std::memory_order_relaxed), 100);
}

TEST(ThreadPoolTest, WaitIsIdempotentAndDestructorSafe) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  {
    TaskGroup group(&pool);
    // relaxed: single increment observed after Wait
    group.Run([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    group.Wait();
    group.Wait();  // second Wait must return immediately
  }  // destructor runs Wait() again
  EXPECT_EQ(ran.load(std::memory_order_relaxed), 1);
}

TEST(ThreadPoolTest, CallerParticipatesViaTryRunOne) {
  // A pool with zero worker capacity consumed: even if every worker is
  // blocked, the caller can drain its own group. Simulate by submitting
  // from the only thread that ever runs tasks.
  ThreadPool pool(1);
  std::atomic<int> ran{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 8; ++i) {
    // relaxed: independent counter; TaskGroup::Wait orders the final read
    group.Run([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  // Drain some tasks on the calling thread before blocking.
  while (pool.TryRunOne()) {
  }
  group.Wait();
  EXPECT_EQ(ran.load(std::memory_order_relaxed), 8);
}

TEST(ThreadPoolTest, NestedFanOutDoesNotDeadlock) {
  // A task running on a pool worker opens its own TaskGroup on the same
  // pool — the morsel executor's shape when a shard thread fans out. Wait()
  // lends the blocked thread back to the pool, so this terminates even
  // when tasks outnumber workers.
  ThreadPool pool(2);
  std::atomic<int> leaf{0};
  TaskGroup outer(&pool);
  for (int i = 0; i < 4; ++i) {
    outer.Run([&pool, &leaf] {
      TaskGroup inner(&pool);
      for (int j = 0; j < 4; ++j) {
        // relaxed: independent counter; Wait orders the final read
        inner.Run([&leaf] { leaf.fetch_add(1, std::memory_order_relaxed); });
      }
      inner.Wait();
    });
  }
  outer.Wait();
  EXPECT_EQ(leaf.load(std::memory_order_relaxed), 16);
}

TEST(ThreadPoolTest, ManyGroupsInterleave) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  std::vector<std::unique_ptr<TaskGroup>> groups;
  for (int g = 0; g < 8; ++g) {
    groups.push_back(std::make_unique<TaskGroup>(&pool));
    for (int i = 0; i < 25; ++i) {
      // relaxed: independent counter; Wait orders the final read
      groups.back()->Run(
          [&total] { total.fetch_add(1, std::memory_order_relaxed); });
    }
  }
  for (auto& g : groups) g->Wait();
  EXPECT_EQ(total.load(std::memory_order_relaxed), 200);
}

TEST(ThreadPoolTest, GlobalPoolIsSingletonWithThreads) {
  ThreadPool& a = ThreadPool::Global();
  ThreadPool& b = ThreadPool::Global();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.num_threads(), 1u);
  std::atomic<int> ran{0};
  TaskGroup group(&a);
  // relaxed: single increment observed after Wait
  group.Run([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  group.Wait();
  EXPECT_EQ(ran.load(std::memory_order_relaxed), 1);
}

TEST(ThreadPoolTest, TasksRunOnWorkersWhenCallerSleeps) {
  // Without the caller draining, workers alone must finish the group —
  // guards against lost wakeups in Submit's notify path.
  ThreadPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> ran{0};
    TaskGroup group(&pool);
    for (int i = 0; i < 4; ++i) {
      // relaxed: independent counter; Wait orders the final read
      group.Run([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    group.Wait();
    ASSERT_EQ(ran.load(std::memory_order_relaxed), 4);
  }
}

}  // namespace
}  // namespace cubrick
