// Thread pool: the shared execution substrate for ScanBricks' fan-out
// (DESIGN.md §4b), its one producer.
//
// Design:
//  * One FIFO task deque under one Mutex. Submit() appends a task and wakes
//    one worker; workers pop the front. A scan's tasks are coarse (one per
//    extra worker, each claiming bricks from a shared ticket), so there is
//    nothing for per-worker deques or work stealing to balance.
//  * TaskGroup tracks one fan-out. Wait() first lends the calling thread to
//    the pool (running queued tasks from the front) and only then blocks,
//    so a scan fanned out from inside a shard operation makes progress even
//    when every pool worker is busy with other groups — no nested-fan-out
//    deadlock.
//
// Instrumented per docs/OBSERVABILITY.md: pool.queue_depth (gauge) and
// pool.tasks_total (counter).

#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"

namespace cubrick {

namespace obs {
class Counter;
class Gauge;
}  // namespace obs

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(size_t num_threads);

  /// Drains nothing: queued tasks still run (workers finish the backlog
  /// before exiting), but the destructor blocks until they have.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Thread-safe; never blocks on task execution.
  void Submit(std::function<void()> task);

  /// Runs the front queued task on the calling thread. Returns false when
  /// the queue is empty. Lets non-pool threads lend a hand — see
  /// TaskGroup::Wait.
  bool TryRunOne();

  size_t num_threads() const { return threads_.size(); }

  /// The process-wide pool, sized to the hardware concurrency. Created on
  /// first use and intentionally leaked so worker threads never race static
  /// destruction (same pattern as obs::MetricsRegistry::Global()).
  static ThreadPool& Global();

 private:
  void WorkerLoop();
  /// Pops the front task; the queue must not be empty.
  std::function<void()> PopLocked() REQUIRES(mu_);

  Mutex mu_;
  CondVar wake_cv_;
  std::deque<std::function<void()>> tasks_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;

  obs::Counter* tasks_total_;
  obs::Gauge* queue_depth_;

  std::vector<std::thread> threads_;
};

/// Tracks one batch of tasks submitted to a pool; Wait() returns once all
/// of them have finished. The group must outlive its tasks: Wait() (also
/// called by the destructor) guarantees that.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool* pool) : pool_(pool) {}
  ~TaskGroup() { Wait(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Submits `fn` to the pool as part of this group.
  void Run(std::function<void()> fn);

  /// Blocks until every Run() task has finished, executing queued pool
  /// tasks on the calling thread while it waits (caller participation).
  void Wait();

 private:
  ThreadPool* pool_;
  Mutex mu_;
  CondVar done_cv_;
  size_t pending_ GUARDED_BY(mu_) = 0;
};

}  // namespace cubrick
