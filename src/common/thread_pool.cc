#include "common/thread_pool.h"

#include <utility>

#include "obs/metrics.h"

namespace cubrick {

ThreadPool::ThreadPool(size_t num_threads) {
  auto& reg = obs::MetricsRegistry::Global();
  tasks_total_ = reg.GetCounter("pool.tasks_total");
  queue_depth_ = reg.GetGauge("pool.queue_depth");
  // Always 0; bench/ledger/traced.cc reads it until ROADMAP direction 1.
  reg.GetCounter("pool.steals_total");
  const size_t n = num_threads == 0 ? 1 : num_threads;
  threads_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
    wake_cv_.NotifyAll();
  }
  for (auto& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  tasks_total_->Add();
  MutexLock lock(mu_);
  tasks_.push_back(std::move(task));
  queue_depth_->Set(static_cast<int64_t>(tasks_.size()));
  wake_cv_.NotifyOne();
}

std::function<void()> ThreadPool::PopLocked() {
  std::function<void()> task = std::move(tasks_.front());
  tasks_.pop_front();
  queue_depth_->Set(static_cast<int64_t>(tasks_.size()));
  return task;
}

bool ThreadPool::TryRunOne() {
  std::function<void()> task;
  {
    MutexLock lock(mu_);
    if (tasks_.empty()) return false;
    task = PopLocked();
  }
  task();
  return true;
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (tasks_.empty() && !stop_) {
        wake_cv_.Wait(lock);
      }
      // Stopping, but the backlog runs first.
      if (tasks_.empty()) return;
      task = PopLocked();
    }
    task();
  }
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool(
      std::thread::hardware_concurrency() == 0
          ? 1
          : std::thread::hardware_concurrency());
  return *pool;
}

void TaskGroup::Run(std::function<void()> fn) {
  {
    MutexLock lock(mu_);
    ++pending_;
  }
  pool_->Submit([this, fn = std::move(fn)] {
    fn();
    MutexLock lock(mu_);
    --pending_;
    if (pending_ == 0) done_cv_.NotifyAll();
  });
}

void TaskGroup::Wait() {
  // Caller participation: execute queued tasks (this group's or anyone's)
  // until the pool runs dry or our batch completes, then block.
  while (true) {
    {
      MutexLock lock(mu_);
      if (pending_ == 0) return;
    }
    if (!pool_->TryRunOne()) break;
  }
  MutexLock lock(mu_);
  while (pending_ > 0) {
    done_cv_.Wait(lock);
  }
}

}  // namespace cubrick
