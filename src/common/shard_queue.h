// Bounded multi-producer single-consumer work queue for brick shards.
//
// Cubrick shards all bricks by bid across CPU cores; each shard owns an input
// queue of operations (loads, queries, deletes, purges) drained by exactly
// one thread (paper §V-B, "Flushing"). Because a single thread applies every
// operation for a shard, no low-level locking is needed on the bricks
// themselves — the queue is the only synchronized structure.

#pragma once

#include <deque>
#include <optional>

#include "common/mutex.h"
#include "common/status.h"

namespace cubrick {

/// Blocking MPSC queue. Push from any thread; Pop from the single consumer.
template <typename T>
class ShardQueue {
 public:
  explicit ShardQueue(size_t max_size = 0) : max_size_(max_size) {}

  /// Enqueues an item, blocking while the queue is at capacity.
  /// Returns false if the queue has been closed.
  bool Push(T item) {
    MutexLock lock(mutex_);
    while (!closed_ && max_size_ != 0 && items_.size() >= max_size_) {
      not_full_.Wait(lock);
    }
    if (closed_) return false;
    items_.push_back(std::move(item));
    not_empty_.NotifyOne();
    return true;
  }

  /// Dequeues one item, blocking while empty. Returns nullopt once the queue
  /// is closed and drained.
  std::optional<T> Pop() {
    MutexLock lock(mutex_);
    while (!closed_ && items_.empty()) {
      not_empty_.Wait(lock);
    }
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    not_full_.NotifyOne();
    return item;
  }

  /// Non-blocking dequeue.
  std::optional<T> TryPop() {
    MutexLock lock(mutex_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    not_full_.NotifyOne();
    return item;
  }

  /// Marks the queue closed; pending items can still be drained.
  void Close() {
    MutexLock lock(mutex_);
    closed_ = true;
    not_empty_.NotifyAll();
    not_full_.NotifyAll();
  }

  size_t size() const {
    MutexLock lock(mutex_);
    return items_.size();
  }

 private:
  const size_t max_size_;
  mutable Mutex mutex_;
  CondVar not_empty_;
  CondVar not_full_;
  std::deque<T> items_ GUARDED_BY(mutex_);
  bool closed_ GUARDED_BY(mutex_) = false;
};

}  // namespace cubrick
