// Brick shard: single-writer execution unit (paper §V-B "Flushing").
//
// All bricks of a cube are sharded by bid. Each shard owns an input queue
// where every brick operation is placed — loads, queries, deletes, purges —
// and a single thread consumes and applies them, so no low-level locking is
// needed on the bricks. Operations are applied in exactly the order the
// transaction manager produced them.
//
// For deterministic tests and single-threaded experiments a shard can run in
// inline mode (no thread): operations execute on the calling thread.

#pragma once

#include <functional>
#include <future>
#include <memory>
#include <thread>

#include "common/mutex.h"
#include "common/shard_queue.h"
#include "storage/brick_map.h"

namespace cubrick {

class Shard {
 public:
  /// `threaded` selects the dedicated consumer thread; inline mode
  /// otherwise.
  Shard(std::shared_ptr<const CubeSchema> schema, bool threaded);
  ~Shard();

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// Enqueues an operation; the future resolves once it has been applied.
  /// In inline mode the operation runs before Enqueue returns, on the
  /// calling thread, under the shard's mutex — so concurrent callers are
  /// serialized and the single-writer invariant holds in both modes.
  std::future<void> Enqueue(std::function<void(BrickMap&)> op);

  /// Blocks until every previously enqueued operation has been applied.
  void Drain();

  /// Number of operations waiting in the queue (0 in inline mode).
  size_t QueueDepth() const;

  /// Direct access to the shard's bricks. Only safe from within an enqueued
  /// operation, or externally when the caller knows the shard is quiescent.
  BrickMap& bricks() { return bricks_; }
  const BrickMap& bricks() const { return bricks_; }

 private:
  struct Op {
    std::function<void(BrickMap&)> fn;
    std::promise<void> done;
  };

  void RunLoop();

  BrickMap bricks_;
  const bool threaded_;
  /// Serializes inline-mode callers (unused in threaded mode, where the
  /// consumer thread is the only writer).
  Mutex inline_mutex_;
  ShardQueue<Op> queue_;
  std::thread consumer_;
};

}  // namespace cubrick
