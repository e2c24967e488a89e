#include "engine/shard.h"

#include "obs/metrics.h"

namespace cubrick {

namespace {

/// Last observed queue depth across all shards (last-writer-wins): a cheap
/// backpressure indicator for the ingestion pipeline.
obs::Gauge* QueueDepthGauge() {
  static obs::Gauge* g =
      obs::MetricsRegistry::Global().GetGauge("engine.shard_queue_depth");
  return g;
}
}  // namespace

Shard::Shard(std::shared_ptr<const CubeSchema> schema, bool threaded)
    : bricks_(std::move(schema)), threaded_(threaded) {
  if (threaded_) {
    consumer_ = std::thread([this] { RunLoop(); });
  }
}

Shard::~Shard() {
  if (threaded_) {
    queue_.Close();
    consumer_.join();
  }
}

std::future<void> Shard::Enqueue(std::function<void(BrickMap&)> op) {
  if (!threaded_) {
    std::promise<void> done;
    {
      MutexLock lock(inline_mutex_);
      op(bricks_);
    }
    done.set_value();
    return done.get_future();
  }
  Op item;
  item.fn = std::move(op);
  std::future<void> fut = item.done.get_future();
  if (!queue_.Push(std::move(item))) {
    // Shard shut down: surface as a broken promise rather than deadlock.
    std::promise<void> dead;
    dead.set_exception(std::make_exception_ptr(
        CheckFailure("operation enqueued on a stopped shard")));
    return dead.get_future();
  }
  QueueDepthGauge()->Set(static_cast<int64_t>(queue_.size()));
  return fut;
}

void Shard::Drain() {
  if (!threaded_) return;
  Enqueue([](BrickMap&) {}).wait();
}

size_t Shard::QueueDepth() const { return threaded_ ? queue_.size() : 0; }

void Shard::RunLoop() {
  while (auto op = queue_.Pop()) {
    QueueDepthGauge()->Set(static_cast<int64_t>(queue_.size()));
    try {
      op->fn(bricks_);
      op->done.set_value();
    } catch (...) {
      op->done.set_exception(std::current_exception());
    }
  }
}

}  // namespace cubrick
