// Shard execution-model tests: single-writer ordering, queue semantics,
// inline vs threaded equivalence.

#include "engine/shard.h"

#include <gtest/gtest.h>

#include <atomic>

#include "aosi/epoch_vector.h"

namespace cubrick {
namespace {

std::shared_ptr<const CubeSchema> MakeSchema() {
  return CubeSchema::Make("t", {{"k", 4, 4, false}},
                          {{"v", DataType::kInt64}})
      .value();
}

TEST(ShardTest, InlineModeExecutesSynchronously) {
  Shard shard(MakeSchema(), /*threaded=*/false);
  bool ran = false;
  auto fut = shard.Enqueue([&](BrickMap&) { ran = true; });
  EXPECT_TRUE(ran);  // already executed before Enqueue returned
  fut.get();
  EXPECT_EQ(shard.QueueDepth(), 0u);
}

TEST(ShardTest, ThreadedModeAppliesInFifoOrder) {
  Shard shard(MakeSchema(), /*threaded=*/true);
  std::vector<int> order;
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 100; ++i) {
    futs.push_back(shard.Enqueue([&order, i](BrickMap&) {
      order.push_back(i);  // single consumer: no synchronization needed
    }));
  }
  for (auto& f : futs) f.get();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(ShardTest, ManyProducersSingleConsumerNoLostOps) {
  Shard shard(MakeSchema(), /*threaded=*/true);
  std::atomic<int> submitted{0};
  int applied = 0;  // written only by the shard thread
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < 250; ++i) {
        shard.Enqueue([&applied](BrickMap&) { ++applied; });
        submitted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : producers) t.join();
  shard.Drain();
  EXPECT_EQ(applied, submitted.load(std::memory_order_relaxed));
  EXPECT_EQ(applied, 1000);
}

TEST(ShardTest, OperationsSeeBrickStateOfPredecessors) {
  // The paper's guarantee: operations on a shard are applied in exactly the
  // order they were enqueued, so each op observes all prior effects.
  Shard shard(MakeSchema(), /*threaded=*/true);
  std::vector<std::future<void>> futs;
  for (uint64_t i = 1; i <= 50; ++i) {
    futs.push_back(shard.Enqueue([i](BrickMap& bricks) {
      Brick& brick = bricks.GetOrCreate(0);
      // Each op verifies the record count its predecessors produced.
      CUBRICK_CHECK(brick.num_records() == i - 1);
      EncodedBatch batch(brick.schema());
      batch.num_rows = 1;
      batch.dim_offsets[0].push_back(0);
      batch.metric_ints[0].push_back(static_cast<int64_t>(i));
      batch.ClosePartition(brick.bid());
      brick.AppendBatch(i, batch, 0);
    }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(shard.bricks().TotalRecords(), 50u);
}

TEST(ShardTest, DrainWaitsForBacklog) {
  Shard shard(MakeSchema(), /*threaded=*/true);
  std::atomic<int> done{0};
  for (int i = 0; i < 20; ++i) {
    shard.Enqueue([&done](BrickMap&) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      done.fetch_add(1, std::memory_order_relaxed);
    });
  }
  shard.Drain();
  EXPECT_EQ(done.load(std::memory_order_relaxed), 20);
}

TEST(ShardTest, DestructorDrainsPendingWork) {
  std::atomic<int> done{0};
  {
    Shard shard(MakeSchema(), /*threaded=*/true);
    for (int i = 0; i < 10; ++i) {
      shard.Enqueue([&done](BrickMap&) { done.fetch_add(1, std::memory_order_relaxed); });
    }
    // Destructor closes the queue and joins; queued ops still drain.
  }
  EXPECT_EQ(done.load(std::memory_order_relaxed), 10);
}

}  // namespace
}  // namespace cubrick
