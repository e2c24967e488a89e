// NodeEngine tests: the registry lock is never held across shard-queue
// waits, and every EngineOptions knob reaches the cluster's nodes — a
// cluster with parallel scan and parse answers bit-identically to one
// running the serial paths, and rollback_index reaches every node's tables.

#include "cubrick/node_engine.h"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <thread>

#include "cluster/cluster.h"
#include "common/random.h"
#include "cubrick/database.h"
#include "ingest/parser.h"
#include "obs/metrics.h"

namespace cubrick {
namespace {

TEST(NodeEngineTest, StatsDoNotHoldRegistryLockWhileDrainingShards) {
  DatabaseOptions options;
  options.shards_per_cube = 1;
  options.threaded_shards = true;
  Database db(options);
  ASSERT_TRUE(
      db.CreateCube("t", {{"d", 8, 2, false}}, {{"m", DataType::kInt64}})
          .ok());
  Table* table = db.FindTable("t");
  ASSERT_NE(table, nullptr);

  // Park the shard thread in a latch op so every Drain() waits on it.
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  auto latch = table->shard(0).Enqueue([&entered, released](BrickMap&) {
    entered.set_value();
    released.wait();
  });
  entered.get_future().wait();

  auto stats = std::async(std::launch::async,
                          [&db] { return db.DataMemoryUsage(); });
  // Give the stats call time to reach the shard wait.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto lookup = std::async(std::launch::async,
                           [&db] { return db.FindTable("t"); });
  const bool lookup_returned =
      lookup.wait_for(std::chrono::seconds(1)) == std::future_status::ready;

  release.set_value();
  latch.wait();
  stats.wait();
  EXPECT_TRUE(lookup_returned)
      << "FindTable blocked behind a stats call waiting on the shard queue";
  EXPECT_EQ(lookup.get(), table);
}

// --- Cluster engine knobs -------------------------------------------------

cluster::ClusterOptions FourThreadedNodes() {
  cluster::ClusterOptions options;
  options.num_nodes = 4;
  options.shards_per_cube = 2;
  options.threaded_shards = true;
  options.replication_factor = 2;
  return options;
}

Status MakeCube(cluster::Cluster& cluster) {
  return cluster.CreateCube(
      "events",
      {{"region", 64, 4, false}, {"kind", 8, 1, false},
       {"tag", 32, 4, true}},
      {{"n", DataType::kInt64}, {"x", DataType::kDouble}});
}

/// Loads the same seeded batches into `cluster` (4 * kMinMorselRecords
/// rows per load, so an ingest_parallelism of 4 parses each in 4 morsels)
/// and deletes one partition-granular region range between the loads.
void Feed(cluster::Cluster& cluster, uint64_t seed) {
  Random rng(seed);
  for (int load = 0; load < 6; ++load) {
    std::vector<Record> records;
    for (size_t r = 0; r < 4 * kMinMorselRecords; ++r) {
      // Small integral metric values keep double sums exact, so any
      // difference between the clusters is a real divergence.
      records.push_back({static_cast<int64_t>(rng.Uniform(64)),
                         static_cast<int64_t>(rng.Uniform(8)),
                         "tag" + std::to_string(rng.Uniform(32)),
                         static_cast<int64_t>(rng.Uniform(100)),
                         static_cast<double>(rng.Uniform(50))});
    }
    const uint32_t coordinator = 1 + static_cast<uint32_t>(load % 4);
    auto txn = cluster.BeginReadWrite(coordinator);
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(cluster.Append(&*txn, "events", records).ok());
    if (load == 3) {
      FilterClause region;
      region.dim = 0;
      region.op = FilterClause::Op::kRange;
      region.range_lo = 8;
      region.range_hi = 15;
      ASSERT_TRUE(cluster.DeleteWhere(&*txn, "events", {region}).ok());
    }
    ASSERT_TRUE(cluster.Commit(&*txn).ok());
  }
}

void ExpectSameResult(const QueryResult& a, const QueryResult& b) {
  ASSERT_EQ(a.num_aggs(), b.num_aggs());
  ASSERT_EQ(a.num_groups(), b.num_groups());
  for (const auto& [key, states] : a.groups()) {
    auto it = b.groups().find(key);
    ASSERT_NE(it, b.groups().end()) << "group missing";
    ASSERT_EQ(states.size(), it->second.size());
    for (size_t i = 0; i < states.size(); ++i) {
      EXPECT_EQ(states[i].sum, it->second[i].sum);
      EXPECT_EQ(states[i].count, it->second[i].count);
      EXPECT_EQ(states[i].min, it->second[i].min);
      EXPECT_EQ(states[i].max, it->second[i].max);
    }
  }
}

TEST(ClusterEngineKnobsTest, ParallelScanAndParseMatchSerialCluster) {
  cluster::ClusterOptions parallel_options = FourThreadedNodes();
  parallel_options.query_parallelism = 4;
  parallel_options.ingest_parallelism = 4;
  cluster::Cluster serial(FourThreadedNodes());
  cluster::Cluster parallel(parallel_options);
  ASSERT_TRUE(MakeCube(serial).ok());
  ASSERT_TRUE(MakeCube(parallel).ok());
  Feed(serial, 42);
  // Only a parse fan-out submits pool tasks while the clusters load.
  obs::Counter* tasks =
      obs::MetricsRegistry::Global().GetCounter("pool.tasks_total");
  const uint64_t before = tasks->Value();
  Feed(parallel, 42);
  EXPECT_GT(tasks->Value(), before);

  Query ungrouped;
  ungrouped.aggs = {{AggSpec::Fn::kSum, 0},
                    {AggSpec::Fn::kCount, 0},
                    {AggSpec::Fn::kMin, 1},
                    {AggSpec::Fn::kMax, 1}};
  Query grouped = ungrouped;
  grouped.group_by = {0, 2};
  for (const Query* q : {&ungrouped, &grouped}) {
    for (ScanMode mode :
         {ScanMode::kSnapshotIsolation, ScanMode::kReadUncommitted}) {
      for (uint32_t coordinator = 1; coordinator <= 4; ++coordinator) {
        auto expected = serial.QueryOnce(coordinator, "events", *q, mode);
        auto actual = parallel.QueryOnce(coordinator, "events", *q, mode);
        ASSERT_TRUE(expected.ok());
        ASSERT_TRUE(actual.ok());
        EXPECT_GT(expected->num_groups(), 0u);
        ExpectSameResult(*expected, *actual);
      }
    }
  }
  EXPECT_EQ(serial.TotalRecords(), parallel.TotalRecords());
}

TEST(ClusterEngineKnobsTest, RollbackIndexReachesEveryNode) {
  cluster::ClusterOptions options = FourThreadedNodes();
  options.rollback_index = true;
  cluster::Cluster cluster(options);
  ASSERT_TRUE(MakeCube(cluster).ok());
  for (uint32_t n = 1; n <= cluster.num_nodes(); ++n) {
    Table* table = cluster.node(n).FindTable("events");
    ASSERT_NE(table, nullptr);
    EXPECT_NE(table->rollback_index(), nullptr) << "node " << n;
  }

  cluster::Cluster plain(FourThreadedNodes());
  ASSERT_TRUE(MakeCube(plain).ok());
  for (uint32_t n = 1; n <= plain.num_nodes(); ++n) {
    EXPECT_EQ(plain.node(n).FindTable("events")->rollback_index(), nullptr);
  }
}

}  // namespace
}  // namespace cubrick
