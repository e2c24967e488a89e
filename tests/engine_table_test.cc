// Table / Shard engine tests: sharded appends, scans, partition deletes,
// purge and rollback across shards, threaded and inline modes.

#include "engine/table.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "ingest/parser.h"
#include "obs/metrics.h"

namespace cubrick {
namespace {

std::shared_ptr<CubeSchema> MakeSchema() {
  return CubeSchema::Make(
             "events",
             {{"region", 16, 2, false}, {"kind", 4, 1, false}},
             {{"n", DataType::kInt64}})
      .value();
}

/// Builds parser batches for records (region, kind, n).
EncodedBatch Batches(const CubeSchema& schema,
                     const std::vector<std::array<int64_t, 3>>& rows) {
  std::vector<Record> records;
  for (const auto& r : rows) {
    records.push_back({r[0], r[1], r[2]});
  }
  auto parsed = ParseRecords(schema, records);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed->batches;
}

Query SumQuery() {
  Query q;
  q.aggs = {{AggSpec::Fn::kSum, 0}, {AggSpec::Fn::kCount, 0}};
  return q;
}

aosi::Snapshot Snap(aosi::Epoch e) { return aosi::Snapshot{e, {}}; }

class TableTest : public ::testing::TestWithParam<bool> {
 protected:
  bool threaded() const { return GetParam(); }
};

INSTANTIATE_TEST_SUITE_P(InlineAndThreaded, TableTest,
                         ::testing::Values(false, true),
                         [](const auto& info) {
                           return info.param ? "Threaded" : "Inline";
                         });

TEST_P(TableTest, AppendAndScan) {
  auto schema = MakeSchema();
  Table table(schema, 4, threaded());
  ASSERT_TRUE(table
                  .Append(1, Batches(*schema, {{0, 0, 10},
                                               {3, 1, 20},
                                               {9, 2, 30},
                                               {15, 3, 40}}))
                  .ok());
  auto result = table.Scan(Snap(1), ScanMode::kSnapshotIsolation, SumQuery());
  EXPECT_DOUBLE_EQ(result.Single(0, AggSpec::Fn::kSum), 100.0);
  EXPECT_DOUBLE_EQ(result.Single(1, AggSpec::Fn::kCount), 4.0);
  EXPECT_EQ(table.TotalRecords(), 4u);
  // region cardinality 16 range 2 and kind range 1: these 4 records land in
  // 4 distinct bricks.
  EXPECT_EQ(table.NumBricks(), 4u);
}

TEST_P(TableTest, SnapshotExcludesOtherEpochs) {
  auto schema = MakeSchema();
  Table table(schema, 2, threaded());
  ASSERT_TRUE(table.Append(1, Batches(*schema, {{0, 0, 1}})).ok());
  ASSERT_TRUE(table.Append(2, Batches(*schema, {{0, 0, 2}})).ok());
  ASSERT_TRUE(table.Append(4, Batches(*schema, {{0, 0, 4}})).ok());
  auto at2 = table.Scan(Snap(2), ScanMode::kSnapshotIsolation, SumQuery());
  EXPECT_DOUBLE_EQ(at2.Single(0, AggSpec::Fn::kSum), 3.0);
  auto ru = table.Scan(Snap(2), ScanMode::kReadUncommitted, SumQuery());
  EXPECT_DOUBLE_EQ(ru.Single(0, AggSpec::Fn::kSum), 7.0);
}

TEST_P(TableTest, DeleteWholeCube) {
  auto schema = MakeSchema();
  Table table(schema, 2, threaded());
  ASSERT_TRUE(table.Append(1, Batches(*schema, {{1, 0, 5}, {8, 2, 7}})).ok());
  ASSERT_TRUE(table.DeleteWhere(2, {}).ok());
  auto before =
      table.Scan(Snap(1), ScanMode::kSnapshotIsolation, SumQuery());
  EXPECT_DOUBLE_EQ(before.Single(0, AggSpec::Fn::kSum), 12.0);
  auto after = table.Scan(Snap(2), ScanMode::kSnapshotIsolation, SumQuery());
  EXPECT_DOUBLE_EQ(after.Single(0, AggSpec::Fn::kSum), 0.0);
}

TEST_P(TableTest, DeletePartitionGranular) {
  auto schema = MakeSchema();
  Table table(schema, 2, threaded());
  // region range size is 2: coords {0,1} are one range, {8,9} another.
  ASSERT_TRUE(table.Append(1, Batches(*schema, {{0, 0, 5},
                                                {1, 0, 6},
                                                {8, 0, 7}}))
                  .ok());
  // Delete the region range [0,1]: fully covers the first brick.
  std::vector<FilterClause> pred = {
      {0, FilterClause::Op::kRange, {}, 0, 1}};
  ASSERT_TRUE(table.DeleteWhere(2, pred).ok());
  auto result = table.Scan(Snap(2), ScanMode::kSnapshotIsolation, SumQuery());
  EXPECT_DOUBLE_EQ(result.Single(0, AggSpec::Fn::kSum), 7.0);
}

TEST_P(TableTest, SubPartitionDeleteRejected) {
  auto schema = MakeSchema();
  Table table(schema, 2, threaded());
  ASSERT_TRUE(table.Append(1, Batches(*schema, {{0, 0, 5}, {1, 0, 6}})).ok());
  // region == 0 covers only half of the materialized brick's range [0,1].
  std::vector<FilterClause> pred = {{0, FilterClause::Op::kEq, {0}, 0, 0}};
  auto status = table.DeleteWhere(2, pred);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // Nothing was marked.
  auto result = table.Scan(Snap(2), ScanMode::kSnapshotIsolation, SumQuery());
  EXPECT_DOUBLE_EQ(result.Single(0, AggSpec::Fn::kSum), 11.0);
}

TEST_P(TableTest, PurgeRecyclesHistoryAndAppliesDeletes) {
  auto schema = MakeSchema();
  Table table(schema, 2, threaded());
  ASSERT_TRUE(table.Append(1, Batches(*schema, {{0, 0, 5}})).ok());
  ASSERT_TRUE(table.Append(2, Batches(*schema, {{0, 0, 6}})).ok());
  ASSERT_TRUE(table.DeleteWhere(3, {}).ok());
  ASSERT_TRUE(table.Append(4, Batches(*schema, {{0, 0, 9}})).ok());

  PurgeStats stats = table.Purge(/*lse=*/4);
  EXPECT_EQ(stats.bricks_rewritten, 1u);
  EXPECT_EQ(stats.records_removed, 2u);
  auto result = table.Scan(Snap(5), ScanMode::kSnapshotIsolation, SumQuery());
  EXPECT_DOUBLE_EQ(result.Single(0, AggSpec::Fn::kSum), 9.0);
  EXPECT_EQ(table.TotalRecords(), 1u);
}

TEST_P(TableTest, PurgeErasesFullyDeadBricks) {
  auto schema = MakeSchema();
  Table table(schema, 2, threaded());
  ASSERT_TRUE(table.Append(1, Batches(*schema, {{0, 0, 5}, {8, 0, 6}})).ok());
  ASSERT_TRUE(table.DeleteWhere(2, {}).ok());
  PurgeStats stats = table.Purge(/*lse=*/3);
  EXPECT_EQ(stats.bricks_erased, 2u);
  EXPECT_EQ(table.NumBricks(), 0u);
  EXPECT_EQ(table.TotalRecords(), 0u);
}

TEST_P(TableTest, PurgeRunsPerBrickOpsOnlyForBricksWithWork) {
  const auto pause_samples = [] {
    return obs::MetricsRegistry::Global()
        .GetHistogram("aosi.purge.pause_us")
        ->Read()
        .count;
  };
  auto schema = MakeSchema();
  constexpr size_t kShards = 4;
  Table table(schema, kShards, threaded());
  // Eight bricks of one append run each, and a second run on brick 0 at
  // epoch 3: at LSE 3 no brick has a delete marker or two adjacent runs
  // below the LSE.
  std::vector<std::array<int64_t, 3>> rows;
  for (int64_t region = 0; region < 16; region += 2) {
    rows.push_back({region, 0, 1});
  }
  ASSERT_TRUE(table.Append(1, Batches(*schema, rows)).ok());
  ASSERT_TRUE(table.Append(3, Batches(*schema, {{0, 0, 1}})).ok());
  const size_t bricks = table.NumBricks();
  ASSERT_EQ(bricks, 8u);

  // Only each shard's first and last op run.
  uint64_t before = pause_samples();
  PurgeStats stats = table.Purge(/*lse=*/3);
  EXPECT_EQ(pause_samples() - before, 2 * kShards);
  EXPECT_EQ(stats.bricks_examined, bricks);
  EXPECT_EQ(stats.bricks_rewritten, 0u);

  // At LSE 4 brick 0's two runs merge: its plan op and its install op.
  before = pause_samples();
  stats = table.Purge(/*lse=*/4);
  EXPECT_EQ(pause_samples() - before, 2 * kShards + 2);
  EXPECT_EQ(stats.bricks_examined, bricks);
  EXPECT_EQ(stats.bricks_rewritten, 1u);
  auto result = table.Scan(Snap(4), ScanMode::kSnapshotIsolation, SumQuery());
  EXPECT_DOUBLE_EQ(result.Single(0, AggSpec::Fn::kSum), 9.0);
}

TEST_P(TableTest, RollbackRemovesVictimAcrossShards) {
  auto schema = MakeSchema();
  Table table(schema, 4, threaded());
  ASSERT_TRUE(table.Append(1, Batches(*schema, {{0, 0, 1}, {9, 1, 2}})).ok());
  ASSERT_TRUE(table.Append(2, Batches(*schema, {{0, 0, 4}, {9, 1, 8}})).ok());
  table.Rollback(2);
  auto result = table.Scan(Snap(9), ScanMode::kSnapshotIsolation, SumQuery());
  EXPECT_DOUBLE_EQ(result.Single(0, AggSpec::Fn::kSum), 3.0);
  EXPECT_EQ(table.TotalRecords(), 2u);
}

TEST_P(TableTest, GroupByAcrossBricksAndShards) {
  auto schema = MakeSchema();
  Table table(schema, 4, threaded());
  ASSERT_TRUE(table.Append(1, Batches(*schema, {{0, 1, 10},
                                                {1, 1, 20},
                                                {8, 1, 40},
                                                {8, 2, 80}}))
                  .ok());
  Query q;
  q.group_by = {1};  // by kind
  q.aggs = {{AggSpec::Fn::kSum, 0}};
  auto result = table.Scan(Snap(1), ScanMode::kSnapshotIsolation, q);
  EXPECT_EQ(result.num_groups(), 2u);
  EXPECT_DOUBLE_EQ(result.Value({1}, 0, AggSpec::Fn::kSum), 70.0);
  EXPECT_DOUBLE_EQ(result.Value({2}, 0, AggSpec::Fn::kSum), 80.0);
}

TEST_P(TableTest, HistoryOverheadTracksTransactionsNotRecords) {
  auto schema = MakeSchema();
  Table table(schema, 1, threaded());
  // One big transaction: one epochs entry regardless of record count.
  std::vector<std::array<int64_t, 3>> rows;
  for (int i = 0; i < 1000; ++i) rows.push_back({0, 0, 1});
  ASSERT_TRUE(table.Append(1, Batches(*schema, rows)).ok());
  EXPECT_EQ(table.HistoryMemoryUsage(), sizeof(aosi::EpochEntry));
  // Many small transactions: overhead grows with transactions.
  for (aosi::Epoch e = 2; e <= 11; ++e) {
    ASSERT_TRUE(table.Append(e, Batches(*schema, {{0, 0, 1}})).ok());
  }
  EXPECT_GE(table.HistoryMemoryUsage(), 11 * sizeof(aosi::EpochEntry));
}

TEST(TableShardingTest, BricksDistributeAcrossShards) {
  auto schema = MakeSchema();
  Table table(schema, 4, /*threaded=*/false);
  std::vector<std::array<int64_t, 3>> rows;
  for (int64_t region = 0; region < 16; region += 2) {
    for (int64_t kind = 0; kind < 4; ++kind) {
      rows.push_back({region, kind, 1});
    }
  }
  ASSERT_TRUE(table.Append(1, Batches(*schema, rows)).ok());
  EXPECT_EQ(table.NumBricks(), 32u);
  size_t shards_used = 0;
  for (size_t s = 0; s < table.num_shards(); ++s) {
    if (table.shard(s).bricks().size() > 0) ++shards_used;
  }
  EXPECT_EQ(shards_used, 4u);
}

TEST(TableConcurrencyTest, ParallelAppendsFromManyClients) {
  auto schema = MakeSchema();
  Table table(schema, 4, /*threaded=*/true);
  constexpr int kClients = 4;
  constexpr int kBatches = 25;
  std::atomic<uint64_t> next_epoch{1};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int b = 0; b < kBatches; ++b) {
        const aosi::Epoch e = next_epoch.fetch_add(1, std::memory_order_relaxed);
        auto batches = Batches(*schema, {{static_cast<int64_t>(e % 16), 0, 1},
                                         {static_cast<int64_t>(e % 16), 1, 1}});
        ASSERT_TRUE(table.Append(e, std::move(batches)).ok());
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(table.TotalRecords(), kClients * kBatches * 2u);
  auto result = table.Scan(Snap(1000), ScanMode::kSnapshotIsolation,
                           SumQuery());
  EXPECT_DOUBLE_EQ(result.Single(1, AggSpec::Fn::kCount),
                   kClients * kBatches * 2.0);
}

TEST(TableConcurrencyTest, StatisticsWhileAppending) {
  // Every batch materializes new bricks (a BrickMap insert, at times a
  // rehash) and grows an existing brick's columns on the shard threads,
  // while another thread polls the four statistics. Each statistic is a
  // shard op, so it never reads a brick map or column mid-mutation, and
  // each shard's count in one poll is taken after its count in the last.
  auto schema = CubeSchema::Make("wide", {{"region", 4096, 1, false}},
                                 {{"n", DataType::kInt64}})
                    .value();
  Table table(schema, 4, /*threaded=*/true);
  constexpr int64_t kBatches = 200;
  constexpr int64_t kNewBricksPerBatch = 8;
  std::atomic<bool> appending{true};
  std::thread appender([&] {
    for (int64_t b = 0; b < kBatches; ++b) {
      std::vector<Record> records = {{int64_t{0}, b}};
      for (int64_t i = 1; i <= kNewBricksPerBatch; ++i) {
        records.push_back({b * kNewBricksPerBatch + i, b});
      }
      auto parsed = ParseRecords(*schema, records);
      if (!parsed.ok() || !table
                               .Append(static_cast<aosi::Epoch>(b + 1),
                                       std::move(parsed->batches))
                               .ok()) {
        ADD_FAILURE() << "batch " << b << " failed";
        break;
      }
    }
    appending.store(false, std::memory_order_release);
  });
  uint64_t last_records = 0;
  int polls = 0;
  while (appending.load(std::memory_order_acquire)) {
    const uint64_t records = table.TotalRecords();
    EXPECT_GE(records, last_records);
    last_records = records;
    EXPECT_LE(table.NumBricks(),
              static_cast<uint64_t>(1 + kBatches * kNewBricksPerBatch));
    if (records > 0) {
      EXPECT_GT(table.DataMemoryUsage(), 0u);
      EXPECT_GT(table.HistoryMemoryUsage(), 0u);
    }
    ++polls;
  }
  appender.join();
  EXPECT_GT(polls, 0);
  EXPECT_EQ(table.TotalRecords(),
            static_cast<uint64_t>(kBatches * (kNewBricksPerBatch + 1)));
  EXPECT_EQ(table.NumBricks(),
            static_cast<uint64_t>(1 + kBatches * kNewBricksPerBatch));
}

}  // namespace
}  // namespace cubrick
