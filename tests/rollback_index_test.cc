// Tests for the optional §III-C5 rollback index and the background
// checkpoint thread (§III-D).

#include <gtest/gtest.h>

#include <filesystem>

#include "common/random.h"
#include "cubrick/database.h"
#include "engine/rollback_index.h"
#include "ingest/parser.h"

namespace cubrick {
namespace {

TEST(RollbackIndexTest, NoteTakeRoundTrip) {
  RollbackIndex index;
  index.Note(5, 10);
  index.Note(5, 11);
  index.Note(5, 10);  // duplicate collapses
  index.Note(7, 20);
  EXPECT_EQ(index.NumTrackedTxns(), 2u);
  EXPECT_EQ(index.Take(5), (std::vector<Bid>{10, 11}));
  EXPECT_EQ(index.NumTrackedTxns(), 1u);
  EXPECT_TRUE(index.Take(5).empty());  // consumed
  EXPECT_TRUE(index.Take(99).empty());
}

TEST(RollbackIndexTest, DiscardUpToTrims) {
  RollbackIndex index;
  for (aosi::Epoch e = 1; e <= 10; ++e) {
    index.Note(e, e * 100);
  }
  index.DiscardUpTo(7);
  EXPECT_EQ(index.NumTrackedTxns(), 3u);
  EXPECT_TRUE(index.Take(7).empty());
  EXPECT_EQ(index.Take(8), (std::vector<Bid>{800}));
}

TEST(RollbackIndexTest, TracksMemory) {
  RollbackIndex index;
  EXPECT_EQ(index.MemoryUsage(), 0u);
  index.Note(1, 2);
  EXPECT_GT(index.MemoryUsage(), 0u);
}

std::shared_ptr<CubeSchema> WideKeySchema() {
  return CubeSchema::Make("t", {{"k", 256, 1, false}},
                          {{"v", DataType::kInt64}})
      .value();
}

EncodedBatch RowsFor(const CubeSchema& schema,
                     std::initializer_list<int64_t> keys) {
  std::vector<Record> records;
  for (int64_t k : keys) records.push_back({k, k});
  return ParseRecords(schema, records).value().batches;
}

TEST(RollbackIndexTest, IndexedRollbackMatchesFullScan) {
  auto schema = WideKeySchema();
  Table indexed(schema, 4, false, /*rollback_index=*/true);
  Table scanned(schema, 4, false, /*rollback_index=*/false);

  for (Table* table : {&indexed, &scanned}) {
    ASSERT_TRUE(table->Append(1, RowsFor(*schema, {1, 2, 3})).ok());
    ASSERT_TRUE(table->Append(2, RowsFor(*schema, {2, 50, 99})).ok());
    ASSERT_TRUE(table->Append(3, RowsFor(*schema, {1, 200})).ok());
    table->Rollback(2);
  }
  EXPECT_EQ(indexed.TotalRecords(), scanned.TotalRecords());
  EXPECT_EQ(indexed.TotalRecords(), 5u);

  aosi::Snapshot snap{10, {}};
  Query q;
  q.aggs = {{AggSpec::Fn::kSum, 0}};
  EXPECT_DOUBLE_EQ(
      indexed.Scan(snap, ScanMode::kSnapshotIsolation, q)
          .Single(0, AggSpec::Fn::kSum),
      scanned.Scan(snap, ScanMode::kSnapshotIsolation, q)
          .Single(0, AggSpec::Fn::kSum));
}

TEST(RollbackIndexTest, IndexedRollbackVisitsOnlyTheVictimsBricks) {
  // The victim's rows in a brick the index never noted survive: the indexed
  // rollback visits only the bricks the index names, where the full scan
  // visits every brick.
  auto schema = WideKeySchema();
  for (bool threaded : {false, true}) {
    Table table(schema, 4, threaded, /*rollback_index=*/true);
    ASSERT_TRUE(table.Append(2, RowsFor(*schema, {1, 2})).ok());
    const EncodedBatch unnoted = RowsFor(*schema, {3});
    table.ApplyToBrick(unnoted.bids[0], [&](Brick& brick) {
      brick.AppendBatch(2, unnoted, 0);
    });
    table.Rollback(2);
    EXPECT_EQ(table.TotalRecords(), 1u) << "threaded " << threaded;
  }
}

TEST(RollbackIndexTest, IndexedRollbackOfDeleteMarker) {
  auto schema = WideKeySchema();
  Table table(schema, 2, false, /*rollback_index=*/true);
  ASSERT_TRUE(table.Append(1, RowsFor(*schema, {1, 2})).ok());
  ASSERT_TRUE(table.DeleteWhere(2, {}).ok());
  table.Rollback(2);
  aosi::Snapshot snap{10, {}};
  Query q;
  q.aggs = {{AggSpec::Fn::kCount, 0}};
  EXPECT_DOUBLE_EQ(table.Scan(snap, ScanMode::kSnapshotIsolation, q)
                       .Single(0, AggSpec::Fn::kCount),
                   2.0);
}

TEST(RollbackIndexTest, PurgeTrimsIndex) {
  auto schema = WideKeySchema();
  Table table(schema, 2, false, /*rollback_index=*/true);
  for (aosi::Epoch e = 1; e <= 10; ++e) {
    ASSERT_TRUE(
        table.Append(e, RowsFor(*schema, {static_cast<int64_t>(e)})).ok());
  }
  ASSERT_NE(table.rollback_index(), nullptr);
  EXPECT_EQ(table.rollback_index()->NumTrackedTxns(), 10u);
  table.Purge(/*lse=*/10);
  EXPECT_EQ(table.rollback_index()->NumTrackedTxns(), 0u);
}

TEST(RollbackIndexTest, DatabaseOptionWiresThrough) {
  DatabaseOptions options;
  options.rollback_index = true;
  Database db(options);
  ASSERT_TRUE(
      db.ExecuteDdl("CREATE CUBE c (k int CARDINALITY 64 RANGE 1, v int)")
          .ok());
  aosi::Txn txn = db.Begin();
  ASSERT_TRUE(db.LoadIn(txn, "c", {{5, 1}, {6, 2}}).ok());
  ASSERT_TRUE(db.Rollback(txn).ok());
  EXPECT_EQ(db.TotalRecords(), 0u);
  EXPECT_NE(db.FindTable("c")->rollback_index(), nullptr);
}

TEST(BackgroundFlusherTest, CheckpointsWithoutExplicitCalls) {
  namespace fs = std::filesystem;
  const auto dir = fs::temp_directory_path() / "cubrick_bg_flusher";
  fs::remove_all(dir);
  fs::create_directories(dir);

  DatabaseOptions options;
  options.data_dir = dir.string();
  options.auto_checkpoint_interval_ms = 20;
  uint64_t expected = 0;
  {
    Database db(options);
    ASSERT_TRUE(
        db.ExecuteDdl("CREATE CUBE c (k int CARDINALITY 8, v int)").ok());
    Random rng(1);
    for (int batch = 0; batch < 5; ++batch) {
      std::vector<Record> rows;
      for (int i = 0; i < 100; ++i) {
        rows.push_back({static_cast<int64_t>(rng.Uniform(8)), 1});
      }
      ASSERT_TRUE(db.Load("c", rows).ok());
      expected += 100;
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    // At least one background round must have persisted something.
    persist::FlushManager probe(dir.string(), "c");
    EXPECT_GT(probe.ManifestRounds(), 0u);
  }
  // Recover what the background flusher persisted (possibly everything).
  Database db(options);
  ASSERT_TRUE(
      db.ExecuteDdl("CREATE CUBE c (k int CARDINALITY 8, v int)").ok());
  ASSERT_TRUE(db.Recover().ok());
  EXPECT_GT(db.TotalRecords(), 0u);
  EXPECT_LE(db.TotalRecords(), expected);
  fs::remove_all(dir);
}

TEST(BackgroundFlusherTest, StopsCleanlyWhenIdle) {
  namespace fs = std::filesystem;
  const auto dir = fs::temp_directory_path() / "cubrick_bg_idle";
  fs::remove_all(dir);
  fs::create_directories(dir);
  DatabaseOptions options;
  options.data_dir = dir.string();
  options.auto_checkpoint_interval_ms = 5;
  {
    Database db(options);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    // Destructor must join the flusher without deadlock.
  }
  fs::remove_all(dir);
  SUCCEED();
}

}  // namespace
}  // namespace cubrick
