// Tests for epoch-range run extraction / replay — the replica-catch-up and
// flush building block.

#include "engine/run_extract.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "ingest/parser.h"

namespace cubrick {
namespace {

std::shared_ptr<const CubeSchema> MakeSchema() {
  return CubeSchema::Make("t",
                          {{"k", 16, 4, false}},
                          {{"v", DataType::kInt64},
                           {"w", DataType::kDouble}})
      .value();
}

EncodedBatch Rows(const CubeSchema& schema,
                  std::initializer_list<std::pair<int64_t, int64_t>> kv) {
  std::vector<Record> records;
  for (const auto& [k, v] : kv) {
    records.push_back({k, v, static_cast<double>(v) / 2});
  }
  return ParseRecords(schema, records).value().batches;
}

bool KeepAll(Bid) { return true; }

TEST(RunExtractTest, ExtractsOnlyRequestedRange) {
  auto schema = MakeSchema();
  Table table(schema, 1, false);
  ASSERT_TRUE(table.Append(2, Rows(*schema, {{0, 10}})).ok());
  ASSERT_TRUE(table.Append(4, Rows(*schema, {{0, 20}})).ok());
  ASSERT_TRUE(table.Append(6, Rows(*schema, {{0, 40}})).ok());

  auto extracted = ExtractTableRuns(&table, /*from=*/2, /*to=*/4, KeepAll);
  ASSERT_EQ(extracted.size(), 1u);
  ASSERT_EQ(extracted[0].runs.size(), 1u);
  EXPECT_EQ(extracted[0].runs[0].epoch, 4u);
  EXPECT_EQ(extracted[0].runs[0].batch.num_rows, 1u);
  EXPECT_EQ(extracted[0].runs[0].batch.metric_ints[0][0], 20);
  EXPECT_DOUBLE_EQ(extracted[0].runs[0].batch.metric_doubles[1][0], 10.0);
}

TEST(RunExtractTest, EmptyWhenNothingInRange) {
  auto schema = MakeSchema();
  Table table(schema, 1, false);
  ASSERT_TRUE(table.Append(2, Rows(*schema, {{0, 10}})).ok());
  EXPECT_TRUE(ExtractTableRuns(&table, 5, 9, KeepAll).empty());
  // 2 is exclusive.
  EXPECT_TRUE(ExtractTableRuns(&table, 2, 9, KeepAll).empty());
}

// Replica catch-up asks for the bricks it keeps: the predicate sees every
// brick once, and only the bricks it accepts come back.
TEST(RunExtractTest, ExtractsOnlyBricksThePredicateKeeps) {
  auto schema = MakeSchema();
  Table table(schema, 2, false);
  // k has RANGE 4, so keys 0, 5, 9 and 13 land in bricks 0 to 3.
  ASSERT_TRUE(
      table.Append(1, Rows(*schema, {{0, 10}, {5, 11}, {9, 12}, {13, 13}}))
          .ok());
  std::vector<Bid> asked;
  auto extracted = ExtractTableRuns(&table, 0, 9, [&](Bid bid) {
    asked.push_back(bid);
    return bid % 2 == 1;
  });
  std::sort(asked.begin(), asked.end());
  EXPECT_EQ(asked, (std::vector<Bid>{0, 1, 2, 3}));
  std::sort(extracted.begin(), extracted.end(),
            [](const auto& a, const auto& b) { return a.bid < b.bid; });
  ASSERT_EQ(extracted.size(), 2u);
  EXPECT_EQ(extracted[0].bid, 1u);
  EXPECT_EQ(extracted[1].bid, 3u);
  for (const ExtractedBrick& brick : extracted) {
    ASSERT_EQ(brick.runs.size(), 1u);
    ASSERT_EQ(brick.runs[0].batch.num_rows, 1u);
    EXPECT_EQ(brick.runs[0].batch.metric_ints[0][0],
              static_cast<int64_t>(10 + brick.bid));
  }
}

TEST(RunExtractTest, DeleteMarkersCarried) {
  auto schema = MakeSchema();
  Table table(schema, 1, false);
  ASSERT_TRUE(table.Append(1, Rows(*schema, {{0, 10}})).ok());
  ASSERT_TRUE(table.DeleteWhere(3, {}).ok());
  auto extracted = ExtractTableRuns(&table, 0, 9, KeepAll);
  ASSERT_EQ(extracted.size(), 1u);
  ASSERT_EQ(extracted[0].runs.size(), 2u);
  EXPECT_FALSE(extracted[0].runs[0].is_delete);
  EXPECT_TRUE(extracted[0].runs[1].is_delete);
  EXPECT_EQ(extracted[0].runs[1].epoch, 3u);
}

TEST(RunExtractTest, ReplayReconstructsEquivalentTable) {
  auto schema = MakeSchema();
  Table source(schema, 2, false);
  ASSERT_TRUE(source.Append(1, Rows(*schema, {{0, 1}, {5, 2}, {12, 4}})).ok());
  ASSERT_TRUE(source.DeleteWhere(2, {}).ok());
  ASSERT_TRUE(source.Append(3, Rows(*schema, {{0, 8}, {9, 16}})).ok());

  Table replica(schema, 3, false);  // different shard count is fine
  ASSERT_TRUE(
      ReplayExtracted(&replica, ExtractTableRuns(&source, 0, 99, KeepAll))
          .ok());

  aosi::Snapshot snap{10, {}};
  Query q;
  q.aggs = {{AggSpec::Fn::kSum, 0}, {AggSpec::Fn::kCount, 0}};
  auto src = source.Scan(snap, ScanMode::kSnapshotIsolation, q);
  auto dst = replica.Scan(snap, ScanMode::kSnapshotIsolation, q);
  EXPECT_DOUBLE_EQ(src.Single(0, AggSpec::Fn::kSum),
                   dst.Single(0, AggSpec::Fn::kSum));
  EXPECT_DOUBLE_EQ(src.Single(1, AggSpec::Fn::kCount),
                   dst.Single(1, AggSpec::Fn::kCount));
  EXPECT_EQ(source.TotalRecords(), replica.TotalRecords());
  // Older snapshots agree too (the delete marker's position is preserved).
  aosi::Snapshot old_snap{1, {}};
  EXPECT_DOUBLE_EQ(
      source.Scan(old_snap, ScanMode::kSnapshotIsolation, q)
          .Single(0, AggSpec::Fn::kSum),
      replica.Scan(old_snap, ScanMode::kSnapshotIsolation, q)
          .Single(0, AggSpec::Fn::kSum));
}

TEST(RunExtractTest, PerBrickPhysicalOrderPreserved) {
  auto schema = MakeSchema();
  Table source(schema, 1, false);
  // Interleave epochs so order matters: 5 then 2 (logical out-of-order).
  ASSERT_TRUE(source.Append(5, Rows(*schema, {{0, 1}})).ok());
  ASSERT_TRUE(source.Append(2, Rows(*schema, {{0, 2}})).ok());
  Table replica(schema, 1, false);
  ASSERT_TRUE(
      ReplayExtracted(&replica, ExtractTableRuns(&source, 0, 99, KeepAll))
          .ok());
  replica.Drain();
  const Brick* brick = replica.shard(0).bricks().Find(0);
  ASSERT_NE(brick, nullptr);
  EXPECT_EQ(brick->history().ToString(), "[5:0-0][2:1-1]");
}

TEST(RunExtractTest, DecodeRunIntoReusedBatchMatchesFreshBatches) {
  auto schema = MakeSchema();
  Table table(schema, 1, false);
  // Runs of 3, 1 and 2 rows: the reused batch must shrink and regrow.
  ASSERT_TRUE(table.Append(1, Rows(*schema, {{0, 1}, {1, 2}, {2, 3}})).ok());
  ASSERT_TRUE(table.Append(2, Rows(*schema, {{3, 4}})).ok());
  ASSERT_TRUE(table.Append(3, Rows(*schema, {{1, 5}, {0, 6}})).ok());
  table.Drain();
  const Brick* brick = table.shard(0).bricks().Find(0);
  ASSERT_NE(brick, nullptr);

  const auto runs = SelectBrickRuns(*brick, 0, 99);
  const ExtractedBrick fresh = ExtractBrickRuns(*brick, 0, 99);
  ASSERT_EQ(runs.size(), 3u);
  ASSERT_EQ(fresh.runs.size(), 3u);
  EncodedBatch reused(*schema);
  for (size_t r = 0; r < runs.size(); ++r) {
    DecodeRun(*brick, runs[r], &reused);
    const EncodedBatch& expected = fresh.runs[r].batch;
    EXPECT_EQ(reused.num_rows, expected.num_rows) << "run " << r;
    EXPECT_EQ(reused.dim_offsets, expected.dim_offsets) << "run " << r;
    EXPECT_EQ(reused.metric_ints, expected.metric_ints) << "run " << r;
    EXPECT_EQ(reused.metric_doubles, expected.metric_doubles) << "run " << r;
    EXPECT_EQ(reused.bids, expected.bids) << "run " << r;
    EXPECT_EQ(reused.starts, expected.starts) << "run " << r;
    EXPECT_TRUE(reused.Validate(*schema).ok()) << "run " << r;
  }
}

}  // namespace
}  // namespace cubrick
