// Record-materialization tests (paper footnote 1): row-wise reads with
// snapshot visibility, filtering, limits and dictionary decoding.

#include "query/materialize.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "cubrick/database.h"

namespace cubrick {
namespace {

constexpr char kDdl[] =
    "CREATE CUBE visits (region string CARDINALITY 8 RANGE 2, "
    "day int CARDINALITY 16 RANGE 16, hits int, score double)";

TEST(MaterializeTest, RoundTripsLoadedRecords) {
  Database db;
  ASSERT_TRUE(db.ExecuteDdl(kDdl).ok());
  ASSERT_TRUE(db.Load("visits", {{"US", 1, 10, 0.5},
                                 {"BR", 2, 20, 1.5},
                                 {"US", 3, 30, 2.5}})
                  .ok());
  auto rows = db.Select("visits", {});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 3u);
  // Collect (region, day, hits, score) tuples; order is unspecified.
  std::vector<std::string> rendered;
  for (const auto& row : *rows) {
    ASSERT_EQ(row.values.size(), 4u);
    rendered.push_back(row.values[0].as_string() + "/" +
                       row.values[1].ToString() + "/" +
                       row.values[2].ToString() + "/" +
                       row.values[3].ToString());
  }
  std::sort(rendered.begin(), rendered.end());
  EXPECT_EQ(rendered, (std::vector<std::string>{
                          "BR/2/20/1.5", "US/1/10/0.5", "US/3/30/2.5"}));
}

TEST(MaterializeTest, RespectsFilters) {
  Database db;
  ASSERT_TRUE(db.ExecuteDdl(kDdl).ok());
  ASSERT_TRUE(db.Load("visits", {{"US", 1, 10, 0.0},
                                 {"BR", 2, 20, 0.0},
                                 {"US", 3, 30, 0.0}})
                  .ok());
  cubrick::Query q;
  auto us = db.EqFilter("visits", "region", "US");
  ASSERT_TRUE(us.ok());
  q.filters = {*us};
  auto rows = db.Select("visits", q);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);
  for (const auto& row : *rows) {
    EXPECT_EQ(row.values[0].as_string(), "US");
  }
}

TEST(MaterializeTest, RespectsLimit) {
  Database db;
  ASSERT_TRUE(db.ExecuteDdl(kDdl).ok());
  std::vector<Record> records;
  for (int i = 0; i < 100; ++i) {
    records.push_back({"US", i % 16, i, 0.0});
  }
  ASSERT_TRUE(db.Load("visits", records).ok());
  MaterializeOptions options;
  options.limit = 7;
  auto rows = db.Select("visits", {}, options);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 7u);
}

TEST(MaterializeTest, RespectsSnapshot) {
  Database db;
  ASSERT_TRUE(db.ExecuteDdl(kDdl).ok());
  ASSERT_TRUE(db.Load("visits", {{"US", 1, 1, 0.0}}).ok());
  aosi::Txn pending = db.Begin();
  ASSERT_TRUE(db.LoadIn(pending, "visits", {{"BR", 2, 2, 0.0}}).ok());
  // Implicit Select runs at LCE: the pending row is invisible.
  auto rows = db.Select("visits", {});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);
  ASSERT_TRUE(db.Commit(pending).ok());
  EXPECT_EQ(db.Select("visits", {})->size(), 2u);
}

TEST(MaterializeTest, DeletedPartitionsExcluded) {
  Database db;
  ASSERT_TRUE(db.ExecuteDdl(kDdl).ok());
  ASSERT_TRUE(db.Load("visits", {{"US", 1, 1, 0.0}, {"BR", 2, 2, 0.0}}).ok());
  ASSERT_TRUE(db.DeletePartitions("visits", {}).ok());
  EXPECT_TRUE(db.Select("visits", {})->empty());
}

TEST(MaterializeTest, StringMetricDecoded) {
  Database db;
  ASSERT_TRUE(db.ExecuteDdl("CREATE CUBE logs (k int CARDINALITY 4, "
                            "msg string)")
                  .ok());
  ASSERT_TRUE(db.Load("logs", {{0, "hello"}, {1, "world"}}).ok());
  auto rows = db.Select("logs", {});
  ASSERT_TRUE(rows.ok());
  std::vector<std::string> messages;
  for (const auto& row : *rows) {
    messages.push_back(row.values[1].as_string());
  }
  std::sort(messages.begin(), messages.end());
  EXPECT_EQ(messages, (std::vector<std::string>{"hello", "world"}));
}

TEST(MaterializeTest, MissingCubeFails) {
  Database db;
  EXPECT_EQ(db.Select("nope", {}).status().code(), StatusCode::kNotFound);
}

TEST(MaterializeTest, BrickLevelApiHonorsSnapshots) {
  auto schema = CubeSchema::Make("t", {{"k", 4, 4, false}},
                                 {{"v", DataType::kInt64}})
                    .value();
  Brick brick(schema, 0);
  EncodedBatch batch(*schema);
  batch.num_rows = 2;
  batch.dim_offsets[0] = {0, 1};
  batch.metric_ints[0] = {10, 20};
  batch.ClosePartition(0);
  brick.AppendBatch(1, batch, 0);
  brick.AppendBatch(5, batch, 0);

  std::vector<MaterializedRow> rows;
  aosi::Snapshot snap{3, {}};
  const uint64_t produced = MaterializeBrick(
      brick, snap, ScanMode::kSnapshotIsolation, {}, {}, &rows);
  EXPECT_EQ(produced, 2u);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].values[1].as_int64(), 10);
  EXPECT_EQ(rows[1].values[1].as_int64(), 20);

  rows.clear();
  MaterializeBrick(brick, snap, ScanMode::kReadUncommitted, {}, {}, &rows);
  EXPECT_EQ(rows.size(), 4u);
}

}  // namespace
}  // namespace cubrick
