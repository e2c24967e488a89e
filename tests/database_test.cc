// End-to-end tests of the single-node Database facade: DDL, implicit and
// explicit transactions, string filters, snapshot behavior and rollback.

#include "cubrick/database.h"

#include <gtest/gtest.h>

namespace cubrick {
namespace {

constexpr char kDdl[] =
    "CREATE CUBE test_cube (region string CARDINALITY 4 RANGE 2, "
    "gender string CARDINALITY 4 RANGE 1, likes int, comments int)";

cubrick::Query SumLikes() {
  cubrick::Query q;
  q.aggs = {{AggSpec::Fn::kSum, 0}, {AggSpec::Fn::kCount, 0}};
  return q;
}

TEST(DatabaseTest, DdlCreatesCube) {
  Database db;
  ASSERT_TRUE(db.ExecuteDdl(kDdl).ok());
  auto schema = db.FindSchema("test_cube");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->num_dimensions(), 2u);
  EXPECT_EQ(db.CubeNames(), (std::vector<std::string>{"test_cube"}));
  EXPECT_EQ(db.ExecuteDdl(kDdl).code(), StatusCode::kAlreadyExists);
}

TEST(DatabaseTest, ImplicitLoadAndQuery) {
  Database db;
  ASSERT_TRUE(db.ExecuteDdl(kDdl).ok());
  ASSERT_TRUE(db.Load("test_cube",
                      {{"CA", "male", 10, 1},
                       {"CA", "female", 20, 2},
                       {"NY", "male", 40, 4}})
                  .ok());
  auto result = db.Query("test_cube", SumLikes());
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->Single(0, AggSpec::Fn::kSum), 70.0);
  EXPECT_DOUBLE_EQ(result->Single(1, AggSpec::Fn::kCount), 3.0);
}

TEST(DatabaseTest, StringEqFilter) {
  Database db;
  ASSERT_TRUE(db.ExecuteDdl(kDdl).ok());
  ASSERT_TRUE(db.Load("test_cube",
                      {{"CA", "male", 10, 0},
                       {"CA", "female", 20, 0},
                       {"NY", "male", 40, 0}})
                  .ok());
  cubrick::Query q = SumLikes();
  auto filter = db.EqFilter("test_cube", "gender", "male");
  ASSERT_TRUE(filter.ok()) << filter.status().ToString();
  q.filters = {*filter};
  auto result = db.Query("test_cube", q);
  EXPECT_DOUBLE_EQ(result->Single(0, AggSpec::Fn::kSum), 50.0);
}

TEST(DatabaseTest, FilterOnUnknownStringMatchesNothing) {
  Database db;
  ASSERT_TRUE(db.ExecuteDdl(kDdl).ok());
  ASSERT_TRUE(db.Load("test_cube", {{"CA", "male", 10, 0}}).ok());
  cubrick::Query q = SumLikes();
  auto filter = db.EqFilter("test_cube", "region", "MARS");
  ASSERT_TRUE(filter.ok());
  q.filters = {*filter};
  auto result = db.Query("test_cube", q);
  EXPECT_DOUBLE_EQ(result->Single(1, AggSpec::Fn::kCount), 0.0);
}

TEST(DatabaseTest, ExplicitTransactionIsAtomicallyVisible) {
  Database db;
  ASSERT_TRUE(db.ExecuteDdl(kDdl).ok());
  aosi::Txn txn = db.Begin();
  ASSERT_TRUE(db.LoadIn(txn, "test_cube", {{"CA", "male", 1, 0}}).ok());
  ASSERT_TRUE(db.LoadIn(txn, "test_cube", {{"NY", "male", 2, 0}}).ok());

  // Invisible to implicit readers until commit.
  auto before = db.Query("test_cube", SumLikes());
  EXPECT_DOUBLE_EQ(before->Single(1, AggSpec::Fn::kCount), 0.0);
  // Visible to the transaction itself.
  auto own = db.QueryIn(txn, "test_cube", SumLikes());
  EXPECT_DOUBLE_EQ(own->Single(1, AggSpec::Fn::kCount), 2.0);

  ASSERT_TRUE(db.Commit(txn).ok());
  auto after = db.Query("test_cube", SumLikes());
  EXPECT_DOUBLE_EQ(after->Single(1, AggSpec::Fn::kCount), 2.0);
}

TEST(DatabaseTest, RollbackRemovesAllTraces) {
  Database db;
  ASSERT_TRUE(db.ExecuteDdl(kDdl).ok());
  ASSERT_TRUE(db.Load("test_cube", {{"CA", "male", 5, 0}}).ok());
  aosi::Txn txn = db.Begin();
  ASSERT_TRUE(db.LoadIn(txn, "test_cube", {{"NY", "male", 100, 0}}).ok());
  ASSERT_TRUE(db.Rollback(txn).ok());
  EXPECT_EQ(db.TotalRecords(), 1u);
  // Even read-uncommitted scans see nothing of the aborted transaction.
  auto ru = db.Query("test_cube", SumLikes(), ScanMode::kReadUncommitted);
  EXPECT_DOUBLE_EQ(ru->Single(0, AggSpec::Fn::kSum), 5.0);
}

TEST(DatabaseTest, DeletePartitionsByStringValue) {
  Database db;
  ASSERT_TRUE(db.ExecuteDdl(kDdl).ok());
  ASSERT_TRUE(db.Load("test_cube",
                      {{"CA", "male", 10, 0}, {"CA", "female", 20, 0}})
                  .ok());
  // gender has range size 1: deleting one gender value is partition
  // granular.
  auto filter = db.EqFilter("test_cube", "gender", "male");
  ASSERT_TRUE(filter.ok());
  ASSERT_TRUE(db.DeletePartitions("test_cube", {*filter}).ok());
  auto result = db.Query("test_cube", SumLikes());
  EXPECT_DOUBLE_EQ(result->Single(0, AggSpec::Fn::kSum), 20.0);
}

TEST(DatabaseTest, SubPartitionDeleteFailsAndRollsBack) {
  Database db;
  ASSERT_TRUE(db.ExecuteDdl(kDdl).ok());
  // region range size is 2: CA and NY share a range once both encoded into
  // the same range window.
  ASSERT_TRUE(db.Load("test_cube",
                      {{"CA", "male", 10, 0}, {"NY", "male", 20, 0}})
                  .ok());
  auto filter = db.EqFilter("test_cube", "region", "CA");
  ASSERT_TRUE(filter.ok());
  EXPECT_EQ(db.DeletePartitions("test_cube", {*filter}).code(),
            StatusCode::kInvalidArgument);
  // The failed delete's implicit transaction must not leak.
  EXPECT_TRUE(db.txns().PendingTxs().empty());
  auto result = db.Query("test_cube", SumLikes());
  EXPECT_DOUBLE_EQ(result->Single(0, AggSpec::Fn::kSum), 30.0);
}

TEST(DatabaseTest, SnapshotIsolationAcrossConcurrentLoaders) {
  Database db;
  ASSERT_TRUE(db.ExecuteDdl(kDdl).ok());
  aosi::Txn t1 = db.Begin();
  aosi::Txn t2 = db.Begin();
  ASSERT_TRUE(db.LoadIn(t2, "test_cube", {{"CA", "male", 2, 0}}).ok());
  ASSERT_TRUE(db.Commit(t2).ok());
  // t2 committed but t1 (older) pending: LCE stays behind, implicit
  // queries still see nothing.
  auto blind = db.Query("test_cube", SumLikes());
  EXPECT_DOUBLE_EQ(blind->Single(1, AggSpec::Fn::kCount), 0.0);
  ASSERT_TRUE(db.Commit(t1).ok());
  auto sighted = db.Query("test_cube", SumLikes());
  EXPECT_DOUBLE_EQ(sighted->Single(1, AggSpec::Fn::kCount), 1.0);
}

TEST(DatabaseTest, MaxRejectedPropagates) {
  Database db;
  ASSERT_TRUE(db.ExecuteDdl(kDdl).ok());
  ParseOptions opts;
  opts.max_rejected = 0;
  const Status status =
      db.Load("test_cube", {{"CA", "male", "bad", 0}}, opts);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(db.txns().PendingTxs().empty());
}

TEST(DatabaseTest, LoadIntoMissingCubeFails) {
  Database db;
  EXPECT_EQ(db.Load("nope", {{"x", 1}}).code(), StatusCode::kNotFound);
  EXPECT_EQ(db.Query("nope", SumLikes()).status().code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(db.txns().PendingTxs().empty());
}

TEST(DatabaseTest, GroupByStringDimensionDecodable) {
  Database db;
  ASSERT_TRUE(db.ExecuteDdl(kDdl).ok());
  ASSERT_TRUE(db.Load("test_cube",
                      {{"CA", "male", 1, 0},
                       {"NY", "male", 2, 0},
                       {"CA", "female", 4, 0}})
                  .ok());
  cubrick::Query q;
  q.group_by = {0};  // region
  q.aggs = {{AggSpec::Fn::kSum, 0}};
  auto result = db.Query("test_cube", q);
  ASSERT_TRUE(result.ok());
  auto schema = db.FindSchema("test_cube");
  std::map<std::string, double> by_region;
  for (const auto& [key, states] : result->groups()) {
    by_region[schema->dictionary(0)->Decode(key[0]).value()] =
        states[0].Finalize(AggSpec::Fn::kSum);
  }
  EXPECT_DOUBLE_EQ(by_region["CA"], 5.0);
  EXPECT_DOUBLE_EQ(by_region["NY"], 2.0);
}

TEST(DatabaseTest, PurgeAfterDeleteReclaimsMemory) {
  Database db;
  ASSERT_TRUE(db.ExecuteDdl(kDdl).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db.Load("test_cube", {{"CA", "male", i, 0}}).ok());
  }
  ASSERT_TRUE(db.DeletePartitions("test_cube", {}).ok());
  // One more transaction so LSE can pass the delete.
  ASSERT_TRUE(db.Load("test_cube", {{"NY", "female", 1, 0}}).ok());
  db.txns().TryAdvanceLSE(db.txns().LCE());
  const size_t before = db.HistoryMemoryUsage();
  PurgeStats stats = db.PurgeAll();
  EXPECT_GT(stats.records_removed, 0u);
  EXPECT_EQ(db.TotalRecords(), 1u);
  EXPECT_LE(db.HistoryMemoryUsage(), before);
}

}  // namespace
}  // namespace cubrick
