// Edge-case sweep: empty structures, marker-only histories, error paths of
// the cluster API, TxnManager::AugmentDeps, and malformed queries at every
// query and delete entry point.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "aosi/purge.h"
#include "aosi/txn_manager.h"
#include "aosi/visibility.h"
#include "cluster/cluster.h"
#include "cubrick/database.h"

namespace cubrick {
namespace {

using aosi::Epoch;
using aosi::EpochSet;
using aosi::EpochVector;
using aosi::Snapshot;
using aosi::Txn;
using aosi::TxnManager;

TEST(EdgeCaseTest, EmptyEpochVector) {
  EpochVector ev;
  EXPECT_EQ(ev.ToString(), "");
  EXPECT_FALSE(aosi::PlanPurge(ev, 100).needed);
  EXPECT_FALSE(aosi::PlanRollback(ev, 1).needed);
  EXPECT_FALSE(aosi::PlanRetainUpTo(ev, 0).needed);
  Snapshot snap{5, {}};
  EXPECT_EQ(aosi::BuildVisibilityBitmap(ev, snap).size(), 0u);
}

TEST(EdgeCaseTest, MarkerOnlyHistory) {
  // A partition that was created and immediately deleted before any data
  // arrived (e.g. a delete raced ahead of a forwarded append).
  EpochVector ev;
  ev.RecordDelete(3);
  EXPECT_EQ(ev.num_records(), 0u);
  Snapshot snap{5, {}};
  EXPECT_EQ(aosi::BuildVisibilityBitmap(ev, snap).size(), 0u);
  // Purge once the marker is old: the whole history disappears.
  auto plan = aosi::PlanPurge(ev, 4);
  ASSERT_TRUE(plan.needed);
  EXPECT_EQ(plan.new_history.num_entries(), 0u);
}

TEST(EdgeCaseTest, AppendAfterLoneMarker) {
  EpochVector ev;
  ev.RecordDelete(2);
  ev.RecordAppend(5, 3);
  Snapshot sees_delete{6, {}};
  EXPECT_EQ(aosi::BuildVisibilityBitmap(ev, sees_delete).ToString(), "111");
  Snapshot before_delete{1, {}};
  EXPECT_EQ(aosi::BuildVisibilityBitmap(ev, before_delete).ToString(),
            "000");
}

TEST(EdgeCaseTest, AugmentDepsFiltersAndReregisters) {
  TxnManager tm(1, 3);  // epochs 1, 4, 7, ...
  Txn txn = tm.BeginReadWrite();
  EXPECT_EQ(txn.epoch, 1u);
  // Remote pending epochs: one older-impossible (0 is reserved), ones both
  // below and above our epoch.
  tm.ObserveClock(20);
  EpochSet remote({2, 3, 5, 17});
  // Only epochs < txn.epoch may enter deps; with epoch 1 nothing qualifies.
  tm.AugmentDeps(&txn, remote);
  EXPECT_TRUE(txn.deps.empty());
  ASSERT_TRUE(tm.Commit(txn).ok());

  Txn later = tm.BeginReadWrite();  // epoch > all of {2,3,5}
  tm.AugmentDeps(&later, EpochSet({2, 3, 5, later.epoch + 3}));
  EXPECT_EQ(later.deps, EpochSet({2, 3, 5}));
  // The horizon registered for LSE gating reflects the new deps.
  EXPECT_EQ(tm.TryAdvanceLSE(100), 1u);  // min(deps)-1 = 1
  ASSERT_TRUE(tm.Commit(later).ok());
}

TEST(EdgeCaseTest, ClusterErrorPaths) {
  cluster::ClusterOptions options;
  options.num_nodes = 2;
  cluster::Cluster cluster(options);
  ASSERT_TRUE(cluster
                  .CreateCube("c", {{"k", 4, 1, false}},
                              {{"v", DataType::kInt64}})
                  .ok());
  // Duplicate cube.
  EXPECT_EQ(cluster
                .CreateCube("c", {{"k", 4, 1, false}},
                            {{"v", DataType::kInt64}})
                .code(),
            StatusCode::kAlreadyExists);
  // Operations on missing cubes.
  auto txn = cluster.BeginReadWrite(1);
  ASSERT_TRUE(txn.ok());
  EXPECT_EQ(cluster.Append(&*txn, "nope", {{0, 1}}).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(cluster.Query(&*txn, "nope", {}).status().code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(cluster.Rollback(&*txn).ok());
  // Writes inside RO transactions.
  auto ro = cluster.BeginReadOnly(1);
  EXPECT_EQ(cluster.Append(&ro, "c", {{0, 1}}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(cluster.DeleteWhere(&ro, "c", {}).code(),
            StatusCode::kFailedPrecondition);
  cluster.EndReadOnly(&ro);
  // Bad node indexes.
  EXPECT_EQ(cluster.SetNodeOnline(0, false).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(cluster.SetNodeOnline(9, false).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(cluster.CrashNode(9).code(), StatusCode::kOutOfRange);
  // Checkpoint without a data_dir.
  EXPECT_EQ(cluster.CheckpointAll().status().code(),
            StatusCode::kFailedPrecondition);
  // DropCube then recreate with a different shape.
  ASSERT_TRUE(cluster.DropCube("c").ok());
  EXPECT_EQ(cluster.DropCube("c").code(), StatusCode::kNotFound);
  ASSERT_TRUE(cluster
                  .CreateCube("c", {{"k", 8, 2, false}},
                              {{"v", DataType::kInt64}})
                  .ok());
}

TEST(EdgeCaseTest, SingleNodeClusterDegeneratesToLocal) {
  cluster::ClusterOptions options;
  options.num_nodes = 1;
  cluster::Cluster cluster(options);
  ASSERT_TRUE(cluster
                  .CreateCube("c", {{"k", 4, 1, false}},
                              {{"v", DataType::kInt64}})
                  .ok());
  auto txn = cluster.BeginReadWrite(1);
  ASSERT_TRUE(txn.ok());
  EXPECT_EQ(txn->txn.epoch, 1u);  // stride 1, like Table I
  ASSERT_TRUE(cluster.Append(&*txn, "c", {{0, 42}}).ok());
  ASSERT_TRUE(cluster.Commit(&*txn).ok());
  Query q;
  q.aggs = {{AggSpec::Fn::kSum, 0}};
  EXPECT_DOUBLE_EQ(cluster.QueryOnce(1, "c", q)->Single(0, AggSpec::Fn::kSum),
                   42.0);
}

TEST(EdgeCaseTest, ZeroRowBatchesIgnored) {
  auto schema = CubeSchema::Make("t", {{"k", 4, 4, false}},
                                 {{"v", DataType::kInt64}})
                    .value();
  Table table(schema, 1, false);
  // An empty load and an all-rejected load both parse to an empty batch:
  // no rows, no partitions. Appending one is a no-op.
  ParseOptions opts;
  opts.max_rejected = 2;
  auto empty = ParseRecords(*schema, {});
  auto rejected = ParseRecords(*schema, {{9, 1}, {0, "x"}}, opts);
  ASSERT_TRUE(empty.ok());
  ASSERT_TRUE(rejected.ok());
  for (EncodedBatch* batch : {&empty->batches, &rejected->batches}) {
    EXPECT_EQ(batch->num_rows, 0u);
    EXPECT_EQ(batch->num_partitions(), 0u);
    EXPECT_EQ(batch->starts, std::vector<uint64_t>{0});
    ASSERT_TRUE(table.Append(1, std::move(*batch)).ok());
  }
  EXPECT_EQ(table.TotalRecords(), 0u);
  EXPECT_EQ(table.NumBricks(), 0u);  // never materialized
}

TEST(EdgeCaseTest, MalformedQueriesReturnInvalidArgument) {
  // Two dimensions and one metric; each case breaks one field of a query.
  const std::vector<DimensionDef> dims = {{"k", 4, 1, false},
                                          {"j", 8, 2, false}};
  const std::vector<MetricDef> metrics = {{"v", DataType::kInt64}};
  const std::vector<Record> rows = {{0, 0, 1}, {1, 3, 2}, {3, 7, 4}};
  Query good;
  good.group_by = {0};
  good.aggs = {{AggSpec::Fn::kSum, 0}, {AggSpec::Fn::kCount, 0}};

  const FilterClause bad_dim{2, FilterClause::Op::kEq, {0}, 0, 0};
  const FilterClause empty_eq{0, FilterClause::Op::kEq, {}, 0, 0};
  std::vector<Query> bad_queries(4, good);
  bad_queries[0].aggs = {{AggSpec::Fn::kSum, 1}};  // metric out of range
  bad_queries[1].group_by = {2};                   // group-by out of range
  bad_queries[2].filters = {bad_dim};
  bad_queries[3].filters = {empty_eq};
  // COUNT ignores its metric index, so an out-of-range one is allowed.
  Query count_only;
  count_only.aggs = {{AggSpec::Fn::kCount, 7}};

  Database db;
  ASSERT_TRUE(db.CreateCube("c", dims, metrics).ok());
  ASSERT_TRUE(db.Load("c", rows).ok());
  for (size_t i = 0; i < bad_queries.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    EXPECT_EQ(db.Query("c", bad_queries[i]).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(db.Select("c", bad_queries[i]).status().code(),
              StatusCode::kInvalidArgument);
  }
  for (const FilterClause& filter : {bad_dim, empty_eq}) {
    EXPECT_EQ(db.DeletePartitions("c", {filter}).code(),
              StatusCode::kInvalidArgument);
  }
  auto served = db.Query("c", good);
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(served->num_groups(), 3u);
  EXPECT_DOUBLE_EQ(served->Value({3}, 0, AggSpec::Fn::kSum), 4.0);
  EXPECT_DOUBLE_EQ(db.Query("c", count_only)->Single(0, AggSpec::Fn::kCount),
                   3.0);
  ASSERT_EQ(db.Select("c", good)->size(), 3u);
  ASSERT_TRUE(db.DeletePartitions("c", {{0, FilterClause::Op::kEq, {3}, 0, 0}})
                  .ok());
  EXPECT_EQ(db.Query("c", good)->num_groups(), 2u);

  cluster::ClusterOptions options;
  options.num_nodes = 2;
  cluster::Cluster cluster(options);
  ASSERT_TRUE(cluster.CreateCube("c", dims, metrics).ok());
  auto txn = cluster.BeginReadWrite(1);
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(cluster.Append(&*txn, "c", rows).ok());
  ASSERT_TRUE(cluster.Commit(&*txn).ok());
  for (size_t i = 0; i < bad_queries.size(); ++i) {
    SCOPED_TRACE("cluster query " + std::to_string(i));
    EXPECT_EQ(cluster.QueryOnce(1, "c", bad_queries[i]).status().code(),
              StatusCode::kInvalidArgument);
  }
  auto del = cluster.BeginReadWrite(2);
  ASSERT_TRUE(del.ok());
  for (const FilterClause& filter : {bad_dim, empty_eq}) {
    EXPECT_EQ(cluster.DeleteWhere(&*del, "c", {filter}).code(),
              StatusCode::kInvalidArgument);
  }
  ASSERT_TRUE(cluster.Commit(&*del).ok());
  auto cluster_served = cluster.QueryOnce(2, "c", good);
  ASSERT_TRUE(cluster_served.ok());
  EXPECT_EQ(cluster_served->num_groups(), 3u);
  EXPECT_DOUBLE_EQ(cluster_served->Value({1}, 0, AggSpec::Fn::kSum), 2.0);
}

TEST(EdgeCaseTest, EmptyRecordLoadIsANoOpTransaction) {
  Database db;
  ASSERT_TRUE(
      db.ExecuteDdl("CREATE CUBE c (k int CARDINALITY 4, v int)").ok());
  ASSERT_TRUE(db.Load("c", {}).ok());
  EXPECT_EQ(db.TotalRecords(), 0u);
  EXPECT_TRUE(db.txns().PendingTxs().empty());
}

}  // namespace
}  // namespace cubrick
