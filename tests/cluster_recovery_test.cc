// Cluster persistence and node crash/recovery tests (§III-D): checkpoint
// rounds across nodes, crash destroying a node's memory, recovery from local
// segments plus replica catch-up for data after the node's LSE.

#include <gtest/gtest.h>

#include <filesystem>

#include "cluster/cluster.h"

namespace cubrick::cluster {
namespace {

namespace fs = std::filesystem;

class ClusterRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           (std::string("cubrick_cluster_rec_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  ClusterOptions Options(uint32_t nodes, size_t rf) {
    ClusterOptions opts;
    opts.num_nodes = nodes;
    opts.replication_factor = rf;
    opts.shards_per_cube = 2;
    opts.data_dir = dir_.string();
    return opts;
  }

  static Status MakeCube(Cluster& cluster) {
    return cluster.CreateCube("m", {{"k", 64, 4, false}},
                              {{"v", DataType::kInt64}});
  }

  static Status LoadRows(Cluster& cluster, uint32_t coord, int64_t base,
                         int n) {
    auto txn = cluster.BeginReadWrite(coord);
    if (!txn.ok()) return txn.status();
    std::vector<Record> rows;
    for (int i = 0; i < n; ++i) {
      rows.push_back({(base + i) % 64, base + i});
    }
    CUBRICK_RETURN_IF_ERROR(cluster.Append(&*txn, "m", rows));
    return cluster.Commit(&*txn);
  }

  static double Count(Cluster& cluster, uint32_t coord) {
    cubrick::Query q;
    q.aggs = {{AggSpec::Fn::kCount, 0}, {AggSpec::Fn::kSum, 0}};
    auto result = cluster.QueryOnce(coord, "m", q);
    EXPECT_TRUE(result.ok());
    return result->Single(0, AggSpec::Fn::kCount);
  }

  fs::path dir_;
};

TEST_F(ClusterRecoveryTest, CheckpointAllAdvancesClusterLse) {
  Cluster cluster(Options(3, 1));
  ASSERT_TRUE(MakeCube(cluster).ok());
  ASSERT_TRUE(LoadRows(cluster, 1, 0, 20).ok());
  auto lse = cluster.CheckpointAll();
  ASSERT_TRUE(lse.ok()) << lse.status().ToString();
  EXPECT_GT(*lse, 0u);
  for (uint32_t n = 1; n <= 3; ++n) {
    EXPECT_GE(cluster.node(n).txns().LSE(), *lse);
  }
}

TEST_F(ClusterRecoveryTest, CheckpointRefusedWhileNodeOffline) {
  Cluster cluster(Options(3, 2));
  ASSERT_TRUE(MakeCube(cluster).ok());
  ASSERT_TRUE(LoadRows(cluster, 1, 0, 10).ok());
  ASSERT_TRUE(cluster.SetNodeOnline(2, false).ok());
  EXPECT_EQ(cluster.CheckpointAll().status().code(),
            StatusCode::kUnavailable);
  ASSERT_TRUE(cluster.SetNodeOnline(2, true).ok());
  EXPECT_TRUE(cluster.CheckpointAll().ok());
}

TEST_F(ClusterRecoveryTest, CrashWipesMemoryRecoveryRestoresFromDisk) {
  Cluster cluster(Options(3, 2));
  ASSERT_TRUE(MakeCube(cluster).ok());
  ASSERT_TRUE(LoadRows(cluster, 1, 0, 30).ok());
  ASSERT_TRUE(cluster.CheckpointAll().ok());
  EXPECT_DOUBLE_EQ(Count(cluster, 1), 30.0);

  const uint64_t before = cluster.node(2).TotalRecords();
  ASSERT_TRUE(cluster.CrashNode(2).ok());
  EXPECT_EQ(cluster.node(2).TotalRecords(), 0u);
  EXPECT_FALSE(cluster.node(2).online());
  // Survivors keep answering (replicas cover node 2's bricks).
  EXPECT_DOUBLE_EQ(Count(cluster, 1), 30.0);

  ASSERT_TRUE(cluster.RecoverNode(2).ok());
  EXPECT_TRUE(cluster.node(2).online());
  EXPECT_EQ(cluster.node(2).TotalRecords(), before);
  EXPECT_DOUBLE_EQ(Count(cluster, 2), 30.0);
}

TEST_F(ClusterRecoveryTest, ReplicaCatchUpSuppliesPostFlushData) {
  Cluster cluster(Options(3, 2));
  ASSERT_TRUE(MakeCube(cluster).ok());
  ASSERT_TRUE(LoadRows(cluster, 1, 0, 20).ok());
  ASSERT_TRUE(cluster.CheckpointAll().ok());
  // More data after the checkpoint: on disk nowhere, replicated in memory.
  ASSERT_TRUE(LoadRows(cluster, 2, 100, 25).ok());

  const uint64_t before = cluster.node(3).TotalRecords();
  ASSERT_TRUE(cluster.CrashNode(3).ok());
  ASSERT_TRUE(cluster.RecoverNode(3).ok());
  // Node 3 recovered its flushed data locally AND the unflushed tail from
  // replicas.
  EXPECT_EQ(cluster.node(3).TotalRecords(), before);
  EXPECT_DOUBLE_EQ(Count(cluster, 3), 45.0);

  // Its counters caught up: new transactions work cluster-wide.
  ASSERT_TRUE(LoadRows(cluster, 3, 200, 5).ok());
  EXPECT_DOUBLE_EQ(Count(cluster, 1), 50.0);
}

TEST_F(ClusterRecoveryTest, RecoveredNodeEpochsDoNotCollide) {
  Cluster cluster(Options(2, 2));
  ASSERT_TRUE(MakeCube(cluster).ok());
  ASSERT_TRUE(LoadRows(cluster, 1, 0, 5).ok());
  ASSERT_TRUE(LoadRows(cluster, 2, 10, 5).ok());
  ASSERT_TRUE(cluster.CheckpointAll().ok());
  ASSERT_TRUE(cluster.CrashNode(1).ok());
  ASSERT_TRUE(cluster.RecoverNode(1).ok());
  // The recovered node's next epoch must exceed everything committed and
  // keep its stride residue.
  const aosi::Epoch ec = cluster.node(1).txns().EC();
  EXPECT_GT(ec, cluster.node(1).txns().LCE());
  EXPECT_EQ(ec % 2, 1u);  // node 1 of 2
  auto txn = cluster.BeginReadWrite(1);
  ASSERT_TRUE(txn.ok());
  EXPECT_GT(txn->txn.epoch, cluster.node(2).txns().LCE());
  ASSERT_TRUE(cluster.Commit(&*txn).ok());
}

TEST_F(ClusterRecoveryTest, DeleteMarkersSurviveCrash) {
  Cluster cluster(Options(2, 2));
  ASSERT_TRUE(MakeCube(cluster).ok());
  ASSERT_TRUE(LoadRows(cluster, 1, 0, 10).ok());
  auto del = cluster.BeginReadWrite(1);
  ASSERT_TRUE(del.ok());
  ASSERT_TRUE(cluster.DeleteWhere(&*del, "m", {}).ok());
  ASSERT_TRUE(cluster.Commit(&*del).ok());
  ASSERT_TRUE(LoadRows(cluster, 2, 100, 3).ok());
  ASSERT_TRUE(cluster.CheckpointAll().ok());

  ASSERT_TRUE(cluster.CrashNode(2).ok());
  ASSERT_TRUE(cluster.RecoverNode(2).ok());
  EXPECT_DOUBLE_EQ(Count(cluster, 2), 3.0);
}

TEST_F(ClusterRecoveryTest, CrashWithoutAnyCheckpointRecoversFromReplicas) {
  Cluster cluster(Options(3, 2));
  ASSERT_TRUE(MakeCube(cluster).ok());
  ASSERT_TRUE(LoadRows(cluster, 1, 0, 40).ok());
  // No CheckpointAll: node 2's disk is empty.
  const uint64_t before = cluster.node(2).TotalRecords();
  ASSERT_TRUE(cluster.CrashNode(2).ok());
  ASSERT_TRUE(cluster.RecoverNode(2).ok());
  EXPECT_EQ(cluster.node(2).TotalRecords(), before);
  EXPECT_DOUBLE_EQ(Count(cluster, 2), 40.0);
}

TEST_F(ClusterRecoveryTest, RecoverOnlineNodeRejected) {
  Cluster cluster(Options(2, 1));
  ASSERT_TRUE(MakeCube(cluster).ok());
  EXPECT_EQ(cluster.RecoverNode(1).code(), StatusCode::kFailedPrecondition);
}

// A crashed node lost its tables: brought online, it would answer for its
// bricks with nothing. Only RecoverNode brings it back.
TEST_F(ClusterRecoveryTest, SetNodeOnlineRefusesACrashedNode) {
  Cluster cluster(Options(3, 2));
  ASSERT_TRUE(MakeCube(cluster).ok());
  ASSERT_TRUE(LoadRows(cluster, 1, 0, 640).ok());
  ASSERT_TRUE(cluster.CheckpointAll().ok());
  const uint64_t records = cluster.TotalRecords();

  ASSERT_TRUE(cluster.CrashNode(2).ok());
  EXPECT_EQ(cluster.SetNodeOnline(2, true).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(cluster.node(2).online());
  EXPECT_DOUBLE_EQ(Count(cluster, 1), 640.0);
  EXPECT_DOUBLE_EQ(Count(cluster, 3), 640.0);

  ASSERT_TRUE(cluster.RecoverNode(2).ok());
  EXPECT_EQ(cluster.TotalRecords(), records);
  for (uint32_t n = 1; n <= 3; ++n) EXPECT_DOUBLE_EQ(Count(cluster, n), 640.0);
  // Recovered, it goes offline and comes back like any other node.
  ASSERT_TRUE(cluster.SetNodeOnline(2, false).ok());
  EXPECT_TRUE(cluster.SetNodeOnline(2, true).ok());
}

// A node that was only set offline kept its tables: replaying its flush
// segments and its peers' runs on top of them would duplicate its rows.
TEST_F(ClusterRecoveryTest, RecoverNodeRefusesANodeThatDidNotCrash) {
  Cluster cluster(Options(3, 2));
  ASSERT_TRUE(MakeCube(cluster).ok());
  ASSERT_TRUE(LoadRows(cluster, 1, 0, 640).ok());
  ASSERT_TRUE(cluster.CheckpointAll().ok());
  const uint64_t records = cluster.TotalRecords();

  ASSERT_TRUE(cluster.SetNodeOnline(2, false).ok());
  EXPECT_EQ(cluster.RecoverNode(2).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(cluster.SetNodeOnline(2, true).ok());
  EXPECT_EQ(cluster.TotalRecords(), records);
  for (uint32_t n = 1; n <= 3; ++n) EXPECT_DOUBLE_EQ(Count(cluster, n), 640.0);
}

TEST_F(ClusterRecoveryTest, PurgeThenCrashThenRecover) {
  // History recycled by purge must still recover correctly (relabeled
  // merged epochs are committed <= LSE, hence visible to all).
  Cluster cluster(Options(2, 2));
  ASSERT_TRUE(MakeCube(cluster).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(LoadRows(cluster, 1 + (i % 2), i * 10, 4).ok());
  }
  ASSERT_TRUE(cluster.CheckpointAll().ok());
  cluster.PurgeAll();
  ASSERT_TRUE(LoadRows(cluster, 1, 90, 2).ok());

  ASSERT_TRUE(cluster.CrashNode(2).ok());
  ASSERT_TRUE(cluster.RecoverNode(2).ok());
  EXPECT_DOUBLE_EQ(Count(cluster, 2), 22.0);
  EXPECT_DOUBLE_EQ(Count(cluster, 1), 22.0);
}

}  // namespace
}  // namespace cubrick::cluster
