// Distributed-cluster tests: hash ring, Lamport piggybacking (Table IV at
// the message level), the §IV-C begin/commit flow, replication, failover
// reads, LSE gating, and the SI-but-not-serializable write-skew behavior
// (§IV-B).

#include "cluster/cluster.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace cubrick::cluster {
namespace {

ClusterOptions SmallCluster(uint32_t nodes, size_t replication = 1) {
  ClusterOptions opts;
  opts.num_nodes = nodes;
  opts.shards_per_cube = 2;
  opts.threaded_shards = false;
  opts.replication_factor = replication;
  return opts;
}

Status MakeCube(Cluster& cluster) {
  return cluster.CreateCube(
      "metrics",
      {{"region", 64, 4, false}, {"kind", 8, 1, false}},
      {{"value", DataType::kInt64}});
}

std::vector<Record> Rows(std::initializer_list<std::array<int64_t, 3>> rows) {
  std::vector<Record> records;
  for (const auto& r : rows) records.push_back({r[0], r[1], r[2]});
  return records;
}

cubrick::Query SumQuery() {
  cubrick::Query q;
  q.aggs = {{AggSpec::Fn::kSum, 0}, {AggSpec::Fn::kCount, 0}};
  return q;
}

TEST(HashRingTest, DeterministicOwner) {
  HashRing ring;
  ring.AddNode(1);
  ring.AddNode(2);
  ring.AddNode(3);
  for (uint64_t key = 0; key < 100; ++key) {
    EXPECT_EQ(ring.NodeFor(key), ring.NodeFor(key));
  }
}

TEST(HashRingTest, CoversAllNodesReasonablyEvenly) {
  HashRing ring;
  for (uint32_t n = 1; n <= 4; ++n) ring.AddNode(n, 128);
  std::map<uint32_t, int> counts;
  for (uint64_t key = 0; key < 4000; ++key) {
    counts[ring.NodeFor(key)]++;
  }
  ASSERT_EQ(counts.size(), 4u);
  for (const auto& [n, c] : counts) {
    EXPECT_GT(c, 400) << "node " << n << " badly underloaded";
    EXPECT_LT(c, 2200) << "node " << n << " badly overloaded";
  }
}

TEST(HashRingTest, ReplicaSetsAreDistinct) {
  HashRing ring;
  for (uint32_t n = 1; n <= 5; ++n) ring.AddNode(n);
  for (uint64_t key = 0; key < 200; ++key) {
    auto owners = ring.NodesFor(key, 3);
    ASSERT_EQ(owners.size(), 3u);
    EXPECT_NE(owners[0], owners[1]);
    EXPECT_NE(owners[1], owners[2]);
    EXPECT_NE(owners[0], owners[2]);
    EXPECT_EQ(owners[0], ring.NodeFor(key));
    // Owners come in ring-walk order: asking for one more owner only
    // appends to the shorter answer.
    for (size_t k = 1; k <= 5; ++k) {
      const auto shorter = ring.NodesFor(key, k);
      const auto longer = ring.NodesFor(key, k + 1);
      ASSERT_EQ(shorter.size(), k);
      ASSERT_EQ(longer.size(), std::min<size_t>(k + 1, 5));
      EXPECT_TRUE(std::equal(shorter.begin(), shorter.end(), longer.begin()))
          << "key " << key << " k " << k;
    }
  }
}

TEST(HashRingTest, RemovalOnlyMovesAffectedKeys) {
  HashRing ring;
  for (uint32_t n = 1; n <= 4; ++n) ring.AddNode(n, 64);
  std::map<uint64_t, uint32_t> before;
  for (uint64_t key = 0; key < 1000; ++key) before[key] = ring.NodeFor(key);
  ring.RemoveNode(3);
  for (uint64_t key = 0; key < 1000; ++key) {
    const uint32_t now = ring.NodeFor(key);
    EXPECT_NE(now, 3u);
    if (before[key] != 3) {
      EXPECT_EQ(now, before[key]) << "key " << key
                                  << " moved although its owner survived";
    }
  }
}

TEST(HashRingTest, ReplicaCountCappedByNodeCount) {
  HashRing ring;
  ring.AddNode(1);
  ring.AddNode(2);
  EXPECT_EQ(ring.NodesFor(7, 5).size(), 2u);
}

TEST(ClusterTest, DistributedAppendAndQuery) {
  Cluster cluster(SmallCluster(3));
  ASSERT_TRUE(MakeCube(cluster).ok());

  auto txn = cluster.BeginReadWrite(1);
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(cluster
                  .Append(&*txn, "metrics",
                          Rows({{0, 0, 10}, {17, 1, 20}, {43, 2, 30},
                                {60, 3, 40}}))
                  .ok());
  ASSERT_TRUE(cluster.Commit(&*txn).ok());

  auto result = cluster.QueryOnce(2, "metrics", SumQuery());
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->Single(0, AggSpec::Fn::kSum), 100.0);
  EXPECT_DOUBLE_EQ(result->Single(1, AggSpec::Fn::kCount), 4.0);
}

TEST(ClusterTest, EpochsNeverCollideAcrossCoordinators) {
  Cluster cluster(SmallCluster(3));
  ASSERT_TRUE(MakeCube(cluster).ok());
  aosi::EpochSet seen;
  for (int round = 0; round < 10; ++round) {
    for (uint32_t c = 1; c <= 3; ++c) {
      auto txn = cluster.BeginReadWrite(c);
      ASSERT_TRUE(txn.ok());
      EXPECT_FALSE(seen.Contains(txn->txn.epoch));
      seen.Insert(txn->txn.epoch);
      ASSERT_TRUE(cluster.Commit(&*txn).ok());
    }
  }
}

TEST(ClusterTest, TableIV_BeginBroadcastAdvancesAllClocks) {
  // After T starts on node 1, every node's EC exceeds T's epoch: a
  // transaction yet to be initialized anywhere is guaranteed to be newer
  // (the 5th category of §IV-C).
  Cluster cluster(SmallCluster(3));
  ASSERT_TRUE(MakeCube(cluster).ok());
  auto txn = cluster.BeginReadWrite(1);
  ASSERT_TRUE(txn.ok());
  for (uint32_t n = 1; n <= 3; ++n) {
    EXPECT_GT(cluster.node(n).txns().EC(), txn->txn.epoch);
  }
  ASSERT_TRUE(cluster.Commit(&*txn).ok());
}

TEST(ClusterTest, PendingRemoteTransactionEntersDeps) {
  Cluster cluster(SmallCluster(3));
  ASSERT_TRUE(MakeCube(cluster).ok());
  auto t1 = cluster.BeginReadWrite(2);
  ASSERT_TRUE(t1.ok());
  auto t2 = cluster.BeginReadWrite(3);  // t1 pending on node 2
  ASSERT_TRUE(t2.ok());
  if (t1->txn.epoch < t2->txn.epoch) {
    EXPECT_TRUE(t2->txn.deps.Contains(t1->txn.epoch));
  }
  ASSERT_TRUE(cluster.Commit(&*t1).ok());
  ASSERT_TRUE(cluster.Commit(&*t2).ok());
}

TEST(ClusterTest, UncommittedWritesInvisibleEverywhere) {
  Cluster cluster(SmallCluster(3));
  ASSERT_TRUE(MakeCube(cluster).ok());
  auto writer = cluster.BeginReadWrite(1);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(
      cluster.Append(&*writer, "metrics", Rows({{5, 0, 100}})).ok());
  for (uint32_t n = 1; n <= 3; ++n) {
    auto result = cluster.QueryOnce(n, "metrics", SumQuery());
    ASSERT_TRUE(result.ok());
    EXPECT_DOUBLE_EQ(result->Single(0, AggSpec::Fn::kSum), 0.0)
        << "node " << n << " leaked uncommitted data";
  }
  ASSERT_TRUE(cluster.Commit(&*writer).ok());
  for (uint32_t n = 1; n <= 3; ++n) {
    auto result = cluster.QueryOnce(n, "metrics", SumQuery());
    EXPECT_DOUBLE_EQ(result->Single(0, AggSpec::Fn::kSum), 100.0);
  }
}

TEST(ClusterTest, ReadYourWritesWithinTransaction) {
  // §IV-C: LCE is delayed, so read-your-writes holds only inside the same
  // transaction — which must still see its own appends.
  Cluster cluster(SmallCluster(3));
  ASSERT_TRUE(MakeCube(cluster).ok());
  auto txn = cluster.BeginReadWrite(1);
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(cluster.Append(&*txn, "metrics", Rows({{1, 0, 7}})).ok());
  auto result = cluster.Query(&*txn, "metrics", SumQuery());
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->Single(0, AggSpec::Fn::kSum), 7.0);
  ASSERT_TRUE(cluster.Commit(&*txn).ok());
}

TEST(ClusterTest, SnapshotStableDespiteConcurrentCommit) {
  Cluster cluster(SmallCluster(3));
  ASSERT_TRUE(MakeCube(cluster).ok());
  auto t1 = cluster.BeginReadWrite(1);
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(cluster.Append(&*t1, "metrics", Rows({{1, 0, 5}})).ok());
  ASSERT_TRUE(cluster.Commit(&*t1).ok());

  // Reader pinned at LCE (= t1).
  auto reader = cluster.BeginReadOnly(2);
  auto t2 = cluster.BeginReadWrite(3);
  ASSERT_TRUE(t2.ok());
  ASSERT_TRUE(cluster.Append(&*t2, "metrics", Rows({{1, 0, 90}})).ok());
  ASSERT_TRUE(cluster.Commit(&*t2).ok());

  auto result = cluster.Query(&reader, "metrics", SumQuery());
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->Single(0, AggSpec::Fn::kSum), 5.0);
  cluster.EndReadOnly(&reader);
}

TEST(ClusterTest, WriteSkewAllowedUnderSI) {
  // §IV-B: two concurrent transactions where neither sees the other violate
  // serializability but not SI. Both commit; a later reader sees both.
  Cluster cluster(SmallCluster(2));
  ASSERT_TRUE(MakeCube(cluster).ok());
  auto tk = cluster.BeginReadWrite(1);
  auto tl = cluster.BeginReadWrite(2);
  ASSERT_TRUE(tk.ok() && tl.ok());
  ASSERT_TRUE(cluster.Append(&*tk, "metrics", Rows({{1, 0, 1}})).ok());
  ASSERT_TRUE(cluster.Append(&*tl, "metrics", Rows({{1, 0, 2}})).ok());

  // Neither sees the other (k < l: l has k in deps; k cannot see l by
  // timestamp order).
  auto k_view = cluster.Query(&*tk, "metrics", SumQuery());
  auto l_view = cluster.Query(&*tl, "metrics", SumQuery());
  const double k_sum = k_view->Single(0, AggSpec::Fn::kSum);
  const double l_sum = l_view->Single(0, AggSpec::Fn::kSum);
  EXPECT_DOUBLE_EQ(k_sum + l_sum, 3.0);  // each sees only its own write

  // No rollback is ever needed: both commits succeed.
  ASSERT_TRUE(cluster.Commit(&*tk).ok());
  ASSERT_TRUE(cluster.Commit(&*tl).ok());
  auto final = cluster.QueryOnce(1, "metrics", SumQuery());
  EXPECT_DOUBLE_EQ(final->Single(0, AggSpec::Fn::kSum), 3.0);
}

TEST(ClusterTest, LceDelaysVisibilityUntilOlderPendingFinish) {
  Cluster cluster(SmallCluster(2));
  ASSERT_TRUE(MakeCube(cluster).ok());
  auto t_old = cluster.BeginReadWrite(1);
  auto t_new = cluster.BeginReadWrite(2);
  ASSERT_TRUE(t_old.ok() && t_new.ok());
  ASSERT_TRUE(t_old->txn.epoch < t_new->txn.epoch);
  ASSERT_TRUE(cluster.Append(&*t_new, "metrics", Rows({{1, 0, 9}})).ok());
  ASSERT_TRUE(cluster.Commit(&*t_new).ok());

  // t_new committed, but t_old (older) still pending: no node's LCE may
  // reach t_new, so RO queries see nothing.
  auto blind = cluster.QueryOnce(2, "metrics", SumQuery());
  EXPECT_DOUBLE_EQ(blind->Single(0, AggSpec::Fn::kSum), 0.0);

  ASSERT_TRUE(cluster.Commit(&*t_old).ok());
  auto sighted = cluster.QueryOnce(2, "metrics", SumQuery());
  EXPECT_DOUBLE_EQ(sighted->Single(0, AggSpec::Fn::kSum), 9.0);
}

TEST(ClusterTest, DistributedRollbackRemovesData) {
  Cluster cluster(SmallCluster(3));
  ASSERT_TRUE(MakeCube(cluster).ok());
  auto txn = cluster.BeginReadWrite(1);
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(cluster
                  .Append(&*txn, "metrics",
                          Rows({{0, 0, 1}, {20, 1, 2}, {40, 2, 4}}))
                  .ok());
  ASSERT_TRUE(cluster.Rollback(&*txn).ok());
  EXPECT_EQ(cluster.TotalRecords(), 0u);
  auto ru = cluster.QueryOnce(1, "metrics", SumQuery(),
                              ScanMode::kReadUncommitted);
  EXPECT_DOUBLE_EQ(ru->Single(0, AggSpec::Fn::kSum), 0.0);
}

TEST(ClusterTest, DistributedDeleteIsPartitionGranular) {
  Cluster cluster(SmallCluster(2));
  ASSERT_TRUE(MakeCube(cluster).ok());
  auto load = cluster.BeginReadWrite(1);
  ASSERT_TRUE(
      cluster.Append(&*load, "metrics", Rows({{0, 0, 1}, {1, 0, 2}})).ok());
  ASSERT_TRUE(cluster.Commit(&*load).ok());

  auto bad = cluster.BeginReadWrite(1);
  // region == 0 covers half of the region range [0,3]: rejected.
  std::vector<FilterClause> sub = {{0, FilterClause::Op::kEq, {0}, 0, 0}};
  EXPECT_EQ(cluster.DeleteWhere(&*bad, "metrics", sub).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(cluster.Rollback(&*bad).ok());

  auto good = cluster.BeginReadWrite(1);
  std::vector<FilterClause> whole = {
      {0, FilterClause::Op::kRange, {}, 0, 3}};
  ASSERT_TRUE(cluster.DeleteWhere(&*good, "metrics", whole).ok());
  ASSERT_TRUE(cluster.Commit(&*good).ok());
  auto result = cluster.QueryOnce(2, "metrics", SumQuery());
  EXPECT_DOUBLE_EQ(result->Single(0, AggSpec::Fn::kSum), 0.0);
}

TEST(ClusterTest, ReplicationStoresCopies) {
  Cluster cluster(SmallCluster(3, /*replication=*/2));
  ASSERT_TRUE(MakeCube(cluster).ok());
  auto txn = cluster.BeginReadWrite(1);
  ASSERT_TRUE(
      cluster.Append(&*txn, "metrics", Rows({{0, 0, 10}, {30, 1, 20}})).ok());
  ASSERT_TRUE(cluster.Commit(&*txn).ok());
  // Two records, two copies each.
  EXPECT_EQ(cluster.TotalRecords(), 4u);
  // But queries must not double count.
  auto result = cluster.QueryOnce(1, "metrics", SumQuery());
  EXPECT_DOUBLE_EQ(result->Single(0, AggSpec::Fn::kSum), 30.0);
  EXPECT_DOUBLE_EQ(result->Single(1, AggSpec::Fn::kCount), 2.0);
}

TEST(ClusterTest, FailoverReadsFromReplica) {
  Cluster cluster(SmallCluster(3, /*replication=*/2));
  ASSERT_TRUE(MakeCube(cluster).ok());
  auto txn = cluster.BeginReadWrite(1);
  std::vector<Record> rows;
  for (int64_t r = 0; r < 64; r += 4) rows.push_back({r, 0, 1});
  ASSERT_TRUE(cluster.Append(&*txn, "metrics", rows).ok());
  ASSERT_TRUE(cluster.Commit(&*txn).ok());

  auto before = cluster.QueryOnce(1, "metrics", SumQuery());
  EXPECT_DOUBLE_EQ(before->Single(1, AggSpec::Fn::kCount), 16.0);

  // Take node 2 down; replicas on the surviving nodes answer for it.
  ASSERT_TRUE(cluster.SetNodeOnline(2, false).ok());
  auto after = cluster.QueryOnce(1, "metrics", SumQuery());
  EXPECT_DOUBLE_EQ(after->Single(1, AggSpec::Fn::kCount), 16.0);
  ASSERT_TRUE(cluster.SetNodeOnline(2, true).ok());
}

TEST(ClusterTest, QueryWithoutAnOnlineOwnerIsUnavailable) {
  Cluster cluster(SmallCluster(3));
  ASSERT_TRUE(MakeCube(cluster).ok());
  auto txn = cluster.BeginReadWrite(1);
  std::vector<Record> rows;
  for (int64_t r = 0; r < 64; ++r) rows.push_back({r, 0, 1});
  ASSERT_TRUE(cluster.Append(&*txn, "metrics", rows).ok());
  ASSERT_TRUE(cluster.Commit(&*txn).ok());

  // Without replication node 2's bricks have no other owner: a partial
  // answer would be silently wrong.
  ASSERT_TRUE(cluster.SetNodeOnline(2, false).ok());
  EXPECT_EQ(cluster.QueryOnce(1, "metrics", SumQuery()).status().code(),
            StatusCode::kUnavailable);
  ASSERT_TRUE(cluster.SetNodeOnline(2, true).ok());
  auto result = cluster.QueryOnce(1, "metrics", SumQuery());
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->Single(1, AggSpec::Fn::kCount), 64.0);
}

TEST(ClusterTest, OfflineNodeBlocksRwBegin) {
  Cluster cluster(SmallCluster(3));
  ASSERT_TRUE(MakeCube(cluster).ok());
  ASSERT_TRUE(cluster.SetNodeOnline(3, false).ok());
  auto txn = cluster.BeginReadWrite(1);
  EXPECT_EQ(txn.status().code(), StatusCode::kUnavailable);
  ASSERT_TRUE(cluster.SetNodeOnline(3, true).ok());
}

TEST(ClusterTest, LseBlockedWhileReplicaOffline) {
  Cluster cluster(SmallCluster(3, /*replication=*/2));
  ASSERT_TRUE(MakeCube(cluster).ok());
  auto t1 = cluster.BeginReadWrite(1);
  ASSERT_TRUE(cluster.Append(&*t1, "metrics", Rows({{0, 0, 1}})).ok());
  ASSERT_TRUE(cluster.Commit(&*t1).ok());
  EXPECT_GT(cluster.AdvanceClusterLSE(), 0u);

  ASSERT_TRUE(cluster.SetNodeOnline(2, false).ok());
  const aosi::Epoch stuck = cluster.AdvanceClusterLSE();
  // Bring data in while a replica is down (via a txn begun before the
  // outage is impossible here; instead verify LSE simply refuses to move).
  EXPECT_EQ(cluster.AdvanceClusterLSE(), stuck);
  ASSERT_TRUE(cluster.SetNodeOnline(2, true).ok());
}

TEST(ClusterTest, MissedCommitsRedeliveredOnRevival) {
  Cluster cluster(SmallCluster(3));
  ASSERT_TRUE(MakeCube(cluster).ok());
  auto txn = cluster.BeginReadWrite(1);
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(cluster.Append(&*txn, "metrics", Rows({{5, 0, 42}})).ok());
  // Node 3 goes dark before the commit broadcast.
  ASSERT_TRUE(cluster.SetNodeOnline(3, false).ok());
  ASSERT_TRUE(cluster.Commit(&*txn).ok());
  // Node 3's LCE is stuck...
  EXPECT_LT(cluster.node(3).txns().LCE(), txn->txn.epoch);
  // ...until revival redelivers the finish message.
  ASSERT_TRUE(cluster.SetNodeOnline(3, true).ok());
  EXPECT_GE(cluster.node(3).txns().LCE(), txn->txn.epoch);
  auto result = cluster.QueryOnce(3, "metrics", SumQuery());
  EXPECT_DOUBLE_EQ(result->Single(0, AggSpec::Fn::kSum), 42.0);
}

TEST(ClusterTest, PurgeAcrossClusterAppliesDeletes) {
  Cluster cluster(SmallCluster(2));
  ASSERT_TRUE(MakeCube(cluster).ok());
  auto load = cluster.BeginReadWrite(1);
  ASSERT_TRUE(cluster
                  .Append(&*load, "metrics",
                          Rows({{0, 0, 1}, {20, 1, 2}, {40, 2, 4}}))
                  .ok());
  ASSERT_TRUE(cluster.Commit(&*load).ok());
  auto del = cluster.BeginReadWrite(2);
  ASSERT_TRUE(cluster.DeleteWhere(&*del, "metrics", {}).ok());
  ASSERT_TRUE(cluster.Commit(&*del).ok());
  // Deletes only become purgeable once LSE passes them ("applying deletes
  // *older* than LSE"); a later committed transaction moves LCE forward.
  auto bump = cluster.BeginReadWrite(1);
  ASSERT_TRUE(bump.ok());
  ASSERT_TRUE(cluster.Commit(&*bump).ok());

  EXPECT_GT(cluster.AdvanceClusterLSE(), del->txn.epoch);
  PurgeStats stats = cluster.PurgeAll();
  EXPECT_GT(stats.records_removed, 0u);
  EXPECT_EQ(cluster.TotalRecords(), 0u);
}

TEST(ClusterTest, ImplicitRoQueriesNeedNoCoordination) {
  // RO transactions run on LCE with empty deps: no begin broadcast. We
  // can't observe message counts directly, but deps must be empty.
  Cluster cluster(SmallCluster(3));
  ASSERT_TRUE(MakeCube(cluster).ok());
  DistTxn ro = cluster.BeginReadOnly(2);
  EXPECT_TRUE(ro.txn.deps.empty());
  EXPECT_TRUE(ro.txn.read_only());
  cluster.EndReadOnly(&ro);
}

}  // namespace
}  // namespace cubrick::cluster
