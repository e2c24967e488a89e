// Transaction-manager tests, including the paper's Table I history and the
// EC > LCE >= LSE invariant.

#include "aosi/txn_manager.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace cubrick::aosi {
namespace {

// Paper Table I: three concurrent RW transactions on a single node.
TEST(TxnManagerTest, TableI_History) {
  TxnManager tm;
  EXPECT_EQ(tm.EC(), 1u);
  EXPECT_EQ(tm.LCE(), 0u);
  EXPECT_TRUE(tm.PendingTxs().empty());

  Txn t1 = tm.BeginReadWrite();
  EXPECT_EQ(t1.epoch, 1u);
  EXPECT_TRUE(t1.deps.empty());
  EXPECT_EQ(tm.PendingTxs(), EpochSet({1}));

  Txn t2 = tm.BeginReadWrite();
  EXPECT_EQ(t2.epoch, 2u);
  EXPECT_EQ(t2.deps, EpochSet({1}));
  EXPECT_EQ(tm.PendingTxs(), EpochSet({1, 2}));

  Txn t3 = tm.BeginReadWrite();
  EXPECT_EQ(t3.epoch, 3u);
  EXPECT_EQ(t3.deps, EpochSet({1, 2}));
  EXPECT_EQ(tm.PendingTxs(), EpochSet({1, 2, 3}));
  EXPECT_EQ(tm.EC(), 4u);

  // commit T1 -> LCE advances to 1.
  ASSERT_TRUE(tm.Commit(t1).ok());
  EXPECT_EQ(tm.LCE(), 1u);
  EXPECT_EQ(tm.PendingTxs(), EpochSet({2, 3}));

  // commit T3 -> committed but NOT visible: T2 (< 3) is still pending, so
  // LCE stays at 1.
  ASSERT_TRUE(tm.Commit(t3).ok());
  EXPECT_EQ(tm.LCE(), 1u);
  EXPECT_EQ(tm.PendingTxs(), EpochSet({2}));

  // commit T2 -> all transactions <= 3 finished; LCE jumps to 3.
  ASSERT_TRUE(tm.Commit(t2).ok());
  EXPECT_EQ(tm.LCE(), 3u);
  EXPECT_TRUE(tm.PendingTxs().empty());
  EXPECT_EQ(tm.EC(), 4u);
}

TEST(TxnManagerTest, InvariantEcGreaterThanLceGeLse) {
  TxnManager tm;
  auto check = [&] {
    EXPECT_GT(tm.EC(), tm.LCE());
    EXPECT_GE(tm.LCE(), tm.LSE());
  };
  check();
  Txn t1 = tm.BeginReadWrite();
  check();
  Txn t2 = tm.BeginReadWrite();
  check();
  ASSERT_TRUE(tm.Commit(t1).ok());
  tm.TryAdvanceLSE(100);
  check();
  ASSERT_TRUE(tm.Commit(t2).ok());
  tm.TryAdvanceLSE(100);
  check();
  EXPECT_EQ(tm.LSE(), tm.LCE());
}

TEST(TxnManagerTest, ReadOnlyRunsAtLce) {
  TxnManager tm;
  Txn ro0 = tm.BeginReadOnly();
  EXPECT_EQ(ro0.epoch, 0u);
  EXPECT_TRUE(ro0.read_only());
  tm.EndReadOnly(ro0);

  Txn w = tm.BeginReadWrite();
  // Uncommitted writer: RO snapshots still see epoch 0.
  Txn ro1 = tm.BeginReadOnly();
  EXPECT_EQ(ro1.epoch, 0u);
  tm.EndReadOnly(ro1);

  ASSERT_TRUE(tm.Commit(w).ok());
  Txn ro2 = tm.BeginReadOnly();
  EXPECT_EQ(ro2.epoch, w.epoch);
  EXPECT_TRUE(ro2.deps.empty());
  tm.EndReadOnly(ro2);
}

TEST(TxnManagerTest, RollbackUnblocksLce) {
  TxnManager tm;
  Txn t1 = tm.BeginReadWrite();
  Txn t2 = tm.BeginReadWrite();
  ASSERT_TRUE(tm.Commit(t2).ok());
  EXPECT_EQ(tm.LCE(), 0u);  // blocked by pending T1
  ASSERT_TRUE(tm.Rollback(t1).ok());
  // T1 aborted: it no longer blocks, and LCE lands on T2 (the largest
  // committed epoch), not on the aborted T1.
  EXPECT_EQ(tm.LCE(), t2.epoch);
}

TEST(TxnManagerTest, LceSkipsAbortedTail) {
  TxnManager tm;
  Txn t1 = tm.BeginReadWrite();
  Txn t2 = tm.BeginReadWrite();
  ASSERT_TRUE(tm.Commit(t1).ok());
  ASSERT_TRUE(tm.Rollback(t2).ok());
  // Aborted T2 never becomes LCE.
  EXPECT_EQ(tm.LCE(), t1.epoch);
}

TEST(TxnManagerTest, DoubleCommitRejected) {
  TxnManager tm;
  Txn t = tm.BeginReadWrite();
  ASSERT_TRUE(tm.Commit(t).ok());
  EXPECT_FALSE(tm.Commit(t).ok());
  EXPECT_FALSE(tm.Rollback(t).ok());
}

TEST(TxnManagerTest, CommitOfUnknownEpochRejected) {
  TxnManager tm;
  Txn fake;
  fake.epoch = 42;
  fake.type = TxnType::kReadWrite;
  EXPECT_EQ(tm.Commit(fake).code(), StatusCode::kFailedPrecondition);
}

TEST(TxnManagerTest, DepsOnlyContainOlderPending) {
  TxnManager tm;
  Txn t1 = tm.BeginReadWrite();
  ASSERT_TRUE(tm.Commit(t1).ok());
  Txn t2 = tm.BeginReadWrite();
  // T1 committed before T2 started: not a dependency.
  EXPECT_TRUE(t2.deps.empty());
  ASSERT_TRUE(tm.Commit(t2).ok());
}

TEST(TxnManagerTest, LseClampedByLce) {
  TxnManager tm;
  Txn t1 = tm.BeginReadWrite();
  EXPECT_EQ(tm.TryAdvanceLSE(50), 0u);  // nothing committed yet
  ASSERT_TRUE(tm.Commit(t1).ok());
  EXPECT_EQ(tm.TryAdvanceLSE(50), t1.epoch);
}

TEST(TxnManagerTest, LseClampedByActiveReader) {
  TxnManager tm;
  Txn t1 = tm.BeginReadWrite();
  ASSERT_TRUE(tm.Commit(t1).ok());
  Txn t2 = tm.BeginReadWrite();
  ASSERT_TRUE(tm.Commit(t2).ok());

  // An old RO snapshot at epoch t1 pins LSE even though LCE moved to t2.
  TxnManager tm2;  // fresh manager to control the reader's snapshot epoch
  Txn a = tm2.BeginReadWrite();
  ASSERT_TRUE(tm2.Commit(a).ok());
  Txn reader = tm2.BeginReadOnly();  // snapshot at epoch a
  Txn b = tm2.BeginReadWrite();
  ASSERT_TRUE(tm2.Commit(b).ok());
  EXPECT_EQ(tm2.TryAdvanceLSE(100), a.epoch);
  tm2.EndReadOnly(reader);
  EXPECT_EQ(tm2.TryAdvanceLSE(100), b.epoch);
}

TEST(TxnManagerTest, LseClampedByWriterDeps) {
  TxnManager tm;
  Txn t1 = tm.BeginReadWrite();
  Txn t2 = tm.BeginReadWrite();  // deps = {t1}
  ASSERT_TRUE(tm.Commit(t1).ok());
  // t2 is active with a dep on t1: LSE may not reach t1 (t2 must still be
  // able to exclude it from its snapshot).
  EXPECT_EQ(tm.TryAdvanceLSE(100), t1.epoch - 1);
  ASSERT_TRUE(tm.Commit(t2).ok());
  EXPECT_EQ(tm.TryAdvanceLSE(100), t2.epoch);
}

TEST(TxnManagerTest, LseNeverRetreats) {
  TxnManager tm;
  Txn t1 = tm.BeginReadWrite();
  ASSERT_TRUE(tm.Commit(t1).ok());
  EXPECT_EQ(tm.TryAdvanceLSE(100), 1u);
  Txn ro = tm.BeginReadOnly();
  // A later smaller candidate or gating must not move LSE backwards.
  EXPECT_EQ(tm.TryAdvanceLSE(0), 1u);
  tm.EndReadOnly(ro);
}

TEST(TxnManagerTest, RemoteHorizonPinsLse) {
  // Begin-protocol phase 2: a horizon registered for a remote transaction
  // clamps this node's LSE exactly like a local snapshot's would, and
  // NoteRemoteFinish releases the pin.
  TxnManager tm(1, 2);
  Txn t1 = tm.BeginReadWrite();  // epoch 1
  ASSERT_TRUE(tm.Commit(t1).ok());
  tm.ObserveClock(8);
  Txn t9 = tm.BeginReadWrite();
  ASSERT_TRUE(tm.Commit(t9).ok());
  ASSERT_TRUE(tm.RegisterRemoteHorizon(/*epoch=*/12, /*horizon=*/t1.epoch));
  EXPECT_EQ(tm.TryAdvanceLSE(100), t1.epoch);
  tm.NoteRemoteFinish(12, /*committed=*/true);
  // The pin is gone and epoch 12 committed, so LCE (and LSE) pass it.
  EXPECT_EQ(tm.TryAdvanceLSE(100), 12u);
}

TEST(TxnManagerTest, RemoteHorizonRejectedWhenLsePassedIt) {
  // A registration that arrives after LSE already passed the horizon can
  // protect nothing (purge may have run); the coordinator must redraw.
  TxnManager tm(1, 2);
  Txn t1 = tm.BeginReadWrite();
  ASSERT_TRUE(tm.Commit(t1).ok());
  Txn t3 = tm.BeginReadWrite();
  ASSERT_TRUE(tm.Commit(t3).ok());
  EXPECT_EQ(tm.TryAdvanceLSE(100), t3.epoch);
  EXPECT_FALSE(tm.RegisterRemoteHorizon(/*epoch=*/10, /*horizon=*/t1.epoch));
  // The refused registration left no pin behind.
  EXPECT_EQ(tm.TryAdvanceLSE(100), t3.epoch);
}

TEST(TxnManagerTest, AugmentDepsFailsWhenLsePassedTheNewHorizon) {
  // The dep learned from a peer drags the horizon below an LSE advance
  // that slipped in after the epoch draw; AugmentDeps must report it so
  // the cluster layer aborts the draft.
  TxnManager tm(1, 2);
  Txn t1 = tm.BeginReadWrite();
  ASSERT_TRUE(tm.Commit(t1).ok());
  Txn t3 = tm.BeginReadWrite();
  ASSERT_TRUE(tm.Commit(t3).ok());
  EXPECT_EQ(tm.TryAdvanceLSE(100), t3.epoch);
  Txn t5 = tm.BeginReadWrite();
  // Peer reports epoch 2 (a remote transaction) as still pending: t5's
  // horizon would fall to 1, below the standing LSE.
  EXPECT_FALSE(tm.AugmentDeps(&t5, EpochSet({2})));
  ASSERT_TRUE(tm.Rollback(t5).ok());
}

TEST(TxnManagerTest, RemoteBeginBlocksLce) {
  TxnManager tm(1, 2);  // node 1 of 2: local epochs 1, 3, 5, ...
  Txn t1 = tm.BeginReadWrite();
  EXPECT_EQ(t1.epoch, 1u);
  tm.ObserveClock(2);  // learn remote node's clock
  EpochSet pending;
  EXPECT_TRUE(tm.RegisterRemoteBegin(2, &pending));
  Txn t3 = tm.BeginReadWrite();
  EXPECT_EQ(t3.epoch, 3u);
  EXPECT_EQ(t3.deps, EpochSet({1, 2}));

  ASSERT_TRUE(tm.Commit(t1).ok());
  ASSERT_TRUE(tm.Commit(t3).ok());
  // Remote epoch 2 still pending: LCE stuck at 1.
  EXPECT_EQ(tm.LCE(), 1u);
  tm.NoteRemoteFinish(2, /*committed=*/true);
  EXPECT_EQ(tm.LCE(), 3u);
}

TEST(TxnManagerTest, RemoteAbortDoesNotBecomeLce) {
  TxnManager tm(1, 2);
  Txn t1 = tm.BeginReadWrite();
  ASSERT_TRUE(tm.Commit(t1).ok());
  EpochSet pending;
  EXPECT_TRUE(tm.RegisterRemoteBegin(4, &pending));
  tm.NoteRemoteFinish(4, /*committed=*/false);
  EXPECT_EQ(tm.LCE(), 1u);
}

TEST(TxnManagerTest, RemoteFinishBeforeBeginIsHandled) {
  // Message reordering: the finish arrives before the begin broadcast.
  TxnManager tm(1, 2);
  tm.NoteRemoteFinish(2, /*committed=*/true);
  EpochSet pending;
  // The late begin is refused: it must not resurrect the txn.
  EXPECT_FALSE(tm.RegisterRemoteBegin(2, &pending));
  EXPECT_EQ(tm.LCE(), 2u);
  EXPECT_TRUE(tm.PendingTxs().empty());
}

TEST(TxnManagerTest, RemoteDepsDelayLce) {
  // Commit broadcast carries T.deps: a node that never saw T's dependency
  // pending still must not advance LCE past T until the dep finishes.
  TxnManager tm(2, 2);  // node 2: local epochs 2, 4, ...
  EpochSet pending;
  EXPECT_TRUE(tm.RegisterRemoteBegin(1, &pending));
  EXPECT_TRUE(tm.RegisterRemoteBegin(3, &pending));
  tm.NoteRemoteDeps(3, EpochSet({1}));
  tm.NoteRemoteFinish(3, /*committed=*/true);
  EXPECT_EQ(tm.LCE(), 0u);
  tm.NoteRemoteFinish(1, /*committed=*/true);
  EXPECT_EQ(tm.LCE(), 3u);
}

TEST(TxnManagerTest, ConcurrentBeginsProduceUniqueEpochs) {
  TxnManager tm;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::vector<Epoch>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Txn txn = tm.BeginReadWrite();
        seen[t].push_back(txn.epoch);
        ASSERT_TRUE(tm.Commit(txn).ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  EpochSet all;
  for (const auto& v : seen) {
    for (Epoch e : v) all.Insert(e);
  }
  EXPECT_EQ(all.size(), static_cast<size_t>(kThreads * kPerThread));
  EXPECT_EQ(tm.LCE(), all.Max());
  EXPECT_EQ(tm.NumTracked(), 0u);
}

}  // namespace
}  // namespace cubrick::aosi
