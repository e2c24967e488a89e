// Tier-1 regression coverage driven by the SI stress harness (src/check/).
//
// The full seed sweeps run as the dedicated ctest targets check_si_single /
// check_si_cluster; here a handful of fixed seeds run inside the normal
// test binary so plain `ctest` exercises the oracle comparison end to end,
// plus a deterministic regression for the dep-blocked LCE advance
// (TxnManager::Commit racing NoteRemoteFinish/NoteRemoteDeps).

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "aosi/txn_manager.h"
#include "check/stress.h"

namespace cubrick {
namespace {

std::string Failures(const check::StressReport& report) {
  std::string all;
  for (const auto& f : report.failures) all += f + "\n";
  return all;
}

TEST(CheckStressTest, SingleNodeFixedSeeds) {
  for (uint64_t seed : {7ULL, 12ULL, 25ULL}) {
    check::StressOptions opt = check::MakeSeedConfig(seed, /*cluster=*/false);
    opt.ops_per_thread = 30;
    const check::StressReport report = check::RunSingleNodeStress(opt);
    EXPECT_TRUE(report.ok()) << Failures(report);
    EXPECT_GT(report.commits, 0u) << "seed " << seed << " did no work";
  }
}

TEST(CheckStressTest, ClusterFixedSeeds) {
  for (uint64_t seed : {2ULL, 5ULL}) {
    check::StressOptions opt = check::MakeSeedConfig(seed, /*cluster=*/true);
    opt.ops_per_thread = 20;
    const check::StressReport report = check::RunClusterStress(opt);
    EXPECT_TRUE(report.ok()) << Failures(report);
    EXPECT_GT(report.queries + report.ryw_queries, 0u);
  }
}

// Seed 2 with this configuration was the first seed to expose the
// cluster-wide LSE/purge horizon bug (an open transaction's deps-excluded
// delete was destructively applied by purge on a non-coordinator node) and
// the begin-broadcast commit race; keep it pinned as a regression. The
// configuration is spelled out because MakeSeedConfig(2) has since changed.
TEST(CheckStressTest, ClusterRegressionSeed2) {
  check::StressOptions opt;
  opt.seed = 2;
  opt.threads = 5;
  opt.ops_per_thread = 25;
  opt.engine.shards_per_cube = 3;
  opt.engine.threaded_shards = true;
  opt.num_nodes = 3;
  opt.replication_factor = 1;
  const check::StressReport report = check::RunClusterStress(opt);
  EXPECT_TRUE(report.ok()) << Failures(report);
}

// Deterministic interleaving of the dep-blocked LCE walk (txn_manager.h):
// a remote transaction finishing out of order must not drag LCE past its
// unfinished dependencies.
TEST(TxnRemoteFinishTest, DepBlockedLceAdvance) {
  aosi::TxnManager mgr(1, 2);
  const aosi::Txn local = mgr.BeginReadWrite();  // epoch 1 (node 1 of 2)
  ASSERT_EQ(local.epoch, 1u);

  // Remote epoch 2 begins (sees 1 pending), then commits first.
  aosi::EpochSet pending;
  EXPECT_TRUE(mgr.RegisterRemoteBegin(2, &pending));
  EXPECT_EQ(pending, aosi::EpochSet({1}));
  mgr.NoteRemoteDeps(2, aosi::EpochSet({1}));
  mgr.NoteRemoteFinish(2, /*committed=*/true);

  // 2 is finished but dep-blocked on 1: LCE must not move.
  EXPECT_EQ(mgr.LCE(), 0u);

  // Local commit releases the block; LCE jumps over both.
  ASSERT_TRUE(mgr.Commit(local).ok());
  EXPECT_EQ(mgr.LCE(), 2u);
}

// Hammer Commit against concurrent remote begins, finishes and deps from
// another thread and check the terminal state. Interesting under
// CUBRICK_SANITIZE=thread, where the manager's locking is race-checked.
TEST(TxnRemoteFinishTest, ConcurrentRemoteFinishes) {
  for (int round = 0; round < 20; ++round) {
    aosi::TxnManager mgr(1, 2);
    std::vector<aosi::Txn> locals;
    for (int i = 0; i < 8; ++i) locals.push_back(mgr.BeginReadWrite());

    std::thread remote([&mgr, &locals] {
      // Remote epochs 2, 4, ..., 16 each depend on the local transaction
      // begun before them; finish them out of order (newest first).
      for (int i = 7; i >= 0; --i) {
        const aosi::Epoch e = 2 * static_cast<aosi::Epoch>(i) + 2;
        // A begin the LCE walk already skipped past is refused and
        // registers nothing; its finish below is then a stale no-op.
        aosi::EpochSet pending;
        mgr.RegisterRemoteBegin(e, &pending);
        mgr.NoteRemoteDeps(e, aosi::EpochSet({locals[i].epoch}));
        mgr.NoteRemoteFinish(e, /*committed=*/true);
      }
    });
    for (auto& txn : locals) {
      ASSERT_TRUE(mgr.Commit(txn).ok());
    }
    remote.join();

    // Every transaction finished and no dependency remains: LCE must have
    // walked all the way through local and remote epochs.
    EXPECT_EQ(mgr.LCE(), 16u);
    EXPECT_GT(mgr.EC(), mgr.LCE());
    EXPECT_GE(mgr.LCE(), mgr.LSE());
  }
}

}  // namespace
}  // namespace cubrick
