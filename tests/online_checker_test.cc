// Online SI checker tests (docs/CHECKING.md, "Online checking").
//
// Three layers: the SampleRing primitive (FIFO, drop-on-full, wraparound,
// concurrent push/pop), the validation logic fed with hand-crafted
// ScanObservations (one test per violation class, plus the truncation
// weakenings), and end-to-end through a Database — including the
// fault-injection test that proves the checker can actually fire: corrupt
// the visibility computation with aosi::SetSkipFirstDepFault and assert a
// stale_read is flagged on the very next sampled scan. A checker that
// never fires is indistinguishable from one that cannot fire.

#include "check/online_checker.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "aosi/checker_hook.h"
#include "aosi/fault_inject.h"
#include "aosi/txn.h"
#include "common/random.h"
#include "cubrick/database.h"

namespace cubrick::check {
namespace {

ScanSample MakeSample(uint64_t bid) {
  ScanSample s;
  s.bid = bid;
  return s;
}

TEST(SampleRingTest, FifoOrder) {
  SampleRing ring(8);
  for (uint64_t i = 0; i < 5; ++i) EXPECT_TRUE(ring.TryPush(MakeSample(i)));
  EXPECT_EQ(ring.ApproxDepth(), 5u);
  ScanSample out;
  for (uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(ring.TryPop(&out));
    EXPECT_EQ(out.bid, i);
  }
  EXPECT_FALSE(ring.TryPop(&out));
}

TEST(SampleRingTest, DropsOnFullNeverBlocks) {
  SampleRing ring(4);
  for (uint64_t i = 0; i < 4; ++i) EXPECT_TRUE(ring.TryPush(MakeSample(i)));
  EXPECT_FALSE(ring.TryPush(MakeSample(99)));  // full: drop, don't block
  ScanSample out;
  ASSERT_TRUE(ring.TryPop(&out));
  EXPECT_EQ(out.bid, 0u);  // the drop lost the newest, not the oldest
  EXPECT_TRUE(ring.TryPush(MakeSample(4)));
  for (uint64_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(ring.TryPop(&out));
    EXPECT_EQ(out.bid, i);
  }
}

TEST(SampleRingTest, WrapsAroundManyTimes) {
  SampleRing ring(4);
  ScanSample out;
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(ring.TryPush(MakeSample(i)));
    ASSERT_TRUE(ring.TryPop(&out));
    EXPECT_EQ(out.bid, i);
  }
  EXPECT_EQ(ring.ApproxDepth(), 0u);
}

TEST(SampleRingTest, CapacityRoundsUpToPowerOfTwo) {
  SampleRing ring(5);
  EXPECT_EQ(ring.capacity(), 8u);
  for (uint64_t i = 0; i < 8; ++i) EXPECT_TRUE(ring.TryPush(MakeSample(i)));
  EXPECT_FALSE(ring.TryPush(MakeSample(8)));
}

// Exercised under TSan in CI: two producers race one consumer; every
// sample is either popped or counted as a drop, none invented.
TEST(SampleRingTest, ConcurrentPushPopLosesNothing) {
  SampleRing ring(16);
  constexpr int kPerProducer = 2000;
  std::atomic<uint64_t> pushed{0};
  std::atomic<uint64_t> dropped{0};
  std::atomic<bool> done{false};
  std::atomic<uint64_t> popped{0};

  std::thread consumer([&] {
    ScanSample out;
    while (!done.load(std::memory_order_acquire) || ring.ApproxDepth() > 0) {
      if (ring.TryPop(&out)) {
        popped.fetch_add(1, std::memory_order_relaxed);
      } else {
        std::this_thread::yield();
      }
    }
    while (ring.TryPop(&out)) popped.fetch_add(1, std::memory_order_relaxed);
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        if (ring.TryPush(MakeSample(static_cast<uint64_t>(p) * 1000000 + i))) {
          pushed.fetch_add(1, std::memory_order_relaxed);
        } else {
          dropped.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  done.store(true, std::memory_order_release);
  consumer.join();

  EXPECT_EQ(pushed.load(std::memory_order_relaxed) +
                dropped.load(std::memory_order_relaxed),
            2u * kPerProducer);
  EXPECT_EQ(popped.load(std::memory_order_relaxed),
            pushed.load(std::memory_order_relaxed));
}

TEST(OnlineCheckerTest, ShouldSampleIsAPureFunctionOfTheEpoch) {
  OnlineCheckerOptions always;
  always.sample_permille = 1000;
  OnlineCheckerOptions never;
  never.sample_permille = 0;
  OnlineCheckerOptions half;
  half.sample_permille = 500;
  OnlineChecker a(half);
  OnlineChecker b(half);
  OnlineChecker on(always);
  OnlineChecker off(never);
  uint64_t sampled = 0;
  for (aosi::Epoch e = 1; e <= 2000; ++e) {
    EXPECT_TRUE(on.ShouldSample(e));
    EXPECT_FALSE(off.ShouldSample(e));
    // Two independently constructed checkers agree: the decision carries
    // no RNG state, so a replayed seed samples the same transactions.
    EXPECT_EQ(a.ShouldSample(e), b.ShouldSample(e));
    if (a.ShouldSample(e)) ++sampled;
  }
  EXPECT_GT(sampled, 300u);
  EXPECT_LT(sampled, 1700u);
}

/// Harness for feeding hand-crafted observations through the validator.
class CraftedObservationTest : public ::testing::Test {
 protected:
  CraftedObservationTest() {
    checker_ = std::make_unique<OnlineChecker>();
  }

  /// One observation of `runs` under snapshot {epoch, deps}; visible_total
  /// defaults to the sum of the runs' visible_rows.
  void Observe(aosi::Epoch epoch, std::vector<aosi::Epoch> deps,
               const std::vector<aosi::ObservedRun>& runs,
               uint64_t history_version = 1, bool runs_truncated = false,
               int64_t visible_total = -1) {
    aosi::EpochSet dep_set{std::move(deps)};
    uint64_t total = 0;
    if (visible_total < 0) {
      for (const auto& r : runs) total += r.visible_rows;
    } else {
      total = static_cast<uint64_t>(visible_total);
    }
    aosi::ScanObservation obs;
    obs.snapshot_epoch = epoch;
    obs.deps = &dep_set;
    obs.bid = 1;
    obs.history_version = history_version;
    obs.runs = runs.data();
    obs.num_runs = runs.size();
    obs.runs_truncated = runs_truncated;
    obs.visible_total = total;
    checker_->OnScanObservation(obs);
    checker_->DrainForTest();
  }

  std::vector<ViolationRecord::Kind> Kinds() const {
    std::vector<ViolationRecord::Kind> kinds;
    for (const auto& v : checker_->Violations()) kinds.push_back(v.kind);
    return kinds;
  }

  std::unique_ptr<OnlineChecker> checker_;
};

aosi::ObservedRun Append(aosi::Epoch e, uint64_t begin, uint64_t end,
                         uint64_t visible) {
  return {e, begin, end, /*is_delete=*/false, visible};
}

aosi::ObservedRun Delete(aosi::Epoch e, uint64_t point) {
  return {e, point, point, /*is_delete=*/true, 0};
}

TEST_F(CraftedObservationTest, CleanObservationPasses) {
  // Epoch 5 is in-snapshot and fully visible; epoch 12 is after the
  // snapshot and correctly contributed nothing.
  Observe(10, {}, {Append(5, 0, 10, 10), Append(12, 10, 14, 0)});
  EXPECT_EQ(checker_->ViolationCount(), 0u);
}

TEST_F(CraftedObservationTest, RunAfterSnapshotFlagsStaleRead) {
  Observe(10, {}, {Append(12, 0, 8, 3)});
  ASSERT_EQ(checker_->ViolationCount(), 1u);
  EXPECT_EQ(Kinds()[0], ViolationRecord::Kind::kStaleRead);
}

TEST_F(CraftedObservationTest, UncommittedDependencyFlagsStaleRead) {
  // Epoch 7 is in the deps set — pending when the snapshot began — so any
  // contributed row is exactly the anomaly the deps set exists to prevent.
  Observe(10, {7}, {Append(7, 0, 5, 5)});
  ASSERT_EQ(checker_->ViolationCount(), 1u);
  EXPECT_EQ(Kinds()[0], ViolationRecord::Kind::kStaleRead);
}

TEST_F(CraftedObservationTest, UnderCountFlagsMissingVisible) {
  Observe(10, {}, {Append(5, 0, 10, 6)});
  ASSERT_EQ(checker_->ViolationCount(), 1u);
  EXPECT_EQ(Kinds()[0], ViolationRecord::Kind::kMissingVisible);
}

TEST_F(CraftedObservationTest, TruncatedRunListWeakensMissingVisibleOnly) {
  // With a truncated run list a delete marker may be missing from the
  // copy, so under-counts are not judged — but over-counts still are.
  Observe(10, {}, {Append(5, 0, 10, 6)}, 1, /*runs_truncated=*/true);
  EXPECT_EQ(checker_->ViolationCount(), 0u);
  Observe(10, {}, {Append(12, 0, 8, 3)}, 2, /*runs_truncated=*/true);
  ASSERT_EQ(checker_->ViolationCount(), 1u);
  EXPECT_EQ(Kinds()[0], ViolationRecord::Kind::kStaleRead);
}

TEST_F(CraftedObservationTest, VisibleDeleteWipesEarlierRuns) {
  // Delete by epoch 6 is visible at snapshot 10, so epoch 3's run must
  // contribute nothing (ApplyDeleteCleanup frontier) — 0 rows is clean...
  Observe(10, {}, {Append(3, 0, 10, 0), Delete(6, 10)});
  EXPECT_EQ(checker_->ViolationCount(), 0u);
  // ...and any surviving row is a stale read.
  Observe(10, {}, {Append(3, 0, 10, 2), Delete(6, 10)}, 2);
  ASSERT_EQ(checker_->ViolationCount(), 1u);
  EXPECT_EQ(Kinds()[0], ViolationRecord::Kind::kStaleRead);
}

TEST_F(CraftedObservationTest, InvisibleDeleteDoesNotWipe) {
  // The deleting epoch is in deps (uncommitted): the full run stays
  // visible, and an under-count is missing_visible.
  Observe(10, {6}, {Append(3, 0, 10, 10), Delete(6, 10)});
  EXPECT_EQ(checker_->ViolationCount(), 0u);
  Observe(10, {6}, {Append(3, 0, 10, 0), Delete(6, 10)}, 2);
  ASSERT_EQ(checker_->ViolationCount(), 1u);
  EXPECT_EQ(Kinds()[0], ViolationRecord::Kind::kMissingVisible);
}

TEST_F(CraftedObservationTest, DivergingTotalsFlagNonRepeatable) {
  Observe(10, {}, {Append(5, 0, 10, 10)});
  EXPECT_EQ(checker_->ViolationCount(), 0u);
  // Same (snapshot, brick, history version), different total: the second
  // read of the same snapshot saw different data.
  Observe(10, {}, {Append(5, 0, 10, 10)}, 1, false, /*visible_total=*/7);
  ASSERT_GE(checker_->ViolationCount(), 1u);
  const auto kinds = Kinds();
  EXPECT_NE(std::find(kinds.begin(), kinds.end(),
                      ViolationRecord::Kind::kNonRepeatable),
            kinds.end());
}

TEST_F(CraftedObservationTest, NewHistoryVersionIsNotNonRepeatable) {
  Observe(10, {}, {Append(5, 0, 10, 10)}, /*history_version=*/1);
  Observe(10, {}, {Append(5, 0, 14, 14)}, /*history_version=*/2);
  EXPECT_EQ(checker_->ViolationCount(), 0u);
}

TEST(OnlineCheckerLifecycleTest, LseAdvancePastLiveHorizonIsLostHorizon) {
  OnlineChecker checker;
  aosi::Txn txn;
  txn.epoch = 10;
  txn.type = aosi::TxnType::kReadWrite;
  txn.deps = aosi::EpochSet{{7}};  // horizon = min(7 - 1, 10) = 6
  checker.OnBegin(txn);
  checker.OnLseAdvance(6);  // at the horizon: fine
  EXPECT_EQ(checker.ViolationCount(), 0u);
  checker.OnLseAdvance(7);  // past it: purge may destroy needed history
  ASSERT_EQ(checker.ViolationCount(), 1u);
  EXPECT_EQ(checker.Violations()[0].kind,
            ViolationRecord::Kind::kLostHorizon);
  checker.OnFinish(txn, true);
  checker.OnLseAdvance(9);  // txn gone: no new violation
  EXPECT_EQ(checker.ViolationCount(), 1u);
}

TEST(OnlineCheckerLifecycleTest, RepublishedLseIsJudgedOnlyOnce) {
  OnlineChecker checker;
  // LSE stands at 20 before the snapshot exists.
  checker.OnLseAdvance(20);
  aosi::Txn txn;
  txn.epoch = 30;
  txn.type = aosi::TxnType::kReadWrite;
  txn.deps = aosi::EpochSet{{25}};  // horizon 24: above the standing LSE
  checker.OnBegin(txn);
  // Maintenance republishes the same LSE every round: not a new advance,
  // not a violation — the snapshot began after the LSE already stood at 20.
  checker.OnLseAdvance(20);
  checker.OnLseAdvance(20);
  EXPECT_EQ(checker.ViolationCount(), 0u);
  // A genuinely new advance past the horizon is one violation.
  checker.OnLseAdvance(25);
  EXPECT_EQ(checker.ViolationCount(), 1u);
}

TEST(OnlineCheckerLifecycleTest, StaleDraftDepDoesNotPinTheHorizon) {
  OnlineChecker checker;
  checker.OnLseAdvance(20);
  // A dep at epoch 5 — below the standing LSE — can only be a stale draft
  // from a desynced coordinator clock: it aborts having written nothing,
  // so it must not drag the snapshot's effective horizon under the LSE.
  aosi::Txn txn;
  txn.epoch = 30;
  txn.type = aosi::TxnType::kReadWrite;
  txn.deps = aosi::EpochSet{{5, 25}};
  checker.OnBegin(txn);
  checker.OnLseAdvance(22);  // within the live horizon (24): clean
  EXPECT_EQ(checker.ViolationCount(), 0u);
  checker.OnLseAdvance(27);  // past the live dep's pin: violation
  EXPECT_EQ(checker.ViolationCount(), 1u);
}

// --- End-to-end through a Database ----------------------------------------

std::vector<Record> Rows(Random* rng, int n) {
  std::vector<Record> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back({static_cast<int64_t>(rng->Uniform(4)),
                    static_cast<int64_t>(rng->Uniform(100))});
  }
  return rows;
}

cubrick::Query SumQuery() {
  cubrick::Query q;
  q.group_by = {0};
  q.aggs = {{AggSpec::Fn::kSum, 0}, {AggSpec::Fn::kCount, 0}};
  return q;
}

/// Restores the fault knob even when an assertion aborts the test body.
struct FaultGuard {
  ~FaultGuard() { aosi::SetSkipFirstDepFault(false); }
};

TEST(OnlineCheckerFaultInjectionTest, SkipFirstDepFaultIsDetected) {
  FaultGuard guard;
  DatabaseOptions opt;
  opt.online_check = true;
  Database db(opt);
  ASSERT_TRUE(db.CreateCube("t", {{"d", 4, 1, false}},
                            {{"v", DataType::kInt64}})
                  .ok());
  Random rng(42);
  ASSERT_TRUE(db.Load("t", Rows(&rng, 64)).ok());

  // A pending writer, then a reader whose deps pin it out of view.
  aosi::Txn pending = db.Begin();
  ASSERT_TRUE(db.LoadIn(pending, "t", Rows(&rng, 32)).ok());
  aosi::Txn reader = db.Begin();
  ASSERT_TRUE(reader.deps.Contains(pending.epoch));

  // Control: with the visibility computation intact, the sampled scan
  // validates clean.
  ASSERT_TRUE(db.QueryIn(reader, "t", SumQuery()).ok());
  db.online_checker()->DrainForTest();
  EXPECT_EQ(db.online_checker()->ViolationCount(), 0u);

  // A committed load bumps every brick's history version, so the faulty
  // scan below is not checked as a repeat of the control's; its rows are
  // newer than the reader, so they stay out of view either way.
  ASSERT_TRUE(db.Load("t", Rows(&rng, 64)).ok());

  // Inject: the snapshot "forgets" to exclude its first dependency, which
  // is exactly a stale read of pending's uncommitted rows. Detection is
  // immediate — the very next sampled scan of the corrupted brick.
  aosi::SetSkipFirstDepFault(true);
  ASSERT_TRUE(db.QueryIn(reader, "t", SumQuery()).ok());
  aosi::SetSkipFirstDepFault(false);
  db.online_checker()->DrainForTest();
  ASSERT_GT(db.online_checker()->ViolationCount(), 0u);
  const auto violations = db.online_checker()->Violations();
  bool saw_stale_read = false;
  for (const auto& v : violations) {
    if (v.kind == ViolationRecord::Kind::kStaleRead) saw_stale_read = true;
  }
  EXPECT_TRUE(saw_stale_read);

  ASSERT_TRUE(db.Rollback(pending).ok());
  ASSERT_TRUE(db.Commit(reader).ok());
}

// Serial and morsel-parallel execution, each querying twice, must agree
// with the checker observing every scan — and the checker must stay silent
// on both.
TEST(OnlineCheckerEquivalenceTest, SerialParallelCachedAgreeUnderChecker) {
  auto run = [](size_t parallelism) {
    DatabaseOptions opt;
    opt.online_check = true;
    opt.query_parallelism = parallelism;
    Database db(opt);
    EXPECT_TRUE(db.CreateCube("t", {{"d", 4, 1, false}},
                              {{"v", DataType::kInt64}})
                    .ok());
    Random rng(7);
    for (int batch = 0; batch < 8; ++batch) {
      EXPECT_TRUE(db.Load("t", Rows(&rng, 32)).ok());
    }
    auto result = db.Query("t", SumQuery());
    EXPECT_TRUE(result.ok());
    // Query twice; the checker observes both scans.
    auto again = db.Query("t", SumQuery());
    EXPECT_TRUE(again.ok());
    db.online_checker()->DrainForTest();
    EXPECT_EQ(db.online_checker()->ViolationCount(), 0u);
    return result->groups();
  };
  // One checker (one Database with online_check) at a time: the hook slot
  // is process-global, so the flavors run sequentially.
  const auto serial = run(1);
  const auto parallel = run(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (const auto& [key, states] : serial) {
    auto pit = parallel.find(key);
    ASSERT_NE(pit, parallel.end());
    ASSERT_EQ(states.size(), pit->second.size());
    for (size_t a = 0; a < states.size(); ++a) {
      EXPECT_EQ(states[a].sum, pit->second[a].sum);
      EXPECT_EQ(states[a].count, pit->second[a].count);
    }
  }
}

// TSan hammer: concurrent writers and readers with the checker sampling
// every transaction and morsel workers fanning scans out. The assertions
// are "no data race" (TSan), "no deadlock" and "no violation".
TEST(OnlineCheckerHammerTest, ConcurrentLoadsAndQueriesStayClean) {
  DatabaseOptions opt;
  opt.online_check = true;
  opt.query_parallelism = 4;
  Database db(opt);
  ASSERT_TRUE(db.CreateCube("t", {{"d", 4, 1, false}},
                            {{"v", DataType::kInt64}})
                  .ok());
  constexpr int kThreads = 4;
  constexpr int kIters = 15;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&db, t] {
      Random rng(1000 + t);
      for (int i = 0; i < kIters; ++i) {
        if (t % 2 == 0) {
          EXPECT_TRUE(db.Load("t", Rows(&rng, 16)).ok());
        }
        auto result = db.Query("t", SumQuery());
        EXPECT_TRUE(result.ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  db.online_checker()->DrainForTest();
  EXPECT_EQ(db.online_checker()->ViolationCount(), 0u);
}

}  // namespace
}  // namespace cubrick::check
