// Purge (garbage collection) and rollback-compaction tests, covering the
// paper's Figure 3 semantics: recycling epochs entries older than LSE and
// physically applying deletes older than LSE.

#include "aosi/purge.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "aosi/visibility.h"

namespace cubrick::aosi {
namespace {

/// True when any of the history's decoded runs is a delete marker.
bool HasDeleteRun(const EpochVector& ev) {
  const std::vector<EpochRun> runs = ev.Decode();
  return std::any_of(runs.begin(), runs.end(),
                     [](const EpochRun& run) { return run.is_delete; });
}

Snapshot Reader(Epoch epoch, std::vector<Epoch> deps = {}) {
  Snapshot s;
  s.epoch = epoch;
  s.deps = EpochSet(std::move(deps));
  return s;
}

// Figure 2/3 style sequence with two mergeable old transactions:
//   T1 appends 2, T2 appends 2, T5 appends 1, T3 deletes, T5 appends 3,
//   T7 appends 1.
EpochVector MakeHistory() {
  EpochVector ev;
  ev.RecordAppend(1, 2);
  ev.RecordAppend(2, 2);
  ev.RecordAppend(5, 1);
  ev.RecordDelete(3);
  ev.RecordAppend(5, 3);
  ev.RecordAppend(7, 1);
  return ev;
}

TEST(PurgeTest, Figure3a_MergesHistoryButKeepsLaterDelete) {
  // LSE = 3: T1 and T2 are both finished and older than LSE, so their two
  // entries merge into one. The delete by T3 (not older than LSE) cannot be
  // applied yet — a reader may still exist that does not see it.
  const EpochVector ev = MakeHistory();
  CompactionPlan plan = PlanPurge(ev, /*lse=*/3);
  ASSERT_TRUE(plan.needed);
  EXPECT_TRUE(plan.keep.All());
  EXPECT_EQ(plan.new_history.ToString(),
            "[2:0-3][5:4-4][3:del@5][5:5-7][7:8-8]");
  // Entry count drops from 6 to 5.
  EXPECT_EQ(plan.new_history.num_entries(), 5u);
}

TEST(PurgeTest, Figure3b_AppliesDeleteOnceSafe) {
  // LSE = 5: the delete by T3 is now older than LSE and gets applied:
  // records from transactions < 3 die everywhere; T5's and T7's survive.
  const EpochVector ev = MakeHistory();
  CompactionPlan plan = PlanPurge(ev, /*lse=*/5);
  ASSERT_TRUE(plan.needed);
  EXPECT_EQ(plan.keep.ToString(), "000011111");
  EXPECT_FALSE(HasDeleteRun(plan.new_history));
  EXPECT_EQ(plan.new_history.num_records(), 5u);
}

TEST(PurgeTest, Figure3b_OnlyNewestSurvives) {
  // Closest reconstruction of the paper's Fig 3(b) narration: after purge
  // with a delete marker safely behind LSE, "the only record and epochs
  // entry required is the one inserted by T7".
  EpochVector ev;
  ev.RecordAppend(1, 2);
  ev.RecordAppend(3, 2);
  ev.RecordAppend(5, 1);
  ev.RecordDelete(5);  // T5 deletes everything including its own append
  ev.RecordAppend(7, 1);
  CompactionPlan plan = PlanPurge(ev, /*lse=*/7);
  ASSERT_TRUE(plan.needed);
  EXPECT_EQ(plan.keep.ToString(), "000001");
  EXPECT_EQ(plan.new_history.ToString(), "[7:0-0]");
  EXPECT_EQ(plan.new_history.num_entries(), 1u);
  EXPECT_EQ(plan.new_history.num_records(), 1u);
}

TEST(PurgeTest, SkipsWhenNothingToDo) {
  EpochVector ev;
  ev.RecordAppend(8, 10);
  ev.RecordAppend(9, 5);
  // LSE = 3: no entries are older, no deletes — purge must skip the brick.
  CompactionPlan plan = PlanPurge(ev, /*lse=*/3);
  EXPECT_FALSE(plan.needed);
}

TEST(PurgeTest, SkipsSingleOldEntry) {
  // One old entry alone cannot be merged with anything and there is no
  // delete; rewriting the partition would be wasted work.
  EpochVector ev;
  ev.RecordAppend(1, 10);
  CompactionPlan plan = PlanPurge(ev, /*lse=*/5);
  EXPECT_FALSE(plan.needed);
}

TEST(PurgeTest, MergeStampIsEpochOrderMaxBothArgumentOrders) {
  // Regression for the epoch-max merge bug: BuildPlan must stamp a merged
  // run with MaxEpoch (epoch order), not raw integer std::max, and the
  // answer cannot depend on which physical order the mergeable runs arrive
  // in. Epoch is currently an integer where the two coincide numerically,
  // so the raw-std::max regression itself is guarded structurally: the
  // aosi_lint epoch-compare rule rejects std::min/std::max over epoch
  // operands tree-wide (tests/lint_fixtures/bad_epoch_minmax.cc), which
  // fails on the old `std::max(prev.epoch, run.epoch)` code. This test
  // pins the behavioral contract so a future non-integer epoch encoding
  // (e.g. node-strided cluster epochs) keeps the epoch-order stamp.
  {
    EpochVector ev;
    ev.RecordAppend(7, 1);  // larger epoch physically first
    ev.RecordAppend(2, 1);
    CompactionPlan plan = PlanPurge(ev, /*lse=*/10);
    ASSERT_TRUE(plan.needed);
    EXPECT_EQ(plan.new_history.ToString(), "[7:0-1]");
  }
  {
    EpochVector ev;
    ev.RecordAppend(2, 1);  // larger epoch physically last
    ev.RecordAppend(7, 1);
    CompactionPlan plan = PlanPurge(ev, /*lse=*/10);
    ASSERT_TRUE(plan.needed);
    EXPECT_EQ(plan.new_history.ToString(), "[7:0-1]");
  }
}

TEST(PurgeTest, DeleteCleanupAgreesWithVisibility) {
  // Purge and visibility share ApplyDeleteCleanup; the keep bitmap of a
  // purge that applies a delete must equal the visibility bitmap of a
  // reader that sees the whole history. Drift here is exactly the class of
  // bug the shared helper exists to prevent.
  EpochVector ev;
  ev.RecordAppend(1, 2);
  ev.RecordAppend(5, 1);
  ev.RecordDelete(3);
  ev.RecordAppend(5, 3);
  ev.RecordAppend(7, 1);
  CompactionPlan plan = PlanPurge(ev, /*lse=*/8);
  ASSERT_TRUE(plan.needed);
  Bitmap visible = BuildVisibilityBitmap(ev, Reader(9));
  EXPECT_EQ(plan.keep.ToString(), visible.ToString());
}

TEST(PurgeTest, MergeStampsLargestEpoch) {
  EpochVector ev;
  ev.RecordAppend(2, 1);
  ev.RecordAppend(1, 1);
  ev.RecordAppend(3, 1);
  CompactionPlan plan = PlanPurge(ev, /*lse=*/10);
  ASSERT_TRUE(plan.needed);
  EXPECT_EQ(plan.new_history.ToString(), "[3:0-2]");
}

TEST(PurgeTest, NeverMergesAcrossSurvivingDelete) {
  EpochVector ev;
  ev.RecordAppend(1, 1);
  ev.RecordDelete(9);  // far in the future; survives purge at LSE=3
  ev.RecordAppend(2, 1);
  // Nothing mergeable (the marker separates the runs), delete not
  // applicable: purge must skip.
  CompactionPlan plan = PlanPurge(ev, /*lse=*/3);
  EXPECT_FALSE(plan.needed);
}

TEST(PurgeTest, PurgePreservesVisibilityForFutureReaders) {
  // Property: for every reader epoch >= LSE with no deps below LSE, the
  // visible *multiset of rows* (by content position) before and after purge
  // must agree. We check via bit counts per surviving region.
  const EpochVector ev = MakeHistory();
  for (Epoch lse : {Epoch{3}, Epoch{5}, Epoch{7}, Epoch{9}}) {
    CompactionPlan plan = PlanPurge(ev, lse);
    if (!plan.needed) continue;
    for (Epoch reader = lse; reader <= 10; ++reader) {
      Bitmap before = BuildVisibilityBitmap(ev, Reader(reader));
      Bitmap after = BuildVisibilityBitmap(plan.new_history, Reader(reader));
      // Count must match; and every kept-and-visible row must map over.
      size_t visible_before_kept = 0;
      for (size_t i = 0; i < before.size(); ++i) {
        if (before.Get(i)) {
          EXPECT_TRUE(plan.keep.Get(i))
              << "purge at LSE " << lse << " dropped row " << i
              << " still visible to reader " << reader;
          ++visible_before_kept;
        }
      }
      EXPECT_EQ(after.CountSet(), visible_before_kept)
          << "reader " << reader << " LSE " << lse;
    }
  }
}

TEST(PurgeTest, DoubleDeleteBothApplied) {
  EpochVector ev;
  ev.RecordAppend(1, 2);
  ev.RecordDelete(2);
  ev.RecordAppend(3, 2);
  ev.RecordDelete(4);
  ev.RecordAppend(5, 2);
  CompactionPlan plan = PlanPurge(ev, /*lse=*/6);
  ASSERT_TRUE(plan.needed);
  EXPECT_EQ(plan.keep.ToString(), "000011");
  EXPECT_EQ(plan.new_history.ToString(), "[5:0-1]");
}

TEST(RollbackTest, RemovesOnlyVictimRecords) {
  EpochVector ev;
  ev.RecordAppend(1, 2);
  ev.RecordAppend(2, 3);
  ev.RecordAppend(1, 1);
  CompactionPlan plan = PlanRollback(ev, /*victim=*/2);
  ASSERT_TRUE(plan.needed);
  EXPECT_EQ(plan.keep.ToString(), "110001");
  EXPECT_EQ(plan.new_history.ToString(), "[1:0-1][1:2-2]");
}

TEST(RollbackTest, RemovesVictimDeleteMarker) {
  EpochVector ev;
  ev.RecordAppend(1, 2);
  ev.RecordDelete(2);
  ev.RecordAppend(3, 1);
  CompactionPlan plan = PlanRollback(ev, /*victim=*/2);
  ASSERT_TRUE(plan.needed);
  EXPECT_TRUE(plan.keep.All());
  EXPECT_FALSE(HasDeleteRun(plan.new_history));
  EXPECT_EQ(plan.new_history.ToString(), "[1:0-1][3:2-2]");
}

TEST(RollbackTest, NoOpWhenVictimAbsent) {
  EpochVector ev;
  ev.RecordAppend(1, 2);
  CompactionPlan plan = PlanRollback(ev, /*victim=*/9);
  EXPECT_FALSE(plan.needed);
}

TEST(RollbackTest, VictimOnlyPartitionBecomesEmpty) {
  EpochVector ev;
  ev.RecordAppend(4, 10);
  CompactionPlan plan = PlanRollback(ev, /*victim=*/4);
  ASSERT_TRUE(plan.needed);
  EXPECT_TRUE(plan.keep.None());
  EXPECT_EQ(plan.new_history.num_records(), 0u);
  EXPECT_EQ(plan.new_history.num_entries(), 0u);
}

}  // namespace
}  // namespace cubrick::aosi
