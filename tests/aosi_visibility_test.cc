// Visibility-bitmap tests, reproducing the paper's Table III semantics.
//
// Note on fidelity: the source text of Tables II/III is corrupted in our
// copy of the paper (columns duplicated, bit strings of impossible lengths),
// so the exact byte-for-byte values cannot be recovered. These tests instead
// pin the bitmaps that §III-C3's stated rules produce over the Figure 2
// sequences as we reconstructed them, including the secondary cleanup pass
// for visible deletes.

#include "aosi/visibility.h"

#include <gtest/gtest.h>

#include "aosi/epoch_vector.h"

namespace cubrick::aosi {
namespace {

Snapshot Reader(Epoch epoch, std::vector<Epoch> deps = {}) {
  Snapshot s;
  s.epoch = epoch;
  s.deps = EpochSet(std::move(deps));
  return s;
}

// Figure 2 (a) reconstruction:
//   T1 appends 2, T3 appends 2, T5 appends 1, T3 deletes partition,
//   T5 appends 3, T7 appends 1.
// Records: [0,1]=T1  [2,3]=T3  [4]=T5  (del T3 @5)  [5,7]=T5  [8]=T7.
EpochVector Fig2a() {
  EpochVector ev;
  ev.RecordAppend(1, 2);
  ev.RecordAppend(3, 2);
  ev.RecordAppend(5, 1);
  ev.RecordDelete(3);
  ev.RecordAppend(5, 3);
  ev.RecordAppend(7, 1);
  return ev;
}

TEST(VisibilityTest, TableIII_Reader2_SeesOnlyT1) {
  // Reader at epoch 2 sees T1 but not the (later) delete by T3.
  Bitmap bm = BuildVisibilityBitmap(Fig2a(), Reader(2));
  EXPECT_EQ(bm.ToString(), "110000000");
}

TEST(VisibilityTest, TableIII_Reader4_DeleteWipesOlderTransactions) {
  // Reader at epoch 4 sees T1, T3 and T3's delete. The cleanup pass clears
  // everything from transactions < 3 and T3's own records before the marker,
  // leaving nothing.
  Bitmap bm = BuildVisibilityBitmap(Fig2a(), Reader(4));
  EXPECT_EQ(bm.ToString(), "000000000");
  EXPECT_TRUE(bm.None());
}

TEST(VisibilityTest, TableIII_Reader6_ConcurrentNewerSurvives) {
  // Reader at epoch 6 also sees T5. T5 > deleter T3, so T5's records —
  // including the one physically before the marker — survive the cleanup.
  Bitmap bm = BuildVisibilityBitmap(Fig2a(), Reader(6));
  EXPECT_EQ(bm.ToString(), "000011110");
}

TEST(VisibilityTest, TableIII_Reader8_SeesEverythingAfterDelete) {
  Bitmap bm = BuildVisibilityBitmap(Fig2a(), Reader(8));
  EXPECT_EQ(bm.ToString(), "000011111");
}

TEST(VisibilityTest, PendingDepsExcludeTransaction) {
  // Reader at epoch 8 that started while T5 was still pending must not see
  // T5's records even though 5 < 8.
  Bitmap bm = BuildVisibilityBitmap(Fig2a(), Reader(8, {5}));
  EXPECT_EQ(bm.ToString(), "000000001");
}

TEST(VisibilityTest, PendingDeleterHidesDelete) {
  // If the deleting transaction T3 was pending when the reader started, the
  // delete is invisible: the reader sees the pre-delete world minus T3.
  Bitmap bm = BuildVisibilityBitmap(Fig2a(), Reader(8, {3}));
  EXPECT_EQ(bm.ToString(), "110011111");
}

TEST(VisibilityTest, ReaderOwnEpochIncluded) {
  // A RW transaction reading its own appends: T5 reading Fig2a sees its own
  // records; the visible delete by T3 clears T1 and T3.
  Bitmap bm = BuildVisibilityBitmap(Fig2a(), Reader(5));
  EXPECT_EQ(bm.ToString(), "000011110");
}

TEST(VisibilityTest, EmptyHistoryYieldsEmptyBitmap) {
  EpochVector ev;
  Bitmap bm = BuildVisibilityBitmap(ev, Reader(10));
  EXPECT_EQ(bm.size(), 0u);
}

TEST(VisibilityTest, EpochZeroReaderSeesNothing) {
  // A RO transaction before anything committed runs at LCE = 0.
  Bitmap bm = BuildVisibilityBitmap(Fig2a(), Reader(kNoEpoch));
  EXPECT_TRUE(bm.None());
}

TEST(VisibilityTest, DeleteOnlyAffectsReadersThatSeeIt) {
  EpochVector ev;
  ev.RecordAppend(2, 4);
  ev.RecordDelete(6);
  EXPECT_EQ(BuildVisibilityBitmap(ev, Reader(5)).ToString(), "1111");
  EXPECT_EQ(BuildVisibilityBitmap(ev, Reader(6)).ToString(), "0000");
  EXPECT_EQ(BuildVisibilityBitmap(ev, Reader(9)).ToString(), "0000");
}

TEST(VisibilityTest, DeleterOwnRecordsAfterMarkerSurvive) {
  // T4 appends, deletes, appends again: its post-delete appends are alive.
  EpochVector ev;
  ev.RecordAppend(4, 2);
  ev.RecordDelete(4);
  ev.RecordAppend(4, 3);
  EXPECT_EQ(BuildVisibilityBitmap(ev, Reader(4)).ToString(), "00111");
  EXPECT_EQ(BuildVisibilityBitmap(ev, Reader(9)).ToString(), "00111");
}

TEST(VisibilityTest, TwoDeletesApplyCumulatively) {
  EpochVector ev;
  ev.RecordAppend(1, 2);
  ev.RecordDelete(2);
  ev.RecordAppend(3, 2);
  ev.RecordDelete(4);
  ev.RecordAppend(5, 1);
  // Reader 9 sees both deletes; only T5's record survives.
  EXPECT_EQ(BuildVisibilityBitmap(ev, Reader(9)).ToString(), "00001");
  // Reader 3 sees only the first delete (and not T5's record).
  EXPECT_EQ(BuildVisibilityBitmap(ev, Reader(3)).ToString(), "00110");
}

TEST(VisibilityTest, LateArrivingOlderEpochIsKilledByDelete) {
  // Logical clocks can place an *older* epoch's append physically after the
  // delete marker (out-of-order distributed arrival). The cleanup clears
  // transactions < k everywhere, so the late append is still deleted.
  EpochVector ev;
  ev.RecordAppend(5, 2);
  ev.RecordDelete(6);
  ev.RecordAppend(2, 3);  // epoch 2 arrives after T6's delete marker
  Bitmap bm = BuildVisibilityBitmap(ev, Reader(9));
  EXPECT_EQ(bm.ToString(), "00000");
}

// --- ApplyDeleteCleanup boundary semantics -------------------------------
// The shared delete-cleanup rule (used by both visibility construction and
// purge planning) over hand-built run lists; runs are half-open [begin,end).

TEST(DeleteCleanupTest, DeletePointAtRunExclusiveEndClearsWholeRun) {
  // k's own run [0,4) with delete_point == 4 (its exclusive end): every
  // record of the run is strictly before the delete point, so all die.
  std::vector<EpochRun> runs = {{5, 0, 4, false}, {5, 4, 6, false}};
  Bitmap bm(6, true);
  ApplyDeleteCleanup(runs, /*k=*/5, /*delete_point=*/4, &bm);
  EXPECT_EQ(bm.ToString(), "000011");
}

TEST(DeleteCleanupTest, DeletePointAtRunBeginLeavesRunUntouched) {
  // A run of k whose begin equals the delete point sits entirely at-or-
  // after the marker; none of it is cleared.
  std::vector<EpochRun> runs = {{5, 2, 5, false}};
  Bitmap bm(5, true);
  ApplyDeleteCleanup(runs, /*k=*/5, /*delete_point=*/2, &bm);
  EXPECT_EQ(bm.ToString(), "11111");
}

TEST(DeleteCleanupTest, DeletePointInsideOwnRunClearsPrefixOnly) {
  // Delete epoch equal to its own run's records: [0,3) with delete_point 1
  // clears exactly the first record — the clamp is min(end, delete_point).
  std::vector<EpochRun> runs = {{5, 0, 3, false}};
  Bitmap bm(3, true);
  ApplyDeleteCleanup(runs, /*k=*/5, /*delete_point=*/1, &bm);
  EXPECT_EQ(bm.ToString(), "011");
}

TEST(DeleteCleanupTest, OlderEpochsClearedEverywhere) {
  // Runs of transactions ordered before k die wherever they physically sit
  // — including after the delete point (late distributed arrivals). Newer
  // transactions survive untouched.
  std::vector<EpochRun> runs = {
      {2, 0, 2, false},   // older, before the point
      {6, 2, 4, false},   // newer than k=5
      {3, 4, 6, false},   // older, physically after the point
  };
  Bitmap bm(6, true);
  ApplyDeleteCleanup(runs, /*k=*/5, /*delete_point=*/2, &bm);
  EXPECT_EQ(bm.ToString(), "001100");
}

TEST(DeleteCleanupTest, DeleteMarkersInRunListIgnored) {
  // A zero-width delete marker entry must not clear anything, even when
  // its epoch is older than k.
  std::vector<EpochRun> runs = {
      {2, 0, 0, true},    // marker of an older epoch
      {6, 0, 3, false},
  };
  Bitmap bm(3, true);
  ApplyDeleteCleanup(runs, /*k=*/5, /*delete_point=*/0, &bm);
  EXPECT_EQ(bm.ToString(), "111");
}

}  // namespace
}  // namespace cubrick::aosi
