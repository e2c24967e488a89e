// Tests for the per-partition epochs vector, including the paper's Figure 1
// (interleaved appends by two transactions) and Figure 2 (sequences with
// partition deletes).

#include "aosi/epoch_vector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "aosi/purge.h"

namespace cubrick::aosi {
namespace {

/// True when any of the history's decoded runs is a delete marker.
bool HasDeleteRun(const EpochVector& ev) {
  const std::vector<EpochRun> runs = ev.Decode();
  return std::any_of(runs.begin(), runs.end(),
                     [](const EpochRun& run) { return run.is_delete; });
}

TEST(EpochVectorTest, StartsEmpty) {
  EpochVector ev;
  EXPECT_EQ(ev.num_records(), 0u);
  EXPECT_EQ(ev.num_entries(), 0u);
  EXPECT_FALSE(HasDeleteRun(ev));
  EXPECT_TRUE(ev.Decode().empty());
}

// Paper Figure 1: transactions T1 and T2 appending to the same partition.
// (a) T1 inserts 3 records -> entry (T1, 2).
// (b) T1 inserts 2 more    -> back entry extended in place to (T1, 4).
// (c) T2 inserts 4         -> new entry (T2, 8).
// (d) T1 inserts 4         -> new entry (T1, 12): T1 is no longer at the
//     back, so the entry cannot be extended.
TEST(EpochVectorTest, Figure1_InterleavedAppends) {
  EpochVector ev;
  ev.RecordAppend(1, 3);  // (a)
  ASSERT_EQ(ev.num_entries(), 1u);
  EXPECT_EQ(ev.entries()[0], EpochEntry::Append(1, 2));

  ev.RecordAppend(1, 2);  // (b): same txn at the back, extend in place
  ASSERT_EQ(ev.num_entries(), 1u);
  EXPECT_EQ(ev.entries()[0], EpochEntry::Append(1, 4));

  ev.RecordAppend(2, 4);  // (c)
  ASSERT_EQ(ev.num_entries(), 2u);
  EXPECT_EQ(ev.entries()[1], EpochEntry::Append(2, 8));

  ev.RecordAppend(1, 4);  // (d)
  ASSERT_EQ(ev.num_entries(), 3u);
  EXPECT_EQ(ev.entries()[2], EpochEntry::Append(1, 12));

  EXPECT_EQ(ev.num_records(), 13u);
  EXPECT_EQ(ev.ToString(), "[1:0-4][2:5-8][1:9-12]");
}

TEST(EpochVectorTest, EntryCostsSixteenBytes) {
  // The paper's memory-overhead claim rests on one 16-byte pair per
  // transaction per partition.
  EpochVector ev;
  ev.RecordAppend(7, 1000000);
  EXPECT_EQ(ev.MemoryUsage(), sizeof(EpochEntry) * 1u);
  EXPECT_EQ(sizeof(EpochEntry), 16u);
}

TEST(EpochVectorTest, CapacityDoublesAndCompactionsFitExactly) {
  // MemoryUsage charges capacity, so the growth policy is part of what
  // Figures 6 and 7 report: capacity doubles from one entry, and every copy
  // or rebuild holds exactly its entries.
  constexpr size_t kEntry = sizeof(EpochEntry);
  EpochVector ev;
  EXPECT_EQ(ev.MemoryUsage(), 0u);
  const size_t kCapacityAfter[] = {1, 2, 4, 4, 8};
  for (Epoch txn = 1; txn <= 5; ++txn) {
    ev.RecordAppend(txn, 2);
    EXPECT_EQ(ev.MemoryUsage(), kCapacityAfter[txn - 1] * kEntry)
        << "after txn " << txn;
  }

  // A same-transaction extension and a delete within capacity allocate
  // nothing.
  const EpochEntry* slots = ev.entries().data();
  ev.RecordAppend(5, 3);
  EXPECT_EQ(ev.num_entries(), 5u);
  EXPECT_EQ(ev.entries().data(), slots);
  ev.RecordDelete(6);
  EXPECT_EQ(ev.num_entries(), 6u);
  EXPECT_EQ(ev.entries().data(), slots);
  EXPECT_EQ(ev.MemoryUsage(), 8 * kEntry);

  // Copies fit exactly, a copy-assign over a larger vector included.
  EXPECT_EQ(EpochVector(ev).MemoryUsage(), 6 * kEntry);
  EpochVector larger;
  for (Epoch txn = 1; txn <= 9; ++txn) larger.RecordAppend(txn, 1);
  ASSERT_EQ(larger.MemoryUsage(), 16 * kEntry);
  larger = ev;
  EXPECT_EQ(larger, ev);
  EXPECT_EQ(larger.MemoryUsage(), 6 * kEntry);
  EXPECT_EQ(EpochVector::FromRuns(ev.Decode()).MemoryUsage(), 6 * kEntry);

  // A compaction install fits the rebuilt history, so purge returns the
  // capacity it recycles: runs 1-3 merge below LSE 4.
  const CompactionPlan plan = PlanPurge(ev, /*lse=*/4);
  ASSERT_TRUE(plan.needed);
  ev.InstallRebuilt(plan.new_history);
  EXPECT_EQ(ev.ToString(), "[3:0-5][4:6-7][5:8-12][6:del@13]");
  EXPECT_EQ(ev.MemoryUsage(), 4 * kEntry);

  // The next new entry doubles it again.
  ev.RecordAppend(7, 1);
  EXPECT_EQ(ev.MemoryUsage(), 8 * kEntry);
}

TEST(EpochVectorTest, DeleteMarkerRecordsBoundary) {
  EpochVector ev;
  ev.RecordAppend(1, 5);
  ev.RecordDelete(3);
  ASSERT_EQ(ev.num_entries(), 2u);
  EXPECT_TRUE(ev.entries()[1].is_delete());
  EXPECT_EQ(ev.entries()[1].index(), 5u);
  EXPECT_EQ(ev.entries()[1].epoch, 3u);
  EXPECT_TRUE(HasDeleteRun(ev));
  // A delete does not consume record positions.
  EXPECT_EQ(ev.num_records(), 5u);
}

TEST(EpochVectorTest, AppendAfterDeleteStartsNewEntry) {
  EpochVector ev;
  ev.RecordAppend(1, 2);
  ev.RecordDelete(1);
  ev.RecordAppend(1, 2);
  // Even though T1 wrote the entry before the marker, the marker sits at the
  // back so a fresh entry is required.
  ASSERT_EQ(ev.num_entries(), 3u);
  EXPECT_EQ(ev.ToString(), "[1:0-1][1:del@2][1:2-3]");
}

// Paper Figure 2 (a)-flavored sequence with a delete from a concurrent
// transaction logically older than some of the data around it.
TEST(EpochVectorTest, Figure2_SequenceWithDelete) {
  EpochVector ev;
  ev.RecordAppend(1, 2);
  ev.RecordAppend(3, 2);
  ev.RecordAppend(5, 1);
  ev.RecordDelete(3);  // T3 deletes the partition while T5 is in flight
  ev.RecordAppend(5, 3);
  ev.RecordAppend(7, 1);
  EXPECT_EQ(ev.num_records(), 9u);
  EXPECT_EQ(ev.num_entries(), 6u);
  EXPECT_EQ(ev.ToString(), "[1:0-1][3:2-3][5:4-4][3:del@5][5:5-7][7:8-8]");
}

TEST(EpochVectorTest, DecodeRoundTripsThroughFromRuns) {
  EpochVector ev;
  ev.RecordAppend(2, 4);
  ev.RecordDelete(6);
  ev.RecordAppend(8, 2);
  const auto runs = ev.Decode();
  EpochVector rebuilt = EpochVector::FromRuns(runs);
  EXPECT_TRUE(ev == rebuilt);
}

TEST(EpochVectorTest, MultipleDeletes) {
  EpochVector ev;
  ev.RecordAppend(1, 3);
  ev.RecordDelete(2);
  ev.RecordAppend(3, 2);
  ev.RecordDelete(4);
  const auto runs = ev.Decode();
  ASSERT_EQ(runs.size(), 4u);
  EXPECT_TRUE(runs[1].is_delete);
  EXPECT_EQ(runs[1].begin, 3u);
  EXPECT_TRUE(runs[3].is_delete);
  EXPECT_EQ(runs[3].begin, 5u);
}

TEST(EpochVectorTest, RejectsEpochZeroAndEmptyAppends) {
  EpochVector ev;
  EXPECT_THROW(ev.RecordAppend(kNoEpoch, 1), cubrick::CheckFailure);
  EXPECT_THROW(ev.RecordAppend(1, 0), cubrick::CheckFailure);
  EXPECT_THROW(ev.RecordDelete(kNoEpoch), cubrick::CheckFailure);
}

TEST(EpochVectorTest, DeleteBitDoesNotCorruptLargeIndexes) {
  EpochVector ev;
  ev.RecordAppend(1, (1ULL << 40));
  ev.RecordDelete(2);
  EXPECT_EQ(ev.entries()[1].index(), 1ULL << 40);
  EXPECT_TRUE(ev.entries()[1].is_delete());
  EXPECT_FALSE(ev.entries()[0].is_delete());
  EXPECT_EQ(ev.entries()[0].index(), (1ULL << 40) - 1);
}

TEST(EpochVectorTest, VersionBumpsOnEveryMutation) {
  EpochVector ev;
  EXPECT_EQ(ev.version(), 0u);
  ev.RecordAppend(3, 2);
  EXPECT_EQ(ev.version(), 1u);
  // Coalescing into the back entry is still a history change.
  ev.RecordAppend(3, 2);
  EXPECT_EQ(ev.version(), 2u);
  ev.RecordDelete(4);
  EXPECT_EQ(ev.version(), 3u);
  ev.InstallRebuilt(EpochVector());
  EXPECT_EQ(ev.version(), 4u);
}

TEST(EpochVectorTest, InstallRebuiltAdvancesVersionPastTheSource) {
  // The rebuilt history's own (lower) counter must never clobber the
  // target's: the online checker would otherwise compare an observation of
  // the compacted layout with one of the old layout as a repeat.
  EpochVector ev;
  for (int i = 1; i <= 5; ++i) ev.RecordAppend(static_cast<Epoch>(i), 1);
  const uint64_t before = ev.version();

  EpochVector rebuilt = EpochVector::FromRuns({{7, 0, 3, false}});
  EXPECT_LT(rebuilt.version(), before);
  ev.InstallRebuilt(rebuilt);
  EXPECT_GT(ev.version(), before);
  EXPECT_EQ(ev.ToString(), "[7:0-2]");
  EXPECT_EQ(ev.num_records(), 3u);
}

TEST(EpochVectorTest, MaxEpochTracksAppendsDeletesAndRebuilds) {
  EpochVector ev;
  EXPECT_TRUE(IsNoEpoch(ev.max_epoch()));
  ev.RecordAppend(5, 1);
  EXPECT_TRUE(SameEpoch(ev.max_epoch(), 5));
  ev.RecordAppend(2, 1);  // out-of-order arrival keeps the max
  EXPECT_TRUE(SameEpoch(ev.max_epoch(), 5));
  ev.RecordDelete(9);
  EXPECT_TRUE(SameEpoch(ev.max_epoch(), 9));

  // FromRuns installs append entries directly; max_epoch must still track.
  EpochVector rebuilt = EpochVector::FromRuns(
      {{4, 0, 2, false}, {6, 2, 3, false}, {6, 3, 3, true}});
  EXPECT_TRUE(SameEpoch(rebuilt.max_epoch(), 6));
  ev.InstallRebuilt(rebuilt);
  EXPECT_TRUE(SameEpoch(ev.max_epoch(), 6));
}

/// The delete-marker count a history keeps must equal the markers it
/// decodes into, whichever way the history was made.
void ExpectDeleteCount(const EpochVector& ev, uint64_t markers) {
  uint64_t decoded = 0;
  for (const EpochRun& run : ev.Decode()) decoded += run.is_delete ? 1 : 0;
  EXPECT_EQ(decoded, markers) << ev.ToString();
  EXPECT_EQ(ev.num_deletes(), markers) << ev.ToString();
}

TEST(EpochVectorTest, DeleteMarkerCountSurvivesEveryRebuild) {
  EpochVector ev;
  ExpectDeleteCount(ev, 0);
  ev.RecordAppend(1, 2);
  ev.RecordDelete(2);
  ev.RecordAppend(3, 2);
  ev.RecordDelete(4);
  ev.RecordAppend(5, 2);
  ev.RecordDelete(6);
  ev.RecordAppend(7, 2);
  ExpectDeleteCount(ev, 3);
  ExpectDeleteCount(EpochVector::FromRuns(ev.Decode()), 3);

  // Copies and moves carry the count; a moved-from vector is empty.
  EpochVector copy(ev);
  ExpectDeleteCount(copy, 3);
  EpochVector assigned;
  assigned.RecordDelete(9);
  assigned.RecordDelete(9);
  assigned = ev;
  ExpectDeleteCount(assigned, 3);
  EpochVector moved(std::move(copy));
  ExpectDeleteCount(moved, 3);
  ExpectDeleteCount(copy, 0);
  EpochVector move_assigned;
  move_assigned = std::move(assigned);
  ExpectDeleteCount(move_assigned, 3);

  // Each compaction install takes the rebuilt history's count: rollback
  // drops its victim's marker, truncation every newer one, and purge
  // applies every marker below LSE.
  const auto install = [&ev](const CompactionPlan& plan) {
    EXPECT_TRUE(plan.needed);
    EpochVector target(ev);
    target.InstallRebuilt(plan.new_history);
    return target;
  };
  ExpectDeleteCount(install(PlanRollback(ev, 4)), 2);
  ExpectDeleteCount(install(PlanRetainUpTo(ev, 3)), 1);
  ExpectDeleteCount(install(PlanPurge(ev, 5)), 1);
  ExpectDeleteCount(install(PlanPurge(ev, 8)), 0);
  // An install can add markers too.
  EpochVector plain;
  plain.RecordAppend(1, 2);
  plain.InstallRebuilt(ev);
  ExpectDeleteCount(plain, 3);
}

}  // namespace
}  // namespace cubrick::aosi
