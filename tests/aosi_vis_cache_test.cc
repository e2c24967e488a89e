// Visibility-bitmap cache tests: key normalization (horizon clamping, deps
// filtering) and slot publish/lookup/eviction mechanics (Publish always
// stores, freeing the round-robin victim).

#include "aosi/vis_cache.h"

#include <gtest/gtest.h>

#include <vector>

#include "aosi/epoch_vector.h"
#include "aosi/visibility.h"

namespace cubrick::aosi {
namespace {

Snapshot Reader(Epoch epoch, std::vector<Epoch> deps = {}) {
  Snapshot s;
  s.epoch = epoch;
  s.deps = EpochSet(std::move(deps));
  return s;
}

EpochVector SmallHistory() {
  EpochVector ev;
  ev.RecordAppend(3, 4);
  ev.RecordAppend(5, 2);
  return ev;
}

TEST(VisKeyTest, HorizonClampLetsLaterSnapshotsShareAKey) {
  const EpochVector ev = SmallHistory();  // max_epoch == 5
  const VisKey at_max = VisibilityCache::MakeKey(ev, Reader(5));
  const VisKey past1 = VisibilityCache::MakeKey(ev, Reader(7));
  const VisKey past2 = VisibilityCache::MakeKey(ev, Reader(1000));
  EXPECT_TRUE(at_max == past1);
  EXPECT_TRUE(at_max == past2);
  // A snapshot below the newest stamp selects a different prefix.
  const VisKey below = VisibilityCache::MakeKey(ev, Reader(4));
  EXPECT_FALSE(at_max == below);
}

TEST(VisKeyTest, DepsPastTheHorizonAreDropped) {
  const EpochVector ev = SmallHistory();  // max_epoch == 5
  // Dep 50 is beyond the clamped horizon (5): it cannot mask anything the
  // horizon admits, so the key must ignore it.
  const VisKey a = VisibilityCache::MakeKey(ev, Reader(100, {3, 50}));
  const VisKey b = VisibilityCache::MakeKey(ev, Reader(100, {3}));
  EXPECT_TRUE(a == b);
  // Dep 3 is at or before the horizon and masks run [0,4): it must stay.
  const VisKey c = VisibilityCache::MakeKey(ev, Reader(100));
  EXPECT_FALSE(a == c);
}

TEST(VisKeyTest, HistoryMutationChangesEveryKey) {
  EpochVector ev = SmallHistory();
  const Snapshot snap = Reader(9);
  const VisKey before_si = VisibilityCache::MakeKey(ev, snap);
  ev.RecordAppend(6, 1);
  EXPECT_FALSE(before_si == VisibilityCache::MakeKey(ev, snap));
  const VisKey after_append = VisibilityCache::MakeKey(ev, snap);
  ev.RecordDelete(7);
  EXPECT_FALSE(after_append == VisibilityCache::MakeKey(ev, snap));
  const VisKey after_delete = VisibilityCache::MakeKey(ev, snap);
  ev.InstallRebuilt(EpochVector::FromRuns({{8, 0, 2, false}}));
  EXPECT_FALSE(after_delete == VisibilityCache::MakeKey(ev, snap));
}

VisKey KeyFor(uint64_t version, Epoch horizon) {
  VisKey key;
  key.history_version = version;
  key.horizon = horizon;
  return key;
}

TEST(VisCacheTest, MissThenPublishThenHit) {
  VisibilityCache cache;
  const VisKey key = KeyFor(1, 5);
  EXPECT_EQ(cache.Lookup(key), nullptr);

  Bitmap bm(9);
  bm.SetRange(0, 4);
  const std::string expect = bm.ToString();
  const auto published = cache.Publish(key, &bm);
  ASSERT_NE(published.published, nullptr);
  EXPECT_FALSE(published.evicted);
  EXPECT_EQ(published.published->ToString(), expect);

  const Bitmap* hit = cache.Lookup(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit, published.published);
  EXPECT_EQ(hit->ToString(), expect);

  // A different key — even one differing only in the version tag — misses.
  EXPECT_EQ(cache.Lookup(KeyFor(2, 5)), nullptr);
  EXPECT_EQ(cache.Lookup(KeyFor(1, 6)), nullptr);
}

TEST(VisCacheTest, PublishBeyondSlotsEvictsAndRetires) {
  VisibilityCache cache;
  // Fill every slot: no evictions yet.
  for (uint64_t i = 0; i < VisibilityCache::kSlots; ++i) {
    Bitmap bm(4, true);
    const auto r = cache.Publish(KeyFor(1, static_cast<Epoch>(i + 1)), &bm);
    ASSERT_NE(r.published, nullptr);
    EXPECT_FALSE(r.evicted);
  }

  // One more displaces the round-robin victim (the oldest entry).
  ASSERT_NE(cache.Lookup(KeyFor(1, 1)), nullptr);
  Bitmap bm(4, true);
  const auto r = cache.Publish(KeyFor(1, 100), &bm);
  ASSERT_NE(r.published, nullptr);
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(cache.Lookup(KeyFor(1, 1)), nullptr);

  cache.Clear();
  EXPECT_EQ(cache.Lookup(KeyFor(1, 100)), nullptr);
}

TEST(VisCacheTest, PublishNeverDeclinesUnderUnboundedChurn) {
  // Every publish succeeds, however long the churn runs.
  VisibilityCache cache;
  const uint64_t churn = VisibilityCache::kSlots + 200;
  for (uint64_t i = 0; i < churn; ++i) {
    Bitmap bm(4, true);
    const auto r = cache.Publish(KeyFor(1, static_cast<Epoch>(i + 1)), &bm);
    ASSERT_NE(r.published, nullptr);
    EXPECT_EQ(r.evicted, i >= VisibilityCache::kSlots);
  }
  cache.Clear();
  EXPECT_EQ(cache.Lookup(KeyFor(1, static_cast<Epoch>(churn))), nullptr);
}

TEST(VisCacheTest, CachedBitmapMatchesDirectBuild) {
  // End-to-end: the bitmap stored under MakeKey's normalized key is the one
  // BuildVisibilityBitmap produces, and later snapshots clamped to the same
  // horizon retrieve it verbatim.
  EpochVector ev;
  ev.RecordAppend(1, 2);
  ev.RecordAppend(3, 2);
  ev.RecordAppend(5, 1);
  ev.RecordDelete(3);
  ev.RecordAppend(5, 3);
  ev.RecordAppend(7, 1);

  VisibilityCache cache;
  const Snapshot at6 = Reader(6);
  const VisKey key = VisibilityCache::MakeKey(ev, at6);
  Bitmap built = BuildVisibilityBitmap(ev, at6);
  const std::string expect = built.ToString();
  ASSERT_NE(cache.Publish(key, &built).published, nullptr);

  const VisKey same = VisibilityCache::MakeKey(ev, Reader(6, {9}));
  const Bitmap* hit = cache.Lookup(same);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->ToString(), expect);

  // A snapshot whose deps change visibility below the horizon misses.
  EXPECT_EQ(
      cache.Lookup(VisibilityCache::MakeKey(ev, Reader(6, {5}))),
      nullptr);
}

}  // namespace
}  // namespace cubrick::aosi
