// Visibility-bitmap cache tests: key normalization (horizon clamping, deps
// filtering), slot publish/lookup/eviction mechanics, EBR
// retirement of displaced entries (no decline backlog — Publish always
// stores), and a multi-threaded lookup/publish hammer (named *VisCache* so
// the TSan CI job picks it up).

#include "aosi/vis_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "aosi/epoch_vector.h"
#include "aosi/visibility.h"
#include "common/ebr.h"

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
  // Pin before touching the cache: the evicted entry below must stay
  // dereferenceable for the lifetime of this guard, per the EBR contract.
  const ebr::Guard guard;
  // Fill every slot: no evictions yet.
  for (uint64_t i = 0; i < VisibilityCache::kSlots; ++i) {
    Bitmap bm(4, true);
    const auto r = cache.Publish(KeyFor(1, static_cast<Epoch>(i + 1)), &bm);
    ASSERT_NE(r.published, nullptr);
    EXPECT_FALSE(r.evicted);
  }

  // One more displaces the round-robin victim (the oldest entry) and
  // retires it — the evicted bitmap must stay dereferenceable while this
  // thread's guard is alive.
  const Bitmap* oldest = cache.Lookup(KeyFor(1, 1));
  ASSERT_NE(oldest, nullptr);
  Bitmap bm(4, true);
  const auto r = cache.Publish(KeyFor(1, 100), &bm);
  ASSERT_NE(r.published, nullptr);
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(cache.Lookup(KeyFor(1, 1)), nullptr);
  EXPECT_EQ(oldest->ToString(), "1111");  // retired, not freed

  cache.Clear();
  EXPECT_EQ(cache.Lookup(KeyFor(1, 100)), nullptr);
}

TEST(VisCacheTest, PublishNeverDeclinesUnderUnboundedChurn) {
  // The pre-EBR cache declined once 64 evicted entries awaited a quiescent
  // point; with EBR retirement every publish must succeed no matter how
  // long the churn runs, and the collector must be able to reclaim all of
  // it once no guard is pinned.
  VisibilityCache cache;
  const uint64_t churn = VisibilityCache::kSlots + 200;
  for (uint64_t i = 0; i < churn; ++i) {
    Bitmap bm(4, true);
    const auto r = cache.Publish(KeyFor(1, static_cast<Epoch>(i + 1)), &bm);
    ASSERT_NE(r.published, nullptr);
    EXPECT_EQ(r.evicted, i >= VisibilityCache::kSlots);
  }
  cache.Clear();
  // No guard is live on any thread here, so limbo must drain completely.
  EXPECT_TRUE(ebr::Collector::Global().DrainForTest());
  EXPECT_EQ(ebr::Collector::Global().LimboObjectsForTest(), 0u);
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

TEST(VisCacheConcurrencyTest, ConcurrentLookupAndPublishAreRaceFree) {
  // Hammer a single cache from several threads mixing lookups and publishes
  // over a small key set, dereferencing every pointer the cache hands back.
  // With 12 keys over 8 slots the threads continuously evict each other, so
  // the EBR retire/reclaim path runs concurrently with hits: a premature
  // free of an evicted entry a guard still protects is a use-after-free
  // ASan/TSan will catch.
  VisibilityCache cache;
  constexpr int kThreads = 4;
  constexpr int kIters = 3000;
  constexpr Epoch kKeys = 12;
  constexpr size_t kBits = 130;  // three words, ragged tail
  std::atomic<uint64_t> checksum{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &checksum, t] {
      uint64_t local = 0;
      for (int i = 0; i < kIters; ++i) {
        // Per-iteration pin, exactly like a scan: the pointer handed back
        // below is only dereferenced inside the guard's critical section.
        const ebr::Guard guard;
        const Epoch horizon = static_cast<Epoch>((t + i) % kKeys + 1);
        const VisKey key = KeyFor(1, horizon);
        const Bitmap* bm = cache.Lookup(key);
        if (bm == nullptr) {
          Bitmap built(kBits);
          built.SetRange(0, static_cast<size_t>(horizon) * 10);
          const auto r = cache.Publish(key, &built);
          bm = r.published;
          ASSERT_NE(bm, nullptr);  // EBR cache never declines
        }
        // Every published bitmap for `horizon` has horizon*10 set bits;
        // a torn read or premature free breaks this invariant (and TSan).
        local += bm->CountSet();
        if (bm->CountSet() != static_cast<size_t>(horizon) * 10) {
          ADD_FAILURE() << "corrupt cached bitmap for horizon " << horizon;
          return;
        }
      }
      checksum.fetch_add(local, std::memory_order_relaxed);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GT(checksum.load(std::memory_order_relaxed), 0u);
}

}  // namespace
}  // namespace cubrick::aosi
