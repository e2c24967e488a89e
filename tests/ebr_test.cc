// Unit and stress coverage for the epoch-based reclamation collector
// (common/ebr.h): epoch advance mechanics, deferred-free ordering against
// pinned Guards, thread register/unregister churn (slot recycling), and a
// TSan hammer racing readers against a retiring writer. Suite name starts
// with "Ebr" so the sanitizer CI jobs' `*Ebr*` gtest filter picks every
// test up.

#include "common/ebr.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace cubrick {
namespace {

using ebr::Collector;
using ebr::Guard;

/// A retiree that counts its own destruction through an external flag —
/// Retire takes a stateless function pointer, so the object carries the
/// pointer to the counter itself.
struct Tracked {
  std::atomic<uint64_t>* freed;
};

void RetireTracked(Tracked* t, size_t bytes = sizeof(Tracked)) {
  Collector::Global().Retire(
      t,
      [](void* p) {
        Tracked* tracked = static_cast<Tracked*>(p);
        tracked->freed->fetch_add(1, std::memory_order_relaxed);
        delete tracked;  // ebr-deleter
      },
      bytes);
}

TEST(EbrTest, RetireFreesAfterDrain) {
  std::atomic<uint64_t> freed{0};
  RetireTracked(new Tracked{&freed});
  // No guard is live, so the drain can run the collector dry; the retiree
  // must be exactly two epoch advances behind.
  ASSERT_TRUE(Collector::Global().DrainForTest());
  EXPECT_EQ(freed.load(std::memory_order_relaxed), 1u);
  EXPECT_EQ(Collector::Global().LimboObjectsForTest(), 0u);
}

TEST(EbrTest, AdvanceIsMonotonic) {
  const uint64_t before = Collector::Global().EpochForTest();
  std::atomic<uint64_t> freed{0};
  RetireTracked(new Tracked{&freed});
  ASSERT_TRUE(Collector::Global().DrainForTest());
  EXPECT_GT(Collector::Global().EpochForTest(), before);
}

TEST(EbrTest, PinnedGuardDefersFree) {
  std::atomic<uint64_t> freed{0};
  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  // The reader pins before the retire and holds its Guard across every
  // advance attempt below; the collector may advance at most once past the
  // pinned era, so the retiree must stay unfreed until the Guard drops.
  std::thread reader([&] {
    const Guard guard;
    pinned.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  while (!pinned.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  RetireTracked(new Tracked{&freed});
  EXPECT_FALSE(Collector::Global().DrainForTest());
  EXPECT_EQ(freed.load(std::memory_order_relaxed), 0u);
  EXPECT_GE(Collector::Global().LimboObjectsForTest(), 1u);

  release.store(true, std::memory_order_release);
  reader.join();
  ASSERT_TRUE(Collector::Global().DrainForTest());
  EXPECT_EQ(freed.load(std::memory_order_relaxed), 1u);
}

TEST(EbrTest, ByteHeavyRetireAdvancesBeforeTheEighthRetire) {
  std::atomic<uint64_t> freed{0};
  // An advance on a quiescent collector restarts the every-8th-retire count
  // and leaves the current bucket empty.
  ASSERT_TRUE(Collector::Global().TryAdvance());
  const uint64_t before = Collector::Global().EpochForTest();
  // Each 8 MiB retire is the first since the advance before it, so only
  // its bytes make it attempt an advance, which succeeds because nothing
  // is pinned. The third fills the last of the three buckets.
  for (uint64_t i = 1; i <= 3; ++i) {
    RetireTracked(new Tracked{&freed}, 8u << 20);
    EXPECT_EQ(Collector::Global().EpochForTest(), before + i);
  }
  // The last advance swapped out the bucket the first retire filled, and
  // its bytes with it: two retires of 4 MiB into it advance on the second,
  // not on the first.
  RetireTracked(new Tracked{&freed}, 4u << 20);
  EXPECT_EQ(Collector::Global().EpochForTest(), before + 3);
  RetireTracked(new Tracked{&freed}, 4u << 20);
  EXPECT_EQ(Collector::Global().EpochForTest(), before + 4);
  ASSERT_TRUE(Collector::Global().DrainForTest());
  EXPECT_EQ(freed.load(std::memory_order_relaxed), 5u);
}

TEST(EbrTest, LimboBytesGaugeSumsTheHintsWhilePinned) {
  ASSERT_TRUE(obs::Enabled());
  ASSERT_TRUE(Collector::Global().DrainForTest());
  const obs::Gauge* gauge =
      obs::MetricsRegistry::Global().GetGauge("ebr.limbo_bytes");
  const int64_t base = gauge->Value();
  std::atomic<uint64_t> freed{0};
  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  // The reader's Guard lets the collector advance at most once past its
  // era, which frees only the drained (empty) bucket, so every object
  // retired below stays in limbo.
  std::thread reader([&] {
    const Guard guard;
    pinned.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  while (!pinned.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  int64_t hinted = 0;
  for (size_t i = 1; i <= 40; ++i) {
    RetireTracked(new Tracked{&freed}, i * 1000);
    hinted += static_cast<int64_t>(i * 1000);
    EXPECT_EQ(gauge->Value() - base, hinted) << "after retire " << i;
  }
  EXPECT_EQ(freed.load(std::memory_order_relaxed), 0u);

  release.store(true, std::memory_order_release);
  reader.join();
  ASSERT_TRUE(Collector::Global().DrainForTest());
  EXPECT_EQ(freed.load(std::memory_order_relaxed), 40u);
  EXPECT_EQ(gauge->Value(), base);
}

TEST(EbrTest, GuardsNest) {
  std::atomic<uint64_t> freed{0};
  {
    const Guard outer;
    EXPECT_EQ(Collector::Global().PinnedThreadsForTest(), 1u);
    {
      const Guard inner;
      // The nested Guard is a depth bump, not a second slot.
      EXPECT_EQ(Collector::Global().PinnedThreadsForTest(), 1u);
      RetireTracked(new Tracked{&freed});
    }
    // Still pinned: the inner Guard's destruction must not unpin.
    EXPECT_EQ(Collector::Global().PinnedThreadsForTest(), 1u);
  }
  EXPECT_EQ(Collector::Global().PinnedThreadsForTest(), 0u);
  ASSERT_TRUE(Collector::Global().DrainForTest());
  EXPECT_EQ(freed.load(std::memory_order_relaxed), 1u);
}

TEST(EbrTest, RegisterUnregisterChurn) {
  // More thread lifetimes than the slot table holds: passes only if exiting
  // threads recycle their slots (Collector CHECK-fails on exhaustion).
  constexpr size_t kSequential = Collector::kMaxSlots + 64;
  for (size_t i = 0; i < kSequential; ++i) {
    std::thread t([] { const Guard guard; });
    t.join();
  }
  // Concurrent batches: every thread in a wave pins at once, then the whole
  // wave exits and the next wave reclaims the slots.
  for (int round = 0; round < 8; ++round) {
    std::vector<std::thread> wave;
    for (int i = 0; i < 32; ++i) {
      wave.emplace_back([] {
        for (int j = 0; j < 16; ++j) {
          const Guard guard;
        }
      });
    }
    for (auto& t : wave) t.join();
  }
  EXPECT_EQ(Collector::Global().PinnedThreadsForTest(), 0u);
}

TEST(EbrTest, RetireDeleteRunsDestructor) {
  struct Payload {
    std::atomic<uint64_t>* destroyed;
    ~Payload() { destroyed->fetch_add(1, std::memory_order_relaxed); }
  };
  std::atomic<uint64_t> destroyed{0};
  ebr::RetireDelete(new Payload{&destroyed}, /*extra_bytes=*/1024);
  ASSERT_TRUE(Collector::Global().DrainForTest());
  EXPECT_EQ(destroyed.load(std::memory_order_relaxed), 1u);
  EXPECT_EQ(Collector::Global().LimboObjectsForTest(), 0u);
}

// TSan hammer: readers chase an atomic pointer the writer keeps swapping
// and retiring. Any premature free is a use-after-free TSan/ASan will trip
// on; the payload invariant (lo == ~hi) catches torn or stale reads.
TEST(EbrTest, HammerReadersVsRetiringWriter) {
  struct Node {
    uint64_t lo;
    uint64_t hi;
  };
  constexpr int kReaders = 4;
  constexpr int kSwaps = 3000;

  std::atomic<Node*> shared{new Node{1, ~uint64_t{1}}};
  std::atomic<bool> stop{false};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const Guard guard;
        // acquire pairs with the writer's release exchange below.
        const Node* node = shared.load(std::memory_order_acquire);
        ASSERT_NE(node, nullptr);
        // The node stays valid for the Guard's lifetime even if the writer
        // has already unlinked and retired it.
        EXPECT_EQ(node->lo, ~node->hi);
      }
    });
  }

  for (int i = 2; i < kSwaps; ++i) {
    Node* fresh = new Node{static_cast<uint64_t>(i), ~static_cast<uint64_t>(i)};
    const Node* old = shared.exchange(fresh, std::memory_order_acq_rel);
    ebr::RetireDelete(old, sizeof(Node));
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  const Node* last = shared.exchange(nullptr, std::memory_order_acq_rel);
  ebr::RetireDelete(last, sizeof(Node));
  ASSERT_TRUE(Collector::Global().DrainForTest());
  EXPECT_EQ(Collector::Global().LimboObjectsForTest(), 0u);
}

}  // namespace
}  // namespace cubrick
