// Epoch-based memory reclamation (EBR).
//
// EBR is for readers that race a writer unlinking what they read. Shards
// are single-writer (paper §V-B) and scans, Materialize walks and brick
// mutations all run as ops on the brick's own shard, so nearly everything
// is freed at once by its owner. The one reader that works off the shard is
// concurrent purge (§III-C4, Table::Purge), and EBR guards exactly what it
// reads there:
//
//  * EpochVector Reps: the purge plan reads a brick's history through
//    PinnedSnapshot while the shard keeps appending, and a history change
//    that would rewrite published entries swaps in a fresh Rep and retires
//    the old one.
//  * Bricks: purge holds Brick pointers collected in one shard op across
//    later ones, and BrickMap::Erase retires the bricks it unlinks.
//
// It uses the classic three-epoch scheme (Fraser 2004; EEMARQ, arXiv
// 2210.17086):
//
//  * A global epoch advances monotonically. Each reader thread owns one slot
//    in a fixed-size table and *pins* itself to the epoch it observed for
//    the duration of a critical section (the RAII `Guard`).
//  * Unlinking an object from a shared structure and then calling
//    `Retire(ptr, deleter, bytes)` places it in the limbo list of the
//    current epoch. The object stays reachable only to threads already
//    inside a critical section.
//  * `TryAdvance()` moves the global epoch from e to e+1 once every pinned
//    slot has observed e. At that moment the limbo list of epoch e-2 is
//    freed: any thread that could still hold a retired pointer was pinned
//    at the retire epoch or earlier, and such pins block the two advances
//    required to get here.
//
// Safety contract (enforced by aosi_lint's `ebr-guard` rule; rationale in
// DESIGN.md §4d "Memory reclamation"):
//
//  * A pointer obtained from an EBR-protected structure may be dereferenced
//    only while the `Guard` under which it was obtained is alive.
//  * Retire-managed objects must die through their registered deleter; a
//    direct `delete` is only legal inside another retire-managed object's
//    destructor (which itself runs at a safe epoch) and carries an
//    `// ebr-deleter` marker for the linter.
//  * Guards must not be held across blocking waits on other guards'
//    progress (there are none in-tree: TryAdvance never blocks).
//
// Guards nest: an inner Guard on an already-pinned thread is a counter
// bump, so a helper can pin defensively while its caller holds a guard
// (Table::Purge pins once for a whole round).
//
// Health metrics (docs/OBSERVABILITY.md, "ebr.*") are published into
// obs::MetricsRegistry::Global(): pinned threads, limbo bytes/objects,
// advances and advance stalls.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/mutex.h"

namespace cubrick::obs {
class Counter;
class Gauge;
}  // namespace cubrick::obs

namespace cubrick::ebr {

class Guard;

/// The process-wide collector: global epoch, per-thread pin slots, and the
/// three limbo buckets. All users share Collector::Global() — reclamation
/// safety is a whole-process property, so per-subsystem collectors would
/// only multiply the epoch bookkeeping without isolating anything.
class Collector {
 public:
  /// Upper bound on concurrently *registered* threads (slots are recycled
  /// when a thread exits). Shard threads + pool workers + test threads stay
  /// far below this.
  static constexpr size_t kMaxSlots = 256;

  /// Epochs retired objects wait before free: bucket count of the classic
  /// three-epoch scheme.
  static constexpr uint64_t kBuckets = 3;

  static Collector& Global();

  ~Collector();

  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  /// Places `ptr` in the current epoch's limbo list; `deleter(ptr)` runs
  /// after two epoch advances, when no pinned thread can still hold it.
  /// `bytes` is an accounting hint for the ebr.limbo_bytes gauge and the
  /// advance heuristic. The caller must already have unlinked `ptr` from
  /// every shared structure. Safe to call with or without a live Guard,
  /// and from inside another retiree's deleter.
  void Retire(void* ptr, void (*deleter)(void*), size_t bytes);

  /// Attempts one epoch advance; frees the limbo bucket that becomes
  /// unreachable on success. Returns true when the epoch advanced. Never
  /// blocks: a pinned straggler makes it return false (counted in
  /// ebr.advance_stalls). Retire() calls this on an amortized schedule, so
  /// explicit calls are only needed to bound reclamation lag after bulk
  /// retirement (e.g. the end of a purge round).
  bool TryAdvance();

  /// Test-only: advances until the limbo lists are empty or a pinned guard
  /// blocks progress. Returns true when limbo drained completely.
  bool DrainForTest();

  /// Test-only observers.
  uint64_t EpochForTest() const;
  size_t LimboObjectsForTest() const;
  size_t PinnedThreadsForTest() const;

 private:
  friend class Guard;

  /// One per-thread pin slot. state packs (epoch << 1) | pinned. Padded to
  /// a cache line so pin/unpin of neighbouring threads never false-share.
  struct alignas(64) Slot {
    std::atomic<uint64_t> state{0};
    std::atomic<bool> in_use{false};
  };

  struct Retired {
    void* ptr;
    void (*deleter)(void*);
    size_t bytes;
  };

  /// Per-thread slot handle + Guard nesting depth (defined in ebr.cc).
  struct ThreadReg;

  Collector();

  /// The calling thread's registration (function-local thread_local).
  static ThreadReg& LocalReg();

  /// Outermost-Guard pin/unpin for the calling thread, claiming a slot on
  /// first use. Nested Guards only touch the thread-local depth counter.
  void PinThisThread();
  void UnpinThisThread();

  static uint64_t Pack(uint64_t epoch, bool pinned) {
    return (epoch << 1) | (pinned ? 1u : 0u);
  }
  static uint64_t StateEra(uint64_t state) { return state >> 1; }
  static bool StatePinned(uint64_t state) { return (state & 1u) != 0; }

  /// The calling thread's slot, registering it on first use (thread_local
  /// cache in ebr.cc; the slot is recycled when the thread exits).
  Slot* SlotForThisThread();

  /// Pin/unpin the outermost Guard of the calling thread.
  void Pin(Slot* slot);
  void Unpin(Slot* slot);

  /// Frees a drained bucket's contents outside limbo_mu_ (deleters may
  /// recursively Retire).
  void Free(std::vector<Retired> batch);

  /// Global epoch. Written only under limbo_mu_ (release); read lock-free
  /// by Pin.
  std::atomic<uint64_t> global_epoch_{0};

  Slot slots_[kMaxSlots];

  /// Serializes retire bookkeeping and epoch advances. Never held while
  /// running deleters and never held across anything blocking, so it cannot
  /// participate in lock cycles.
  mutable Mutex limbo_mu_;
  /// limbo_[e % kBuckets] holds objects retired while the global epoch was
  /// e (for the currently reachable window of epochs).
  std::vector<Retired> limbo_[kBuckets] GUARDED_BY(limbo_mu_);
  /// bucket_bytes_[b] is the sum of limbo_[b]'s byte hints: added to on
  /// every push and reset when the bucket is swapped out, so a retire
  /// reads its bucket's bytes in O(1).
  size_t bucket_bytes_[kBuckets] GUARDED_BY(limbo_mu_) = {};
  /// Retires since the last advance attempt (the amortization counter).
  size_t retires_since_advance_ GUARDED_BY(limbo_mu_) = 0;

  // ebr.* instruments, resolved once at construction.
  obs::Counter* retired_total_;
  obs::Counter* freed_total_;
  obs::Counter* advances_total_;
  obs::Counter* advance_stalls_;
  obs::Gauge* limbo_bytes_;
  obs::Gauge* limbo_objects_;
  obs::Gauge* pinned_threads_;
  obs::Gauge* epoch_gauge_;
};

/// RAII critical-section pin against Collector::Global(). Cheap (one store
/// + one fence on the outermost pin, a counter bump when nested) and
/// reentrant. Must be stack-scoped on the acquiring thread; never store a
/// Guard in a structure another thread destroys.
class Guard {
 public:
  Guard();
  ~Guard();

  Guard(const Guard&) = delete;
  Guard& operator=(const Guard&) = delete;
};

/// Convenience: retires `ptr` with a deleter that `delete`s it as T,
/// charging sizeof(T) + `extra_bytes` to the limbo accounting.
template <typename T>
void RetireDelete(const T* ptr, size_t extra_bytes = 0) {
  if (ptr == nullptr) return;
  Collector::Global().Retire(
      const_cast<T*>(ptr),
      [](void* p) {
        delete static_cast<T*>(p);  // ebr-deleter
      },
      sizeof(T) + extra_bytes);
}

}  // namespace cubrick::ebr
