// Per-partition visibility-bitmap cache.
//
// §III-C3 bitmap generation is AOSI's only per-query concurrency-control
// cost, and the bitmap a scan builds is a pure function of (the partition's
// epochs vector, the snapshot). In the steady state — readers far behind no
// writer, or writers idle — consecutive scans of a brick recompute the exact
// same bitmap. This cache memoizes those bitmaps per brick.
//
// Only SI bitmaps of bricks the snapshot does not see whole live here. A
// scan whose snapshot sees the whole brick (aosi::SeesWhole), and every RU
// scan, takes a reused all-ones mask from its scan worker instead
// (query/executor.cc): no build, no lookup and no entry for the next
// append to retire.
//
// Keying. A cached entry is tagged with a VisKey:
//   - history_version: EpochVector::version(), bumped by every append,
//     delete marker and compaction install, so any history change
//     invalidates every cached bitmap without the cache ever observing the
//     mutation.
//   - horizon: the snapshot epoch clamped to the history's max_epoch().
//     Every snapshot at or past the newest stamp in the partition sees the
//     same prefix, so scans at epoch 1000 and 1007 over a partition whose
//     newest entry is 900 share one entry — the property that makes the
//     cache hit across an advancing epoch clock.
//   - deps: the snapshot's pendingTxs restricted to epochs at or before the
//     horizon (later deps cannot mask anything the horizon admits). Compared
//     *exactly* — a fingerprint collision would be a correctness bug, so no
//     fingerprint is ever trusted for equality.
//
// Concurrency (PR 8: EBR retirement). Bricks are single-writer (paper
// §V-B), and each scan assigns a brick to exactly one morsel worker, but
// slots are accessed from different threads across scans, so entries are
// published with release stores of immutable heap entries and read with
// acquire loads — TSan-clean with no locks on the hit path. Entries
// displaced by Publish or Clear are retired through ebr::Collector instead
// of waiting for a quiescent point: a pointer returned by Lookup stays
// valid for as long as the caller's ebr::Guard is alive (every scan entry
// point pins one), and the old kMaxRetired backlog — which made Publish
// silently decline under pure-read snapshot churn — is gone. Publish always
// publishes, and Clear() no longer needs scan quiescence, which is what lets
// purge compact bricks while scans are in flight.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "aosi/epoch.h"
#include "aosi/epoch_vector.h"
#include "common/bitmap.h"
#include "common/ebr.h"

namespace cubrick::aosi {

/// Identity of one cached visibility bitmap. See file comment for the
/// normalization that makes distinct snapshots share entries.
struct VisKey {
  uint64_t history_version = 0;
  Epoch horizon = kNoEpoch;
  EpochSet deps;

  bool operator==(const VisKey& other) const {
    return history_version == other.history_version &&
           SameEpoch(horizon, other.horizon) && deps == other.deps;
  }
};

/// Small per-brick slot cache of visibility bitmaps. Owned by Brick;
/// mutable state of a const brick (scans are logically read-only).
class VisibilityCache {
 public:
  /// Distinct (horizon, deps) combinations live per brick. More than a
  /// handful of concurrently useful snapshots per partition means writers
  /// are active, in which case the version tag churns anyway.
  static constexpr size_t kSlots = 8;

  VisibilityCache() {
    for (auto& slot : slots_) {
      slot.store(nullptr, std::memory_order_relaxed);
    }
  }
  ~VisibilityCache() { Clear(); }

  VisibilityCache(const VisibilityCache&) = delete;
  VisibilityCache& operator=(const VisibilityCache&) = delete;

  /// The normalized cache key for an SI scan of `history` under
  /// `snapshot`.
  static VisKey MakeKey(const EpochVector& history, const Snapshot& snapshot);

  /// The cached bitmap for `key`, or nullptr on miss. The pointer stays
  /// valid while the caller's ebr::Guard is alive (see file comment).
  const Bitmap* Lookup(const VisKey& key) const;

  struct PublishResult {
    /// The published (now cache-owned) bitmap. Never nullptr: with EBR
    /// retirement there is no backlog bound, so Publish cannot decline.
    const Bitmap* published = nullptr;
    /// True when storing displaced an older entry (now EBR-retired).
    bool evicted = false;
  };

  /// Stores `*bitmap` (moved from) under `key`, displacing the round-robin
  /// victim slot; the victim is EBR-retired. Safe to call while other
  /// threads Lookup under their own Guards.
  PublishResult Publish(const VisKey& key, Bitmap* bitmap);

  /// Unlinks and EBR-retires every entry. Callable from the shard thread
  /// even while off-thread scans hold Lookup pointers under live Guards —
  /// retirement defers the frees past their critical sections.
  void Clear();

 private:
  struct Entry {
    VisKey key;
    Bitmap bitmap;
  };

  /// Unlinked entries go through the shared collector; charge the bitmap's
  /// heap to the limbo accounting.
  static void Retire(const Entry* entry) {
    ebr::RetireDelete(entry, entry->bitmap.MemoryUsage());
  }

  std::array<std::atomic<const Entry*>, kSlots> slots_;
  /// relaxed round-robin victim cursor; see Publish.
  std::atomic<uint64_t> next_victim_{0};
};

}  // namespace cubrick::aosi
