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
// append to free.
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
// Concurrency. A brick's cache is ordinary state of the shard that owns the
// brick (paper §V-B: single-writer shards need no low-level locking on the
// bricks). Every Lookup, Publish and Clear runs inside an op on that shard:
// a scan or Materialize walk, an append, a delete or a compaction install.
// A scan whose worker budget exceeds its shard count hands each brick to
// exactly one pool worker while the shard's op waits for it, so no two
// threads touch one cache at once. Publish and Clear free the entries they
// displace at once.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "aosi/epoch.h"
#include "aosi/epoch_vector.h"
#include "common/bitmap.h"

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

  /// The normalized cache key for an SI scan of `history` under
  /// `snapshot`.
  static VisKey MakeKey(const EpochVector& history, const Snapshot& snapshot);

  /// The cached bitmap for `key`, or nullptr on miss. The pointer stays
  /// valid until the brick's next Publish or Clear, which only a later op
  /// on the brick's shard can make.
  const Bitmap* Lookup(const VisKey& key) const;

  struct PublishResult {
    /// The published (now cache-owned) bitmap. Never nullptr: Publish
    /// always publishes.
    const Bitmap* published = nullptr;
    /// True when storing displaced (and freed) an older entry.
    bool evicted = false;
  };

  /// Stores `*bitmap` (moved from) under `key`, freeing the entry in the
  /// round-robin victim slot.
  PublishResult Publish(const VisKey& key, Bitmap* bitmap);

  /// Frees every entry.
  void Clear();

 private:
  struct Entry {
    VisKey key;
    Bitmap bitmap;
  };

  std::array<std::unique_ptr<const Entry>, kSlots> slots_;
  /// Round-robin victim cursor; see Publish.
  size_t next_victim_ = 0;
};

}  // namespace cubrick::aosi
