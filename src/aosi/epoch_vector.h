// The per-partition `epochs` auxiliary vector (paper §III-C).
//
// This structure is the heart of AOSI's memory efficiency: instead of one or
// two timestamps per record (MVCC), each partition keeps one small entry per
// (transaction, contiguous append run). Each entry is a pair of 64-bit
// integers: the transaction's epoch and the implicit id of the last record
// that transaction appended. One bit of the second integer is reserved as
// the is_delete flag; a delete entry marks the whole partition as deleted at
// that point and stores the data-vector size at delete time.
//
// A brick's vector is plain state of its shard (paper §V-B): only the
// owning shard thread reads or writes it, inside that shard's ops, so it
// needs no synchronization. Capacity doubles from one entry, and is exact
// after a copy, FromRuns and InstallRebuilt: MemoryUsage charges capacity,
// which is what Figures 6 and 7 report.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "aosi/epoch.h"
#include "common/status.h"

namespace cubrick::aosi {

/// One element of the epochs vector: 16 bytes, exactly as the paper sizes it.
struct EpochEntry {
  /// Transaction that performed the append / delete.
  Epoch epoch = kNoEpoch;
  /// For appends: implicit id (index) of the LAST record of the run, with the
  /// delete bit clear. For deletes: the data-vector size at delete time (the
  /// index one past the last record the marker covers), with the bit set.
  uint64_t packed = 0;

  static constexpr uint64_t kDeleteBit = 1ULL << 63;

  bool is_delete() const { return (packed & kDeleteBit) != 0; }
  uint64_t index() const { return packed & ~kDeleteBit; }

  static EpochEntry Append(Epoch e, uint64_t last_idx) {
    return {e, last_idx};
  }
  static EpochEntry Delete(Epoch e, uint64_t boundary) {
    return {e, boundary | kDeleteBit};
  }

  bool operator==(const EpochEntry& other) const {
    return epoch == other.epoch && packed == other.packed;
  }
};

static_assert(sizeof(EpochEntry) == 16,
              "epochs vector must cost 16 bytes per entry");

/// A decoded view of one entry, with explicit [begin, end) record range for
/// append runs. Produced by EpochVector::Decode() for scans and purge.
struct EpochRun {
  Epoch epoch = kNoEpoch;
  /// Append runs: records [begin, end). Delete markers: begin == end ==
  /// the marker's boundary position.
  uint64_t begin = 0;
  uint64_t end = 0;
  bool is_delete = false;
};

/// Append-only transactional history of one partition. Shard state: only
/// the owning shard thread touches it (see file comment).
class EpochVector {
 public:
  EpochVector() = default;

  /// A copy (plan construction, tests) holds exactly the source's entries
  /// and keeps its version. A moved-from vector is empty.
  EpochVector(const EpochVector& other) = default;
  EpochVector(EpochVector&& other) noexcept;
  /// Copy-and-swap, so a copy-assign is as exact as a copy: std::vector's
  /// own copy-assign would keep the target's larger capacity.
  EpochVector& operator=(EpochVector other) noexcept;

  /// Records that `txn` appended `count` records to the back of the data
  /// vectors. Extends the back entry in place when `txn` was also the last
  /// writer (Fig 1 (b)), so that allocates nothing; otherwise appends a new
  /// entry.
  void RecordAppend(Epoch txn, uint64_t count);

  /// Records a partition delete by `txn` (§III-C2). The marker covers every
  /// record currently in the partition.
  void RecordDelete(Epoch txn);

  /// Number of records tracked (i.e. size of the partition's data vectors).
  /// Derived from the back entry, so it is always consistent with entries().
  uint64_t num_records() const;

  /// Monotonic mutation counter: bumped by every append, delete marker and
  /// InstallRebuilt (purge/rollback/truncate compactions). Visibility-bitmap
  /// caches key on it, so any history change invalidates every cached
  /// bitmap for the partition; purge's install checks its plan against it.
  uint64_t version() const { return version_; }

  /// The largest epoch stamped on any entry (appends and delete markers),
  /// or kNoEpoch when empty. Maintained incrementally so callers can clamp
  /// a snapshot to its *effective* horizon in O(1): any snapshot at or past
  /// max_epoch() sees the same history prefix, which is what lets bitmap
  /// caches share entries across readers.
  Epoch max_epoch() const { return max_epoch_; }

  /// Number of delete markers held. Kept as a count so a scan can tell in
  /// O(1) whether a snapshot sees the whole partition (aosi::SeesWhole):
  /// a history with a marker never qualifies, since a visible marker
  /// clears records.
  uint64_t num_deletes() const { return num_deletes_; }

  /// Number of entries currently held (appends + delete markers).
  size_t num_entries() const { return entries_.size(); }

  /// The entries, in physical order.
  const std::vector<EpochEntry>& entries() const { return entries_; }

  /// Expands entries into explicit record ranges, in physical order.
  std::vector<EpochRun> Decode() const;

  /// Like Decode() but stops after `max_runs` runs; sets *truncated (may be
  /// nullptr) when entries remain beyond the bound. Keeps bounded consumers
  /// — the online checker's scan hook observes at most
  /// aosi::kMaxObservedRuns runs — O(bound) instead of O(history).
  std::vector<EpochRun> DecodePrefix(size_t max_runs, bool* truncated) const;

  /// Bytes of heap memory consumed by the entries array. This is the "AOSI
  /// overhead" series of the paper's Figures 6/7.
  size_t MemoryUsage() const {
    return entries_.capacity() * sizeof(EpochEntry);
  }

  /// Directly installs decoded runs — used by purge/rollback to rebuild a
  /// partition's history. Runs must be in physical order; append runs must
  /// be contiguous starting at record 0.
  static EpochVector FromRuns(const std::vector<EpochRun>& runs);

  /// Replaces this vector's contents with an exact copy of `rebuilt`'s (a
  /// compaction plan's new_history) while *advancing* — never resetting —
  /// the version counter, so caches keyed on (this partition, version)
  /// invalidate. The old capacity goes with the old contents, so the memory
  /// a purge recycles returns (Fig 6's post-purge drop).
  void InstallRebuilt(const EpochVector& rebuilt);

  bool operator==(const EpochVector& other) const {
    return entries_ == other.entries_;
  }

  /// Debug rendering: "[e1:0-2][e2:3-6][e1:del@7]".
  std::string ToString() const;

 private:
  /// Appends `entry`, doubling the capacity from one entry when full.
  void Push(EpochEntry entry);

  std::vector<EpochEntry> entries_;
  uint64_t version_ = 0;
  /// See max_epoch().
  Epoch max_epoch_ = kNoEpoch;
  /// See num_deletes().
  uint64_t num_deletes_ = 0;
};

}  // namespace cubrick::aosi
