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
// Concurrency (PR 8). Mutations still come from a single shard thread
// (paper §V-B), but the entries now live in an immutable-prefix `Rep` behind
// an atomic pointer so an *off-thread* reader holding an ebr::Guard can
// traverse a consistent snapshot while the shard keeps appending — this is
// what lets purge plan compactions concurrently with scans instead of at
// quiescent points. The write protocol:
//
//   * Published entries ([0, size)) of a Rep are never rewritten. Appending
//     a new entry writes the spare-capacity slot, then publishes it with a
//     release store of `size`.
//   * Anything that would rewrite published state — extending the back run
//     in place (Fig 1 (b)), growing capacity, InstallRebuilt, ShrinkToFit —
//     copies into a fresh Rep, publishes it with a release store of `rep_`,
//     and retires the old Rep through ebr::Collector (readers pinned before
//     the swap keep traversing their snapshot safely).
//   * `version_` is stored (release) strictly *after* the data it stamps.
//     PinnedSnapshot reads version / data / version and retries on
//     mismatch, so an accepted snapshot's entries always correspond to a
//     version at or after the stamp — a concurrent-purge plan built from it
//     can fail its version-checked install (and replan) but can never
//     install against newer data it did not see.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
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

/// Borrowed, iterable window over a Rep's published entries. Valid for as
/// long as its source guarantees the Rep stays alive: on the owning shard
/// thread until the next mutation, off-thread for the lifetime of the
/// ebr::Guard it was obtained under.
class EntriesView {
 public:
  EntriesView() = default;
  EntriesView(const EpochEntry* data, size_t size)
      : data_(data), size_(size) {}

  const EpochEntry* begin() const { return data_; }
  const EpochEntry* end() const { return data_ + size_; }
  const EpochEntry& operator[](size_t i) const { return data_[i]; }
  const EpochEntry& back() const { return data_[size_ - 1]; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  const EpochEntry* data_ = nullptr;
  size_t size_ = 0;
};

/// A validated consistent snapshot of one partition's history, taken
/// off-thread under an ebr::Guard (EpochVector::PinnedSnapshot). `entries`
/// borrows the pinned Rep: it stays readable until the Guard dies.
struct HistoryView {
  EntriesView entries;
  /// Mutation-counter stamp the snapshot is consistent with. The entries
  /// may belong to `version` or to a *later* mutation whose version store
  /// was not yet visible — never to an earlier one — so installing against
  /// a live history still at `version` is always installing against
  /// exactly these entries.
  uint64_t version = 0;
  uint64_t num_records = 0;
  Epoch max_epoch = kNoEpoch;
};

/// Append-only transactional history of one partition.
///
/// Single shard-thread writer; lock-free concurrent readers via
/// PinnedSnapshot under an ebr::Guard (see file comment).
class EpochVector {
 public:
  EpochVector();
  ~EpochVector();

  /// Deep copies (plan construction, tests). The copy starts life with the
  /// source's version so a plan stamped from the original validates.
  EpochVector(const EpochVector& other);
  EpochVector& operator=(const EpochVector& other);
  EpochVector(EpochVector&& other) noexcept;
  EpochVector& operator=(EpochVector&& other) noexcept;

  /// Records that `txn` appended `count` records to the back of the data
  /// vectors. Extends the back entry when `txn` was also the last writer
  /// (Fig 1 (b)) — via a fresh Rep, since published entries are immutable —
  /// otherwise appends a new entry in place.
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
  /// bitmap for the partition; concurrent purge validates its plans
  /// against it.
  uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

  /// The largest epoch stamped on any entry (appends and delete markers),
  /// or kNoEpoch when empty. Maintained incrementally so callers can clamp
  /// a snapshot to its *effective* horizon in O(1): any snapshot at or past
  /// max_epoch() sees the same history prefix, which is what lets bitmap
  /// caches share entries across readers.
  Epoch max_epoch() const {
    return max_epoch_.load(std::memory_order_acquire);
  }

  /// Number of delete markers held. Kept as a count so a scan can tell in
  /// O(1) whether a snapshot sees the whole partition (aosi::SeesWhole):
  /// a history with a marker never qualifies, since a visible marker
  /// clears records.
  uint64_t num_deletes() const {
    return num_deletes_.load(std::memory_order_acquire);
  }

  /// Number of entries currently held (appends + delete markers).
  size_t num_entries() const;

  /// Borrowed view of the entries. Owning-shard-thread or Guard-protected
  /// use only (see EntriesView).
  EntriesView entries() const;

  /// Off-thread consistent snapshot. REQUIRES a live ebr::Guard on the
  /// calling thread (enforced by aosi_lint's ebr-guard rule): the returned
  /// view borrows the pinned Rep. Returns false when the history mutated
  /// faster than the bounded retry loop could validate — callers skip or
  /// retry the partition.
  bool PinnedSnapshot(HistoryView* out) const;

  /// Expands entries into explicit record ranges, in physical order.
  std::vector<EpochRun> Decode() const;

  /// Like Decode() but stops after `max_runs` runs; sets *truncated (may be
  /// nullptr) when entries remain beyond the bound. Keeps bounded consumers
  /// — the online checker's scan hook observes at most
  /// aosi::kMaxObservedRuns runs — O(bound) instead of O(history).
  std::vector<EpochRun> DecodePrefix(size_t max_runs, bool* truncated) const;

  /// Decodes a snapshot's borrowed entries — what concurrent purge planning
  /// feeds to PlanPurge while the shard keeps writing.
  static std::vector<EpochRun> DecodeView(const HistoryView& view);

  /// Bytes of heap memory consumed by the entries array. This is the "AOSI
  /// overhead" series of the paper's Figures 6/7.
  size_t MemoryUsage() const;

  /// Releases unused capacity (after purge/compaction) by installing an
  /// exact-size Rep; the old one is EBR-retired.
  void ShrinkToFit();

  /// Directly installs decoded runs — used by purge/rollback to rebuild a
  /// partition's history. Runs must be in physical order; append runs must
  /// be contiguous starting at record 0.
  static EpochVector FromRuns(const std::vector<EpochRun>& runs);

  /// Replaces this vector's contents with `rebuilt`'s (a compaction plan's
  /// new_history) while *advancing* — never resetting — the version
  /// counter, so caches keyed on (this partition, version) invalidate.
  /// The displaced Rep is EBR-retired: concurrently pinned readers keep
  /// traversing the pre-install snapshot.
  void InstallRebuilt(const EpochVector& rebuilt);

  bool operator==(const EpochVector& other) const;

  /// Debug rendering: "[e1:0-2][e2:3-6][e1:del@7]".
  std::string ToString() const;

 private:
  /// Heap representation: fixed-capacity entry array + published count.
  /// Entries [0, size) are immutable; the slot at `size` is the shard
  /// thread's private staging area until the release store of `size`
  /// publishes it.
  struct Rep {
    explicit Rep(size_t cap)
        : capacity(cap), slots(cap > 0 ? new EpochEntry[cap] : nullptr) {}

    const size_t capacity;
    const std::unique_ptr<EpochEntry[]> slots;
    std::atomic<size_t> size{0};
  };

  /// Allocates a Rep with `cap` capacity holding copies of entries [0, n)
  /// of `src` (which may be null when n == 0).
  static Rep* CloneRep(const EpochEntry* src, size_t n, size_t cap);

  /// num_records derived from the published back entry.
  static uint64_t RecordsOf(const EpochEntry* slots, size_t n);

  /// Single-writer view of the current Rep (owning shard thread only).
  Rep* OwnerRep() const {
    return rep_.load(std::memory_order_relaxed);
  }

  /// Publishes `fresh` and EBR-retires the displaced Rep. Does not touch
  /// version_ — callers stamp it after (data first, version last).
  void SwapRep(Rep* fresh);

  /// Bumps the mutation counter (single writer: load + store, no RMW).
  void BumpVersion();

  std::atomic<Rep*> rep_;
  std::atomic<uint64_t> version_{0};
  /// See max_epoch().
  std::atomic<Epoch> max_epoch_{kNoEpoch};
  /// See num_deletes().
  std::atomic<uint64_t> num_deletes_{0};
};

}  // namespace cubrick::aosi
