// Dictionary encoding for string columns (paper §V-A).
//
// An auxiliary map is associated with each string column to encode values
// into a monotonically increasing dense id. Encoding all strings lets the
// aggregation core deal exclusively with numbers.
//
// Two-phase encode (DESIGN.md §4f): the ingest pipeline first looks every
// string up against an immutable snapshot of the map — lock-free, so
// parallel encode workers stop serializing on the dictionary mutex — then
// collects the misses, dedupes and sorts them, and inserts them in one
// deterministic batch. Sorted-batch assignment makes the ids a pure
// function of (dictionary state, set of new strings): independent of
// record order within the batch and of how the batch was chunked across
// threads, which is what keeps parallel ingest bit-identical to serial
// replay.
//
// Snapshots are shared: AcquireSnapshot() hands out shared ownership of an
// immutable map, so a parse worker reads its snapshot for as long as it
// holds it, whatever inserts (or the dictionary's destruction) happen
// meanwhile.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"

namespace cubrick {

class StringDictionary {
 public:
  /// Immutable copy of the encode map for the lock-free lookup phase.
  struct DictSnapshot {
    std::unordered_map<std::string, uint64_t> to_id;

    /// Lookup against the snapshot; returns false on miss.
    bool Find(const std::string& value, uint64_t* id) const {
      auto it = to_id.find(value);
      if (it == to_id.end()) return false;
      *id = it->second;
      return true;
    }
  };

  StringDictionary() = default;

  StringDictionary(const StringDictionary&) = delete;
  StringDictionary& operator=(const StringDictionary&) = delete;

  /// Returns the id for `value`, inserting it if new. Thread-safe: parsing
  /// runs on whichever node received the load buffer.
  uint64_t EncodeOrAdd(const std::string& value);

  /// Returns the id for `value` or NotFound without inserting.
  Result<uint64_t> Encode(const std::string& value) const;

  /// Returns the string for `id` or OutOfRange.
  Result<std::string> Decode(uint64_t id) const;

  /// The current immutable snapshot for lock-free lookups, taken under the
  /// mutex and rebuilt there when an EncodeOrAdd has dropped the last one.
  /// Later inserts never change a snapshot already handed out.
  std::shared_ptr<const DictSnapshot> AcquireSnapshot() const;

  /// Deterministic batch insert: `sorted_misses` must be sorted and
  /// deduplicated. Every string not already present is assigned the next
  /// dense id in sorted order. Returns how many strings were inserted
  /// (already-present entries — e.g. raced in by a concurrent load — are
  /// skipped, never reassigned). Rebuilds the snapshot when it inserts.
  size_t InsertSortedBatch(const std::vector<std::string>& sorted_misses);

  size_t size() const;

  /// Approximate heap bytes held by the dictionary (both directions;
  /// excludes the transient lookup snapshot).
  size_t MemoryUsage() const;

 private:
  /// A fresh snapshot of the authoritative map.
  std::shared_ptr<const DictSnapshot> BuildSnapshotLocked() const
      REQUIRES(mutex_);

  mutable Mutex mutex_;
  std::unordered_map<std::string, uint64_t> to_id_ GUARDED_BY(mutex_);
  std::vector<std::string> to_string_ GUARDED_BY(mutex_);
  /// The current snapshot, or null when an EncodeOrAdd has made it stale.
  mutable std::shared_ptr<const DictSnapshot> snapshot_ GUARDED_BY(mutex_);
};

}  // namespace cubrick
