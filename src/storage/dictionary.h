// Dictionary encoding for string columns (paper §V-A).
//
// An auxiliary map is associated with each string column to encode values
// into a monotonically increasing dense id. Encoding all strings lets the
// aggregation core deal exclusively with numbers.
//
// Each string is stored once, in an id-indexed deque whose elements never
// move, and the encode map is keyed by views of those strings.
//
// The ingest pipeline encodes in two batched calls, each one lock hold
// (DESIGN.md §4f): Lookup finds the ids of the values a load brings and
// marks the rest missing; InsertSorted then gives the load's sorted,
// deduplicated misses their ids. Sorted assignment makes the ids a pure
// function of (dictionary state, set of new strings), independent of
// record order within the load.

#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"

namespace cubrick {

class StringDictionary {
 public:
  /// Lookup's id for a value the dictionary does not hold.
  static constexpr uint64_t kMissing = ~uint64_t{0};

  StringDictionary() = default;

  StringDictionary(const StringDictionary&) = delete;
  StringDictionary& operator=(const StringDictionary&) = delete;

  /// Returns the id for `value`, inserting it if new. Recovery replays a
  /// dictionary file through here, entry by entry.
  uint64_t EncodeOrAdd(const std::string& value);

  /// Returns the id for `value` or NotFound without inserting.
  Result<uint64_t> Encode(const std::string& value) const;

  /// Returns the string for `id` or OutOfRange.
  Result<std::string> Decode(uint64_t id) const;

  /// The id of each of `values`, or kMissing where the dictionary does not
  /// hold it; inserts nothing. One lock hold for the whole batch.
  std::vector<uint64_t> Lookup(
      const std::vector<std::string_view>& values) const;

  /// Sorted batch insert, in one lock hold: `sorted` must be sorted and
  /// deduplicated. Returns the id of each of its strings. The strings not
  /// yet present get the next dense ids in list order; present ones (say,
  /// raced in by a concurrent load) keep theirs. Sets `*added` to how many
  /// it inserted.
  std::vector<uint64_t> InsertSorted(
      const std::vector<std::string_view>& sorted, size_t* added);

  size_t size() const;

 private:
  /// Inserts `value`, which must be absent, under the next id.
  uint64_t AddLocked(std::string_view value) REQUIRES(mutex_);

  mutable Mutex mutex_;
  /// The strings by id. A deque never moves its elements, so the views
  /// keying `to_id_` stay valid as it grows.
  std::deque<std::string> strings_ GUARDED_BY(mutex_);
  std::unordered_map<std::string_view, uint64_t> to_id_ GUARDED_BY(mutex_);
};

}  // namespace cubrick
