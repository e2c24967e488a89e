// Flat group table of the grouped scan (DESIGN.md §4c).
//
// Maps fixed-width group keys (one uint64 per group-by dimension) to dense
// first-seen ordinals, with `num_aggs` aggregate states per group. The
// brick fold uses one without states to number a brick's wide keys; each
// scan worker merges its bricks' groups into one keyed by global
// coordinates, a shard op returns its workers' merged table, and
// Table::Scan merges its shard ops' tables and converts the result to a
// QueryResult once per query.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "query/query.h"

namespace cubrick {

class GroupTable {
 public:
  GroupTable(size_t key_width, size_t num_aggs)
      : width_(key_width), num_aggs_(num_aggs) {}

  /// Groups held, numbered 0 to size() - 1 in the order they were claimed.
  size_t size() const { return size_; }
  /// Group `ord`'s key, key_width words.
  const uint64_t* key(size_t ord) const { return keys_.data() + ord * width_; }

  /// Empties the table, keeping its arrays' storage.
  void Clear() {
    size_ = 0;
    keys_.clear();
    states_.clear();
    index_.clear();
  }

  /// The ordinal of `key` (key_width words), claimed with zeroed states on
  /// first sight. Growing the table re-indexes the ordinals and never moves
  /// a key or a state, so an ordinal stays valid until Clear.
  size_t Find(const uint64_t* key) {
    if (2 * (size_ + 1) > index_.size()) Grow();
    for (size_t slot = Home(key);; slot = (slot + 1) & mask_) {
      const uint32_t ord = index_[slot];
      if (ord == kEmpty) {
        index_[slot] = static_cast<uint32_t>(size_);
        keys_.insert(keys_.end(), key, key + width_);
        states_.resize(states_.size() + num_aggs_);
        return size_++;
      }
      const uint64_t* k = this->key(ord);
      size_t g = 0;
      while (g < width_ && k[g] == key[g]) ++g;
      if (g == width_) return ord;
    }
  }

  /// Merges `states` (num_aggs of them) into group `key`, as
  /// QueryResult::MergeGroup does.
  void MergeGroup(const uint64_t* key, const AggState* states) {
    const size_t ord = Find(key);  // may grow states_: read data() after
    AggState* dst = states_.data() + ord * num_aggs_;
    for (size_t a = 0; a < num_aggs_; ++a) dst[a].Merge(states[a]);
  }

  /// Merges every group of `other` (same shape) into this table.
  void MergeFrom(const GroupTable& other);

  /// The groups as a QueryResult, its map built once in key order.
  QueryResult ToResult() const;

 private:
  static constexpr uint32_t kEmpty = ~uint32_t{0};
  /// 2^64 / golden ratio: Fibonacci hashing, whose top bits spread the
  /// consecutive coordinates and offsets group keys are made of.
  static constexpr uint64_t kHashMul = 0x9E3779B97F4A7C15ULL;

  const AggState* states(size_t ord) const {
    return states_.data() + ord * num_aggs_;
  }

  size_t Home(const uint64_t* key) const {
    uint64_t h = 0;
    for (size_t g = 0; g < width_; ++g) h = (h ^ key[g]) * kHashMul;
    return static_cast<size_t>(h >> shift_);
  }

  /// Doubles the index (8 slots at first) and re-inserts every ordinal, so
  /// at most half the slots are taken.
  void Grow();

  size_t width_;
  size_t num_aggs_;
  size_t size_ = 0;
  int shift_ = 64;
  size_t mask_ = 0;
  std::vector<uint32_t> index_;  // slot -> ordinal, kEmpty when free
  std::vector<uint64_t> keys_;   // key_width words per ordinal
  std::vector<AggState> states_;  // num_aggs states per ordinal
};

}  // namespace cubrick
