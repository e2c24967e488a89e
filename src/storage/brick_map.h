// Brick map: the collection of materialized bricks of one shard (§V-A).
//
// Bricks are sparse — only materialized when a record lands in their range.
// The map indexes them by bid. Like Brick itself, a BrickMap belongs to a
// single shard thread and is unsynchronized.

#pragma once

#include <memory>
#include <unordered_map>

#include "storage/brick.h"

namespace cubrick {

class BrickMap {
 public:
  explicit BrickMap(std::shared_ptr<const CubeSchema> schema)
      : schema_(std::move(schema)) {}

  /// Returns the brick for `bid`, materializing it on first touch.
  Brick& GetOrCreate(Bid bid) {
    auto it = bricks_.find(bid);
    if (it == bricks_.end()) {
      it = bricks_.emplace(bid, std::make_unique<Brick>(schema_, bid)).first;
    }
    return *it->second;
  }

  /// Returns the brick for `bid` or nullptr when not materialized.
  Brick* Find(Bid bid) {
    auto it = bricks_.find(bid);
    return it == bricks_.end() ? nullptr : it->second.get();
  }
  const Brick* Find(Bid bid) const {
    auto it = bricks_.find(bid);
    return it == bricks_.end() ? nullptr : it->second.get();
  }

  /// Removes a brick entirely (once purge, rollback or truncation left it
  /// with no records and no history).
  void Erase(Bid bid) { bricks_.erase(bid); }

  size_t size() const { return bricks_.size(); }

  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (auto& [bid, brick] : bricks_) {
      fn(*brick);
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [bid, brick] : bricks_) {
      fn(const_cast<const Brick&>(*brick));
    }
  }

  uint64_t TotalRecords() const {
    uint64_t n = 0;
    for (const auto& [bid, brick] : bricks_) n += brick->num_records();
    return n;
  }

  size_t DataMemoryUsage() const {
    size_t bytes = 0;
    for (const auto& [bid, brick] : bricks_) bytes += brick->DataMemoryUsage();
    return bytes;
  }

  size_t HistoryMemoryUsage() const {
    size_t bytes = 0;
    for (const auto& [bid, brick] : bricks_) {
      bytes += brick->HistoryMemoryUsage();
    }
    return bytes;
  }

 private:
  std::shared_ptr<const CubeSchema> schema_;
  std::unordered_map<Bid, std::unique_ptr<Brick>> bricks_;
};

}  // namespace cubrick
