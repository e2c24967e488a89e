#include "query/group_table.h"

#include <algorithm>
#include <numeric>
#include <tuple>
#include <utility>

namespace cubrick {

void GroupTable::Grow() {
  const size_t slots = std::max<size_t>(8, 2 * index_.size());
  CUBRICK_CHECK(slots / 2 < kEmpty);
  index_.assign(slots, kEmpty);
  shift_ = 64 - __builtin_ctzll(slots);
  mask_ = slots - 1;
  for (size_t ord = 0; ord < size_; ++ord) {
    size_t slot = Home(key(ord));
    while (index_[slot] != kEmpty) slot = (slot + 1) & mask_;
    index_[slot] = static_cast<uint32_t>(ord);
  }
}

void GroupTable::MergeFrom(const GroupTable& other) {
  CUBRICK_CHECK(width_ == other.width_ && num_aggs_ == other.num_aggs_);
  for (size_t ord = 0; ord < other.size_; ++ord) {
    MergeGroup(other.key(ord), other.states(ord));
  }
}

QueryResult GroupTable::ToResult() const {
  std::vector<size_t> order(size_);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    return std::lexicographical_compare(key(a), key(a) + width_, key(b),
                                        key(b) + width_);
  });
  // Every state here was merged into a zeroed one, which leaves a sum that
  // is never -0.0 and a min and max that are never NaN; merging such a
  // state into a zeroed one reproduces it bit for bit, so copying it is
  // what QueryResult::Merge would store.
  QueryResult::Groups groups;
  for (size_t ord : order) {
    groups.emplace_hint(
        groups.end(), std::piecewise_construct,
        std::forward_as_tuple(key(ord), key(ord) + width_),
        std::forward_as_tuple(states(ord), states(ord) + num_aggs_));
  }
  return QueryResult(num_aggs_, std::move(groups));
}

}  // namespace cubrick
