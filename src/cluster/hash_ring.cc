#include "cluster/hash_ring.h"

#include <algorithm>

#include "common/random.h"

namespace cubrick::cluster {

uint64_t HashRing::HashPoint(uint32_t node_idx, uint32_t vnode) {
  uint64_t state = (static_cast<uint64_t>(node_idx) << 32) | vnode;
  return SplitMix64(state);
}

uint64_t HashRing::HashKey(uint64_t key) {
  uint64_t state = key ^ 0x9e3779b97f4a7c15ULL;
  return SplitMix64(state);
}

void HashRing::AddNode(uint32_t node_idx, uint32_t vnodes) {
  CUBRICK_CHECK(node_idx >= 1);
  CUBRICK_CHECK(vnodes >= 1);
  nodes_.insert(node_idx);
  for (uint32_t v = 0; v < vnodes; ++v) {
    points_.emplace(HashPoint(node_idx, v), node_idx);
  }
}

void HashRing::RemoveNode(uint32_t node_idx) {
  nodes_.erase(node_idx);
  for (auto it = points_.begin(); it != points_.end();) {
    if (it->second == node_idx) {
      it = points_.erase(it);
    } else {
      ++it;
    }
  }
}

uint32_t HashRing::NodeFor(uint64_t key) const {
  CUBRICK_CHECK(!points_.empty());
  auto it = points_.lower_bound(HashKey(key));
  if (it == points_.end()) it = points_.begin();  // wrap around
  return it->second;
}

std::vector<uint32_t> HashRing::NodesFor(uint64_t key, size_t count) const {
  CUBRICK_CHECK(!points_.empty());
  const size_t limit = count < nodes_.size() ? count : nodes_.size();
  std::vector<uint32_t> result;
  result.reserve(limit);
  auto it = points_.lower_bound(HashKey(key));
  while (result.size() < limit) {
    if (it == points_.end()) it = points_.begin();
    // The result holds at most `count` owners (a replication factor), so a
    // linear dedupe beats building a set on every call.
    if (std::find(result.begin(), result.end(), it->second) == result.end()) {
      result.push_back(it->second);
    }
    ++it;
  }
  return result;
}

}  // namespace cubrick::cluster
