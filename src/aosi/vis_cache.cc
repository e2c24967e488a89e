#include "aosi/vis_cache.h"

#include <utility>

namespace cubrick::aosi {

VisKey VisibilityCache::MakeKey(const EpochVector& history,
                                const Snapshot& snapshot) {
  VisKey key;
  key.history_version = history.version();
  // Clamp to the newest stamp actually present: every snapshot at or past
  // it selects the same runs, so they share one entry.
  key.horizon = MinEpoch(snapshot.epoch, history.max_epoch());
  for (Epoch dep : snapshot.deps) {
    // Deps past the horizon cannot mask any run the horizon admits.
    if (AtOrBefore(dep, key.horizon)) key.deps.Insert(dep);
  }
  return key;
}

const Bitmap* VisibilityCache::Lookup(const VisKey& key) const {
  for (const auto& entry : slots_) {
    if (entry != nullptr && entry->key == key) return &entry->bitmap;
  }
  return nullptr;
}

VisibilityCache::PublishResult VisibilityCache::Publish(const VisKey& key,
                                                        Bitmap* bitmap) {
  std::unique_ptr<const Entry>& slot = slots_[next_victim_];
  next_victim_ = (next_victim_ + 1) % kSlots;
  PublishResult result;
  result.evicted = slot != nullptr;
  slot = std::make_unique<const Entry>(Entry{key, std::move(*bitmap)});
  result.published = &slot->bitmap;
  return result;
}

void VisibilityCache::Clear() {
  for (auto& slot : slots_) slot.reset();
}

}  // namespace cubrick::aosi
