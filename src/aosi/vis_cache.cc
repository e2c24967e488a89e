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
  for (const auto& slot : slots_) {
    // acquire pairs with the release exchange in Publish: seeing the
    // pointer implies seeing the fully-built Entry behind it.
    const Entry* entry = slot.load(std::memory_order_acquire);
    if (entry != nullptr && entry->key == key) return &entry->bitmap;
  }
  return nullptr;
}

VisibilityCache::PublishResult VisibilityCache::Publish(const VisKey& key,
                                                        Bitmap* bitmap) {
  const Entry* entry = new Entry{key, std::move(*bitmap)};
  // relaxed: the cursor only spreads victims across slots; no data rides on it
  const uint64_t cursor = next_victim_.fetch_add(1, std::memory_order_relaxed);
  const size_t victim = cursor % kSlots;
  const Entry* old =
      slots_[victim].exchange(entry, std::memory_order_acq_rel);
  PublishResult result;
  result.published = &entry->bitmap;
  if (old != nullptr) {
    result.evicted = true;
    // The victim is unlinked but a concurrent scan that Looked it up under
    // its Guard may still read the bitmap; the collector frees it after
    // every such pin has drained.
    Retire(old);
  }
  return result;
}

void VisibilityCache::Clear() {
  for (auto& slot : slots_) {
    // acq_rel: acquire the retiring entry's contents before handing it to
    // the collector; release so a republished slot never appears to hold
    // stale data.
    const Entry* entry = slot.exchange(nullptr, std::memory_order_acq_rel);
    if (entry != nullptr) Retire(entry);
  }
}

}  // namespace cubrick::aosi
