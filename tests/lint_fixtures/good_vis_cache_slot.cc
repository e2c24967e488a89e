// aosi-lint-fixture: atomic-memory-order
// aosi-lint-as: src/aosi/vis_cache_slot_fixture.cc
//
// The atomic publication-slot discipline: entries are published with an
// explicit release-flavored exchange, read with acquire loads, and the only
// relaxed RMW — a round-robin victim cursor — carries a
// '// relaxed: <why>' justification. Every order is spelled out.
#include <atomic>
#include <cstddef>

namespace cubrick {

struct Entry {
  int payload = 0;
};

std::atomic<const Entry*> slot{nullptr};
std::atomic<unsigned long> next_victim{0};

const Entry* LookupSlot() {
  // acquire pairs with the release exchange in PublishSlot.
  return slot.load(std::memory_order_acquire);
}

const Entry* PublishSlot(const Entry* entry) {
  // relaxed: the cursor only spreads victims across slots; no data rides on it
  const auto cursor = next_victim.fetch_add(1, std::memory_order_relaxed);
  (void)cursor;
  return slot.exchange(entry, std::memory_order_acq_rel);
}

}  // namespace cubrick
