// aosi-lint-fixture: atomic-memory-order
// aosi-lint-as: src/aosi/vis_cache_slot_fixture.cc
//
// Atomic publication slots must carry explicit memory orders (an implicit
// seq_cst exchange hides the publication protocol) and any relaxed RMW —
// like a round-robin cursor — needs a '// relaxed: <why>' justification.
#include <atomic>

namespace cubrick {

struct Entry {
  int payload = 0;
};

std::atomic<const Entry*> slot{nullptr};
std::atomic<unsigned long> next_victim{0};

const Entry* BadImplicitPublish(const Entry* entry) {
  return slot.exchange(entry);
}

unsigned long BadUnjustifiedCursor() {
  return next_victim.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace cubrick
