#include "common/ebr.h"

#include <utility>

#include "common/status.h"
#include "obs/metrics.h"

namespace cubrick::ebr {

namespace {

/// Retires between amortized advance attempts. Advancing scans kMaxSlots
/// slot words, so attempting on every retire would make bulk retirement
/// quadratic in slots; every 8th keeps limbo short without that.
constexpr size_t kAdvanceEvery = 8;

/// A bucket holding this many bytes attempts an advance on every retire —
/// large retirees (whole Bricks) should not wait out the amortization.
constexpr size_t kAdvanceBytesPressure = 8u << 20;

}  // namespace

// ---------------------------------------------------------------------------
// Per-thread registration
// ---------------------------------------------------------------------------

/// The calling thread's slot handle. `depth` counts nested Guards; the slot
/// is claimed on the first pin and recycled when the thread exits. Members
/// are only touched by the owning thread (the slot's atomics carry the
/// cross-thread protocol).
struct Collector::ThreadReg {
  Slot* slot = nullptr;
  uint32_t depth = 0;

  ~ThreadReg() {
    // A Guard outliving its thread would be a bug; the pin protocol is
    // strictly stack-scoped.
    CUBRICK_CHECK(depth == 0);
    if (slot != nullptr) {
      // release pairs with the acquire CAS in ClaimSlot: the next owner
      // observes a fully unpinned slot.
      slot->in_use.store(false, std::memory_order_release);
    }
  }
};

Collector::ThreadReg& Collector::LocalReg() {
  thread_local ThreadReg reg;
  return reg;
}

// ---------------------------------------------------------------------------
// Collector
// ---------------------------------------------------------------------------

Collector& Collector::Global() {
  static Collector collector;
  return collector;
}

Collector::Collector() {
  auto& reg = obs::MetricsRegistry::Global();
  retired_total_ = reg.GetCounter("ebr.retired_total");
  freed_total_ = reg.GetCounter("ebr.freed_total");
  advances_total_ = reg.GetCounter("ebr.advances_total");
  advance_stalls_ = reg.GetCounter("ebr.advance_stalls");
  limbo_bytes_ = reg.GetGauge("ebr.limbo_bytes");
  limbo_objects_ = reg.GetGauge("ebr.limbo_objects");
  pinned_threads_ = reg.GetGauge("ebr.pinned_threads");
  epoch_gauge_ = reg.GetGauge("ebr.epoch");
}

Collector::~Collector() {
  // Process teardown: every user thread is gone, so whatever is still in
  // limbo is unreachable. Free it for leak-clean ASan exits. A deleter runs
  // arbitrary destructors and may retire more, so drain until limbo stays
  // empty.
  while (true) {
    std::vector<Retired> batch;
    {
      MutexLock lock(limbo_mu_);
      for (uint64_t b = 0; b < kBuckets; ++b) {
        for (const Retired& r : limbo_[b]) batch.push_back(r);
        limbo_[b].clear();
        bucket_bytes_[b] = 0;
      }
    }
    if (batch.empty()) return;
    Free(std::move(batch));
  }
}

Collector::Slot* Collector::SlotForThisThread() {
  ThreadReg& reg = LocalReg();
  if (reg.slot != nullptr) return reg.slot;
  for (size_t i = 0; i < kMaxSlots; ++i) {
    bool expected = false;
    // acq_rel: acquire the previous owner's release (fully unpinned state),
    // release our claim to the next scanner.
    if (slots_[i].in_use.compare_exchange_strong(
            expected, true, std::memory_order_acq_rel,
            std::memory_order_relaxed)) {
      slots_[i].state.store(Pack(0, false), std::memory_order_relaxed);
      reg.slot = &slots_[i];
      return reg.slot;
    }
  }
  CUBRICK_CHECK(false && "ebr::Collector slot table exhausted");
  return nullptr;
}

void Collector::Pin(Slot* slot) {
  uint64_t e = global_epoch_.load(std::memory_order_relaxed);
  while (true) {
    slot->state.store(Pack(e, true), std::memory_order_relaxed);
    // seq_cst pairs with the fence in TryAdvance: either the advancer's
    // slot scan sees this pin, or this thread's critical-section loads see
    // everything that happened before the advance (in particular every
    // unlink whose retiree the advance freed).
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const uint64_t now = global_epoch_.load(std::memory_order_relaxed);
    if (now == e) return;
    // The epoch advanced while pinning; re-pin at the newer epoch so this
    // thread never holds the advance back a full lap.
    e = now;
  }
}

void Collector::Unpin(Slot* slot) {
  const uint64_t packed = slot->state.load(std::memory_order_relaxed);
  // release pairs with the acquire slot scan in TryAdvance: an advance that
  // sees the unpin also sees every read this critical section performed,
  // so freeing behind it cannot race those reads.
  slot->state.store(Pack(StateEra(packed), false),
                    std::memory_order_release);
}

void Collector::PinThisThread() {
  ThreadReg& reg = LocalReg();
  if (reg.depth++ == 0) {
    Pin(SlotForThisThread());
  }
}

void Collector::UnpinThisThread() {
  ThreadReg& reg = LocalReg();
  CUBRICK_CHECK(reg.depth > 0);
  if (--reg.depth == 0) {
    Unpin(reg.slot);
  }
}

void Collector::Retire(void* ptr, void (*deleter)(void*), size_t bytes) {
  CUBRICK_CHECK(ptr != nullptr);
  CUBRICK_CHECK(deleter != nullptr);
  bool attempt_advance = false;
  {
    MutexLock lock(limbo_mu_);
    const uint64_t e = global_epoch_.load(std::memory_order_relaxed);
    limbo_[e % kBuckets].push_back(Retired{ptr, deleter, bytes});
    bucket_bytes_[e % kBuckets] += bytes;
    ++retires_since_advance_;
    attempt_advance = retires_since_advance_ >= kAdvanceEvery ||
                      bucket_bytes_[e % kBuckets] >= kAdvanceBytesPressure;
  }
  retired_total_->Add();
  limbo_objects_->Add(1);
  limbo_bytes_->Add(static_cast<int64_t>(bytes));
  if (attempt_advance) {
    TryAdvance();
  }
}

bool Collector::TryAdvance() {
  std::vector<Retired> batch;
  bool advanced = false;
  {
    MutexLock lock(limbo_mu_);
    const uint64_t e = global_epoch_.load(std::memory_order_relaxed);
    // seq_cst pairs with the fence in Pin: a pin this scan misses started
    // after the scan, so its critical section can only observe the
    // structure states produced after every unlink retired into the bucket
    // this advance frees.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    size_t pinned = 0;
    bool straggler = false;
    for (size_t i = 0; i < kMaxSlots; ++i) {
      if (!slots_[i].in_use.load(std::memory_order_acquire)) continue;
      // acquire pairs with the release in Unpin (see there).
      const uint64_t packed = slots_[i].state.load(std::memory_order_acquire);
      if (!StatePinned(packed)) continue;
      ++pinned;
      if (StateEra(packed) != e) {
        straggler = true;
      }
    }
    pinned_threads_->Set(static_cast<int64_t>(pinned));
    if (straggler) {
      advance_stalls_->Add();
    } else {
      // All pinned threads observed e: epoch e-2's limbo bucket (stored at
      // (e+1) % kBuckets, which now becomes the bucket of the new epoch)
      // is unreachable. release: a Pin that reads e+1 must also observe
      // the drained bucket state.
      global_epoch_.store(e + 1, std::memory_order_release);
      batch.swap(limbo_[(e + 1) % kBuckets]);
      bucket_bytes_[(e + 1) % kBuckets] = 0;
      retires_since_advance_ = 0;
      advanced = true;
    }
  }
  if (advanced) {
    advances_total_->Add();
    epoch_gauge_->Set(
        static_cast<int64_t>(global_epoch_.load(std::memory_order_relaxed)));
    Free(std::move(batch));
  }
  return advanced;
}

void Collector::Free(std::vector<Retired> batch) {
  if (batch.empty()) return;
  int64_t bytes = 0;
  for (const Retired& r : batch) {
    bytes += static_cast<int64_t>(r.bytes);
    r.deleter(r.ptr);
  }
  freed_total_->Add(batch.size());
  limbo_objects_->Add(-static_cast<int64_t>(batch.size()));
  limbo_bytes_->Add(-bytes);
}

bool Collector::DrainForTest() {
  // Each successful advance frees one bucket; three advances flush a fully
  // quiescent collector. Stop as soon as an advance stalls (a live Guard).
  for (int i = 0; i < 8; ++i) {
    if (LimboObjectsForTest() == 0) return true;
    if (!TryAdvance()) return false;
  }
  return LimboObjectsForTest() == 0;
}

uint64_t Collector::EpochForTest() const {
  return global_epoch_.load(std::memory_order_acquire);
}

size_t Collector::LimboObjectsForTest() const {
  MutexLock lock(limbo_mu_);
  size_t n = 0;
  for (const auto& bucket : limbo_) n += bucket.size();
  return n;
}

size_t Collector::PinnedThreadsForTest() const {
  size_t pinned = 0;
  for (size_t i = 0; i < kMaxSlots; ++i) {
    if (!slots_[i].in_use.load(std::memory_order_acquire)) continue;
    const uint64_t packed = slots_[i].state.load(std::memory_order_acquire);
    if (StatePinned(packed)) ++pinned;
  }
  return pinned;
}

// ---------------------------------------------------------------------------
// Guard
// ---------------------------------------------------------------------------

Guard::Guard() { Collector::Global().PinThisThread(); }

Guard::~Guard() { Collector::Global().UnpinThisThread(); }

}  // namespace cubrick::ebr
