#include "aosi/epoch_vector.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/ebr.h"

namespace cubrick::aosi {

namespace {

/// Shared decoder over a borrowed entry window. `expected_records` cross-
/// checks the derived record count (full decodes only).
std::vector<EpochRun> DecodeEntries(const EpochEntry* slots, size_t n,
                                    size_t max_runs, bool* truncated,
                                    uint64_t expected_records) {
  std::vector<EpochRun> runs;
  runs.reserve(std::min(max_runs, n));
  uint64_t pos = 0;
  for (size_t i = 0; i < n; ++i) {
    if (runs.size() >= max_runs) {
      if (truncated != nullptr) *truncated = true;
      return runs;
    }
    const EpochEntry& e = slots[i];
    EpochRun run;
    run.epoch = e.epoch;
    run.is_delete = e.is_delete();
    if (run.is_delete) {
      run.begin = run.end = e.index();
    } else {
      run.begin = pos;
      run.end = e.index() + 1;
      pos = run.end;
    }
    runs.push_back(run);
  }
  // A full decode must account for every record.
  CUBRICK_CHECK(pos == expected_records);
  if (truncated != nullptr) *truncated = false;
  return runs;
}

}  // namespace

// ---------------------------------------------------------------------------
// Rep plumbing
// ---------------------------------------------------------------------------

uint64_t EpochVector::RecordsOf(const EpochEntry* slots, size_t n) {
  if (n == 0) return 0;
  const EpochEntry& back = slots[n - 1];
  // A delete marker stores the data-vector size at delete time; an append
  // entry stores the index of its last record.
  return back.is_delete() ? back.index() : back.index() + 1;
}

EpochVector::Rep* EpochVector::CloneRep(const EpochEntry* src, size_t n,
                                        size_t cap) {
  CUBRICK_CHECK(cap >= n);
  Rep* rep = new Rep(cap);
  for (size_t i = 0; i < n; ++i) {
    rep->slots[i] = src[i];
  }
  rep->size.store(n, std::memory_order_relaxed);
  return rep;
}

void EpochVector::SwapRep(Rep* fresh) {
  Rep* old = rep_.load(std::memory_order_relaxed);
  // release: a reader that sees the new pointer sees its fully built
  // contents (CloneRep ran before this store).
  rep_.store(fresh, std::memory_order_release);
  // A reader pinned before this point may still traverse `old`; the
  // collector frees it two epoch advances later.
  ebr::RetireDelete(old, old->capacity * sizeof(EpochEntry));
}

void EpochVector::BumpVersion() {
  // Single writer: load + store instead of an RMW. release *after* the data
  // stores so PinnedSnapshot's validation works (see header).
  version_.store(version_.load(std::memory_order_relaxed) + 1,
                 std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Construction / destruction / copies
// ---------------------------------------------------------------------------

EpochVector::EpochVector() : rep_(new Rep(0)) {}

EpochVector::~EpochVector() {
  // Direct delete, not Retire: an EpochVector is destroyed either by its
  // single owner with no reader in flight, or inside an EBR deleter (a
  // retired Brick), which already runs at a safe epoch.
  delete rep_.load(std::memory_order_relaxed);  // ebr-deleter
}

EpochVector::EpochVector(const EpochVector& other) : rep_(nullptr) {
  const Rep* src = other.rep_.load(std::memory_order_acquire);
  const size_t n = src->size.load(std::memory_order_acquire);
  rep_.store(CloneRep(src->slots.get(), n, n), std::memory_order_relaxed);
  version_.store(other.version_.load(std::memory_order_acquire),
                 std::memory_order_relaxed);
  max_epoch_.store(other.max_epoch_.load(std::memory_order_acquire),
                   std::memory_order_relaxed);
  num_deletes_.store(other.num_deletes_.load(std::memory_order_acquire),
                     std::memory_order_relaxed);
}

EpochVector& EpochVector::operator=(const EpochVector& other) {
  if (this == &other) return *this;
  const Rep* src = other.rep_.load(std::memory_order_acquire);
  const size_t n = src->size.load(std::memory_order_acquire);
  SwapRep(CloneRep(src->slots.get(), n, n));
  max_epoch_.store(other.max_epoch_.load(std::memory_order_acquire),
                   std::memory_order_release);
  num_deletes_.store(other.num_deletes_.load(std::memory_order_acquire),
                     std::memory_order_release);
  version_.store(other.version_.load(std::memory_order_acquire),
                 std::memory_order_release);
  return *this;
}

EpochVector::EpochVector(EpochVector&& other) noexcept
    : rep_(other.rep_.load(std::memory_order_relaxed)) {
  version_.store(other.version_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
  max_epoch_.store(other.max_epoch_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  num_deletes_.store(other.num_deletes_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  other.rep_.store(new Rep(0), std::memory_order_relaxed);
  other.version_.store(0, std::memory_order_relaxed);
  other.max_epoch_.store(kNoEpoch, std::memory_order_relaxed);
  other.num_deletes_.store(0, std::memory_order_relaxed);
}

EpochVector& EpochVector::operator=(EpochVector&& other) noexcept {
  if (this == &other) return *this;
  // Moves are for private (unshared) vectors — plan objects, test locals —
  // so handing our old Rep to `other` (freed by its destructor) is safe.
  Rep* mine = rep_.load(std::memory_order_relaxed);
  rep_.store(other.rep_.load(std::memory_order_relaxed),
             std::memory_order_relaxed);
  other.rep_.store(mine, std::memory_order_relaxed);
  version_.store(other.version_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
  max_epoch_.store(other.max_epoch_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  num_deletes_.store(other.num_deletes_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  return *this;
}

// ---------------------------------------------------------------------------
// Mutation (single shard-thread writer)
// ---------------------------------------------------------------------------

void EpochVector::RecordAppend(Epoch txn, uint64_t count) {
  CUBRICK_CHECK(txn != kNoEpoch);
  CUBRICK_CHECK(count > 0);
  Rep* rep = OwnerRep();
  const size_t n = rep->size.load(std::memory_order_relaxed);
  const uint64_t new_last = RecordsOf(rep->slots.get(), n) + count - 1;
  const bool extends = n > 0 && !rep->slots[n - 1].is_delete() &&
                       SameEpoch(rep->slots[n - 1].epoch, txn);
  if (extends) {
    // Same transaction as the current back entry: bump its last index
    // (paper Fig 1 (b)). Published entries are immutable, so the rewrite
    // goes through a fresh Rep.
    Rep* fresh = CloneRep(rep->slots.get(), n, rep->capacity);
    fresh->slots[n - 1] = EpochEntry::Append(txn, new_last);
    SwapRep(fresh);
  } else if (n == rep->capacity) {
    Rep* fresh =
        CloneRep(rep->slots.get(), n, rep->capacity == 0 ? 1 : rep->capacity * 2);
    fresh->slots[n] = EpochEntry::Append(txn, new_last);
    fresh->size.store(n + 1, std::memory_order_relaxed);
    SwapRep(fresh);
  } else {
    // Fast path: stage into spare capacity, publish with the size store.
    rep->slots[n] = EpochEntry::Append(txn, new_last);
    rep->size.store(n + 1, std::memory_order_release);
  }
  max_epoch_.store(
      MaxEpoch(max_epoch_.load(std::memory_order_relaxed), txn),
      std::memory_order_release);
  BumpVersion();
}

void EpochVector::RecordDelete(Epoch txn) {
  CUBRICK_CHECK(txn != kNoEpoch);
  Rep* rep = OwnerRep();
  const size_t n = rep->size.load(std::memory_order_relaxed);
  const EpochEntry marker =
      EpochEntry::Delete(txn, RecordsOf(rep->slots.get(), n));
  if (n == rep->capacity) {
    Rep* fresh =
        CloneRep(rep->slots.get(), n, rep->capacity == 0 ? 1 : rep->capacity * 2);
    fresh->slots[n] = marker;
    fresh->size.store(n + 1, std::memory_order_relaxed);
    SwapRep(fresh);
  } else {
    rep->slots[n] = marker;
    rep->size.store(n + 1, std::memory_order_release);
  }
  num_deletes_.store(num_deletes_.load(std::memory_order_relaxed) + 1,
                     std::memory_order_release);
  max_epoch_.store(
      MaxEpoch(max_epoch_.load(std::memory_order_relaxed), txn),
      std::memory_order_release);
  BumpVersion();
}

void EpochVector::InstallRebuilt(const EpochVector& rebuilt) {
  const Rep* src = rebuilt.rep_.load(std::memory_order_acquire);
  const size_t n = src->size.load(std::memory_order_acquire);
  SwapRep(CloneRep(src->slots.get(), n, n));
  max_epoch_.store(rebuilt.max_epoch_.load(std::memory_order_acquire),
                   std::memory_order_release);
  num_deletes_.store(rebuilt.num_deletes_.load(std::memory_order_acquire),
                     std::memory_order_release);
  BumpVersion();
}

void EpochVector::ShrinkToFit() {
  Rep* rep = OwnerRep();
  const size_t n = rep->size.load(std::memory_order_relaxed);
  if (rep->capacity == n) return;
  // Entries are unchanged, so the version stays put: a snapshot validated
  // against the old Rep describes the new one bit for bit.
  SwapRep(CloneRep(rep->slots.get(), n, n));
}

// ---------------------------------------------------------------------------
// Readers
// ---------------------------------------------------------------------------

uint64_t EpochVector::num_records() const {
  const Rep* rep = rep_.load(std::memory_order_acquire);
  const size_t n = rep->size.load(std::memory_order_acquire);
  return RecordsOf(rep->slots.get(), n);
}

size_t EpochVector::num_entries() const {
  const Rep* rep = rep_.load(std::memory_order_acquire);
  return rep->size.load(std::memory_order_acquire);
}

EntriesView EpochVector::entries() const {
  const Rep* rep = rep_.load(std::memory_order_acquire);
  const size_t n = rep->size.load(std::memory_order_acquire);
  return EntriesView(rep->slots.get(), n);
}

bool EpochVector::PinnedSnapshot(HistoryView* out) const {
  // Bounded validation loop. version is stored after the data it stamps
  // (release), so observing v1 == v2 proves the entries window read in
  // between is at or after mutation v1 — never before (see header).
  for (int attempt = 0; attempt < 64; ++attempt) {
    const uint64_t v1 = version_.load(std::memory_order_acquire);
    const Rep* rep = rep_.load(std::memory_order_acquire);
    const size_t n = rep->size.load(std::memory_order_acquire);
    const Epoch me = max_epoch_.load(std::memory_order_acquire);
    const uint64_t v2 = version_.load(std::memory_order_acquire);
    if (v1 == v2) {
      out->entries = EntriesView(rep->slots.get(), n);
      out->version = v1;
      out->num_records = RecordsOf(rep->slots.get(), n);
      out->max_epoch = me;
      return true;
    }
  }
  return false;
}

std::vector<EpochRun> EpochVector::Decode() const {
  const EntriesView view = entries();
  return DecodeEntries(view.begin(), view.size(), view.size(), nullptr,
                       RecordsOf(view.begin(), view.size()));
}

std::vector<EpochRun> EpochVector::DecodePrefix(size_t max_runs,
                                                bool* truncated) const {
  const EntriesView view = entries();
  return DecodeEntries(view.begin(), view.size(), max_runs, truncated,
                       RecordsOf(view.begin(), view.size()));
}

std::vector<EpochRun> EpochVector::DecodeView(const HistoryView& view) {
  return DecodeEntries(view.entries.begin(), view.entries.size(),
                       view.entries.size(), nullptr, view.num_records);
}

size_t EpochVector::MemoryUsage() const {
  return rep_.load(std::memory_order_acquire)->capacity * sizeof(EpochEntry);
}

EpochVector EpochVector::FromRuns(const std::vector<EpochRun>& runs) {
  std::vector<EpochEntry> built;
  built.reserve(runs.size());
  uint64_t records = 0;
  uint64_t deletes = 0;
  Epoch me = kNoEpoch;
  for (const auto& run : runs) {
    CUBRICK_CHECK(run.begin == records);
    if (run.is_delete) {
      built.push_back(EpochEntry::Delete(run.epoch, records));
      ++deletes;
    } else {
      CUBRICK_CHECK(run.end > run.begin);
      // Do not coalesce: purge decides merging explicitly, so install the
      // entry verbatim even when adjacent to a same-epoch run.
      built.push_back(EpochEntry::Append(run.epoch, run.end - 1));
      records = run.end;
    }
    me = MaxEpoch(me, run.epoch);
  }
  EpochVector ev;
  delete ev.rep_.load(std::memory_order_relaxed);  // ebr-deleter: private Rep
  ev.rep_.store(CloneRep(built.data(), built.size(), built.size()),
                std::memory_order_relaxed);
  ev.max_epoch_.store(me, std::memory_order_relaxed);
  ev.num_deletes_.store(deletes, std::memory_order_relaxed);
  return ev;
}

bool EpochVector::operator==(const EpochVector& other) const {
  const EntriesView a = entries();
  const EntriesView b = other.entries();
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) return false;
  }
  return RecordsOf(a.begin(), a.size()) == RecordsOf(b.begin(), b.size());
}

std::string EpochVector::ToString() const {
  std::ostringstream out;
  for (const auto& run : Decode()) {
    if (run.is_delete) {
      out << "[" << run.epoch << ":del@" << run.begin << "]";
    } else {
      out << "[" << run.epoch << ":" << run.begin << "-" << (run.end - 1)
          << "]";
    }
  }
  return out.str();
}

}  // namespace cubrick::aosi
