#include "aosi/epoch_vector.h"

#include <algorithm>
#include <sstream>
#include <utility>

namespace cubrick::aosi {

EpochVector::EpochVector(EpochVector&& other) noexcept
    : entries_(std::move(other.entries_)),
      version_(std::exchange(other.version_, 0)),
      max_epoch_(std::exchange(other.max_epoch_, kNoEpoch)),
      num_deletes_(std::exchange(other.num_deletes_, 0)) {}

EpochVector& EpochVector::operator=(EpochVector other) noexcept {
  std::swap(entries_, other.entries_);
  std::swap(version_, other.version_);
  std::swap(max_epoch_, other.max_epoch_);
  std::swap(num_deletes_, other.num_deletes_);
  return *this;
}

void EpochVector::Push(EpochEntry entry) {
  if (entries_.size() == entries_.capacity()) {
    entries_.reserve(entries_.capacity() == 0 ? 1 : entries_.capacity() * 2);
  }
  entries_.push_back(entry);
}

void EpochVector::RecordAppend(Epoch txn, uint64_t count) {
  CUBRICK_CHECK(txn != kNoEpoch);
  CUBRICK_CHECK(count > 0);
  const uint64_t new_last = num_records() + count - 1;
  if (!entries_.empty() && !entries_.back().is_delete() &&
      SameEpoch(entries_.back().epoch, txn)) {
    // Same transaction as the current back entry: bump its last index
    // (paper Fig 1 (b)).
    entries_.back() = EpochEntry::Append(txn, new_last);
  } else {
    Push(EpochEntry::Append(txn, new_last));
  }
  max_epoch_ = MaxEpoch(max_epoch_, txn);
  ++version_;
}

void EpochVector::RecordDelete(Epoch txn) {
  CUBRICK_CHECK(txn != kNoEpoch);
  Push(EpochEntry::Delete(txn, num_records()));
  ++num_deletes_;
  max_epoch_ = MaxEpoch(max_epoch_, txn);
  ++version_;
}

void EpochVector::InstallRebuilt(const EpochVector& rebuilt) {
  const uint64_t version = version_;
  *this = rebuilt;
  version_ = version + 1;
}

uint64_t EpochVector::num_records() const {
  if (entries_.empty()) return 0;
  // A delete marker stores the data-vector size at delete time; an append
  // entry stores the index of its last record.
  const EpochEntry& back = entries_.back();
  return back.is_delete() ? back.index() : back.index() + 1;
}

std::vector<EpochRun> EpochVector::Decode() const {
  return DecodePrefix(entries_.size(), nullptr);
}

std::vector<EpochRun> EpochVector::DecodePrefix(size_t max_runs,
                                                bool* truncated) const {
  std::vector<EpochRun> runs;
  runs.reserve(std::min(max_runs, entries_.size()));
  uint64_t pos = 0;
  for (const EpochEntry& e : entries_) {
    if (runs.size() >= max_runs) {
      if (truncated != nullptr) *truncated = true;
      return runs;
    }
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
  CUBRICK_CHECK(pos == num_records());
  if (truncated != nullptr) *truncated = false;
  return runs;
}

EpochVector EpochVector::FromRuns(const std::vector<EpochRun>& runs) {
  EpochVector ev;
  ev.entries_.reserve(runs.size());
  uint64_t records = 0;
  for (const auto& run : runs) {
    CUBRICK_CHECK(run.begin == records);
    if (run.is_delete) {
      ev.entries_.push_back(EpochEntry::Delete(run.epoch, records));
      ++ev.num_deletes_;
    } else {
      CUBRICK_CHECK(run.end > run.begin);
      // Do not coalesce: purge decides merging explicitly, so install the
      // entry verbatim even when adjacent to a same-epoch run.
      ev.entries_.push_back(EpochEntry::Append(run.epoch, run.end - 1));
      records = run.end;
    }
    ev.max_epoch_ = MaxEpoch(ev.max_epoch_, run.epoch);
  }
  return ev;
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
