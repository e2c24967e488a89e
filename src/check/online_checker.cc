#include "check/online_checker.h"

#include <chrono>
#include <sstream>

namespace cubrick::check {

namespace {

/// SplitMix64: the sampling decision and the fingerprint mix. Pure
/// function of its input — no RNG state, so sampling is interleaving-
/// independent (the determinism contract of CheckerHook::ShouldSample).
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t CombineHash(uint64_t h, uint64_t v) {
  return Mix64(h ^ Mix64(v));
}

uint64_t FingerprintDeps(const aosi::EpochSet& deps) {
  uint64_t h = 0x5ca1ab1eULL;
  for (aosi::Epoch e : deps) h = CombineHash(h, e);
  return h;
}

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

const char* KindName(ViolationRecord::Kind kind) {
  switch (kind) {
    case ViolationRecord::Kind::kStaleRead:
      return "stale_read";
    case ViolationRecord::Kind::kMissingVisible:
      return "missing_visible";
    case ViolationRecord::Kind::kNonRepeatable:
      return "non_repeatable";
    case ViolationRecord::Kind::kLostHorizon:
      return "lost_horizon";
  }
  return "unknown";
}

}  // namespace

// --- SampleRing --------------------------------------------------------------

SampleRing::SampleRing(size_t capacity) {
  const size_t cap = RoundUpPow2(capacity < 2 ? 2 : capacity);
  mask_ = cap - 1;
  cells_ = std::vector<Cell>(cap);
  for (size_t i = 0; i < cap; ++i) {
    cells_[i].seq.store(i, std::memory_order_relaxed);
  }
}

bool SampleRing::TryPush(const ScanSample& sample) {
  uint64_t pos = enqueue_pos_.load(std::memory_order_relaxed);
  for (;;) {
    Cell& cell = cells_[pos & mask_];
    const uint64_t cell_seq = cell.seq.load(std::memory_order_acquire);
    const int64_t diff =
        static_cast<int64_t>(cell_seq) - static_cast<int64_t>(pos);
    if (diff == 0) {
      if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                             std::memory_order_relaxed,
                                             std::memory_order_relaxed)) {
        cell.value = sample;
        cell.seq.store(pos + 1, std::memory_order_release);
        return true;
      }
      // CAS failure reloaded pos; retry against the new cell.
    } else if (diff < 0) {
      return false;  // full: the consumer has not freed this cell yet
    } else {
      pos = enqueue_pos_.load(std::memory_order_relaxed);
    }
  }
}

bool SampleRing::TryPop(ScanSample* out) {
  uint64_t pos = dequeue_pos_.load(std::memory_order_relaxed);
  for (;;) {
    Cell& cell = cells_[pos & mask_];
    const uint64_t cell_seq = cell.seq.load(std::memory_order_acquire);
    const int64_t diff =
        static_cast<int64_t>(cell_seq) - static_cast<int64_t>(pos + 1);
    if (diff == 0) {
      if (dequeue_pos_.compare_exchange_weak(pos, pos + 1,
                                             std::memory_order_relaxed,
                                             std::memory_order_relaxed)) {
        *out = cell.value;
        cell.seq.store(pos + mask_ + 1, std::memory_order_release);
        return true;
      }
    } else if (diff < 0) {
      return false;  // empty
    } else {
      pos = dequeue_pos_.load(std::memory_order_relaxed);
    }
  }
}

size_t SampleRing::ApproxDepth() const {
  const uint64_t enq = enqueue_pos_.load(std::memory_order_acquire);
  const uint64_t deq = dequeue_pos_.load(std::memory_order_acquire);
  return enq >= deq ? static_cast<size_t>(enq - deq) : 0;
}

// --- OnlineChecker -----------------------------------------------------------

OnlineChecker::OnlineChecker(OnlineCheckerOptions options)
    : options_(options), ring_(options.ring_capacity) {
  auto& reg = obs::MetricsRegistry::Global();
  metrics_ = {
      reg.GetCounter("check.online.sampled_txns"),
      reg.GetCounter("check.online.observations"),
      reg.GetCounter("check.online.ring_drops"),
      reg.GetCounter("check.online.validated"),
      reg.GetCounter("check.online.violations"),
      reg.GetCounter("check.online.stale_reads"),
      reg.GetCounter("check.online.missing_visible"),
      reg.GetCounter("check.online.non_repeatable"),
      reg.GetCounter("check.online.lost_horizon"),
      reg.GetCounter("check.online.truncated"),
      reg.GetGauge("check.online.validation_lag"),
  };
}

OnlineChecker::~OnlineChecker() { Uninstall(); }

void OnlineChecker::Install() {
  aosi::SetCheckerHook(this);
  installed_ = true;
  if (!validator_thread_.joinable()) {
    {
      MutexLock lock(validator_mutex_);
      stop_validator_ = false;
    }
    validator_thread_ = std::thread([this] { ValidatorLoop(); });
  }
}

void OnlineChecker::Uninstall() {
  if (installed_ && aosi::GetCheckerHook() == this) {
    aosi::SetCheckerHook(nullptr);
  }
  installed_ = false;
  if (validator_thread_.joinable()) {
    {
      MutexLock lock(validator_mutex_);
      stop_validator_ = true;
    }
    validator_cv_.NotifyAll();
    validator_thread_.join();
  }
  // Final drain: every record pushed before the hook was removed gets
  // validated, so tests can assert on ViolationCount() right after.
  DrainForTest();
}

bool OnlineChecker::ShouldSample(aosi::Epoch snapshot_epoch) const {
  if (options_.sample_permille >= 1000) return true;
  if (options_.sample_permille == 0) return false;
  return Mix64(snapshot_epoch) % 1000 < options_.sample_permille;
}

void OnlineChecker::OnBegin(const aosi::Txn& txn) {
  if (!ShouldSample(txn.epoch)) return;
  metrics_.sampled_txns->Add();
  MutexLock lock(state_mutex_);
  // Effective horizon for lost-horizon checking: deps at or below the
  // highest LSE this checker has seen cannot be legitimate pins. A
  // genuinely pending epoch keeps every node's LCE — and therefore LSE —
  // below itself; the one way a dep ends up under an established LSE is a
  // stale draft epoch from a desynced coordinator clock, which peers
  // reject (TxnManager::RegisterRemoteBegin) and which aborts having
  // written nothing. Pinning on such a dep would make every later
  // republication of the pre-existing LSE look like a violation.
  aosi::Epoch min_live_dep = aosi::kNoEpoch;
  for (aosi::Epoch d : txn.deps) {
    if (!aosi::IsNoEpoch(max_lse_seen_) && aosi::AtOrBefore(d, max_lse_seen_)) {
      continue;
    }
    min_live_dep = aosi::IsNoEpoch(min_live_dep)
                       ? d
                       : aosi::MinEpoch(min_live_dep, d);
  }
  const aosi::Epoch horizon =
      aosi::IsNoEpoch(min_live_dep)
          ? txn.epoch
          : aosi::MinEpoch(min_live_dep - 1, txn.epoch);
  active_horizons_.emplace(txn.epoch, horizon);
}

void OnlineChecker::OnFinish(const aosi::Txn& txn, bool /*committed*/) {
  if (!ShouldSample(txn.epoch)) return;
  MutexLock lock(state_mutex_);
  // Erase ONE registration; RO snapshots share the LCE epoch, and AugmentDeps
  // may have shifted a RW horizon since OnBegin, so match by epoch alone.
  auto it = active_horizons_.find(txn.epoch);
  if (it != active_horizons_.end()) active_horizons_.erase(it);
}

void OnlineChecker::OnScanObservation(const aosi::ScanObservation& obs) {
  metrics_.observations->Add();
  ScanSample sample;
  sample.snapshot_epoch = obs.snapshot_epoch;
  if (obs.deps != nullptr) {
    sample.deps_fingerprint = FingerprintDeps(*obs.deps);
    for (aosi::Epoch e : *obs.deps) {
      if (sample.num_deps >= ScanSample::kMaxDeps) {
        sample.deps_truncated = true;
        break;
      }
      sample.deps[sample.num_deps++] = e;
    }
  }
  sample.bid = obs.bid;
  sample.history_version = obs.history_version;
  sample.visible_total = obs.visible_total;
  // The producer may already have bounded the run list at the source
  // (executor.cc decodes at most a kMaxObservedRuns prefix).
  sample.runs_truncated = obs.runs_truncated;
  for (size_t i = 0; i < obs.num_runs; ++i) {
    if (sample.num_runs >= ScanSample::kMaxRuns) {
      sample.runs_truncated = true;
      break;
    }
    sample.runs[sample.num_runs++] = obs.runs[i];
  }
  if (sample.deps_truncated || sample.runs_truncated) {
    metrics_.truncated->Add();
  }
  if (!ring_.TryPush(sample)) {
    metrics_.ring_drops->Add();
    return;
  }
  const size_t depth = ring_.ApproxDepth();
  metrics_.validation_lag->Set(static_cast<int64_t>(depth));
  // The validator polls on a 1 ms cadence (ValidatorLoop), so a wakeup per
  // sample would buy at most 1 ms of validation lag while charging the
  // scan thread a context switch — on a single-core box that alone pushed
  // checker-on query latency past the 5% overhead budget. Kick it eagerly
  // only when the ring is filling faster than the poll drains it.
  if (depth >= ring_.capacity() / 2) validator_cv_.NotifyOne();
}

void OnlineChecker::OnLseAdvance(aosi::Epoch lse) {
  MutexLock lock(state_mutex_);
  // Judge only a new high-water mark. TryAdvanceLSE republishes the
  // current LSE on every maintenance round; re-checking an old advance
  // would compare it against snapshots that began (legitimately) after the
  // LSE already stood there, and repeat any verdict once per round.
  if (!aosi::IsNoEpoch(max_lse_seen_) && aosi::AtOrBefore(lse, max_lse_seen_)) {
    return;
  }
  max_lse_seen_ = aosi::MaxEpoch(max_lse_seen_, lse);
  for (const auto& [epoch, horizon] : active_horizons_) {
    if (aosi::After(lse, horizon)) {
      std::ostringstream oss;
      oss << "LSE advanced to " << lse << " past the horizon " << horizon
          << " of live sampled snapshot epoch=" << epoch
          << "; purge may destroy history the snapshot still distinguishes";
      metrics_.lost_horizon->Add();
      metrics_.violations->Add();
      violation_count_++;
      if (violations_.size() < options_.max_violations) {
        violations_.push_back(
            {ViolationRecord::Kind::kLostHorizon, oss.str()});
      }
    }
  }
}

void OnlineChecker::ValidatorLoop() {
  for (;;) {
    DrainOnce();
    MutexLock lock(validator_mutex_);
    if (stop_validator_) return;
    validator_cv_.WaitFor(lock, std::chrono::milliseconds(1));
  }
}

size_t OnlineChecker::DrainOnce() {
  size_t validated = 0;
  ScanSample sample;
  while (ring_.TryPop(&sample)) {
    ValidateSample(sample);
    ++validated;
  }
  if (validated > 0) {
    metrics_.validated->Add(validated);
    metrics_.validation_lag->Set(static_cast<int64_t>(ring_.ApproxDepth()));
  }
  return validated;
}

void OnlineChecker::DrainForTest() { DrainOnce(); }

size_t OnlineChecker::ActiveHorizonCountForTest() const {
  MutexLock lock(state_mutex_);
  return active_horizons_.size();
}

void OnlineChecker::ValidateSample(const ScanSample& sample) {
  // Rebuild the snapshot from the recorded metadata. With a truncated deps
  // copy, membership is only decidable for epochs at or below the largest
  // copied dep; runs beyond that bound are skipped rather than guessed.
  std::vector<aosi::Epoch> dep_vec(sample.deps, sample.deps + sample.num_deps);
  const aosi::Snapshot snapshot{sample.snapshot_epoch,
                                aosi::EpochSet(std::move(dep_vec))};
  const aosi::Epoch max_known_dep =
      sample.num_deps > 0 ? sample.deps[sample.num_deps - 1] : aosi::kNoEpoch;
  auto deps_decidable = [&](aosi::Epoch e) {
    return !sample.deps_truncated || aosi::AtOrBefore(e, max_known_dep);
  };

  // Visible delete markers recorded with the sample (the §III-C2 frontier).
  struct VisibleDelete {
    aosi::Epoch k;
    uint64_t point;
  };
  std::vector<VisibleDelete> deletes;
  for (uint32_t i = 0; i < sample.num_runs; ++i) {
    const aosi::ObservedRun& run = sample.runs[i];
    if (run.is_delete && deps_decidable(run.epoch) &&
        snapshot.Sees(run.epoch)) {
      deletes.push_back({run.epoch, run.begin});
    }
  }

  for (uint32_t i = 0; i < sample.num_runs; ++i) {
    const aosi::ObservedRun& run = sample.runs[i];
    if (run.is_delete) continue;
    if (!deps_decidable(run.epoch)) continue;
    uint64_t expected = 0;
    if (snapshot.Sees(run.epoch)) {
      // Mirror of aosi::ApplyDeleteCleanup: a visible delete by k wipes
      // earlier transactions' runs entirely and k's own records before its
      // delete point.
      bool wiped = false;
      uint64_t cleared_to = run.begin;
      for (const VisibleDelete& del : deletes) {
        if (aosi::HappensBefore(run.epoch, del.k)) {
          wiped = true;
          break;
        }
        if (aosi::SameEpoch(run.epoch, del.k)) {
          const uint64_t upto = del.point < run.end ? del.point : run.end;
          if (upto > cleared_to) cleared_to = upto;
        }
      }
      if (!wiped) expected = run.end - cleared_to;
    }
    // With a truncated run list a delete marker may be missing from our
    // copy, so `expected` is only an upper bound: observed > expected is
    // still always a violation, observed < expected is not.
    if (run.visible_rows > expected) {
      std::ostringstream oss;
      oss << "run epoch=" << run.epoch << " [" << run.begin << ","
          << run.end << ") contributed " << run.visible_rows
          << " rows, visibility rule admits " << expected
          << " under snapshot{epoch=" << snapshot.epoch
          << ", deps=" << snapshot.deps.ToString() << "} bid=" << sample.bid;
      RecordViolation(ViolationRecord::Kind::kStaleRead, oss.str());
      metrics_.stale_reads->Add();
    } else if (run.visible_rows < expected && !sample.runs_truncated) {
      std::ostringstream oss;
      oss << "run epoch=" << run.epoch << " [" << run.begin << ","
          << run.end << ") contributed only " << run.visible_rows
          << " of " << expected << " visible rows under snapshot{epoch="
          << snapshot.epoch << ", deps=" << snapshot.deps.ToString()
          << "} bid=" << sample.bid;
      RecordViolation(ViolationRecord::Kind::kMissingVisible, oss.str());
      metrics_.missing_visible->Add();
    }
  }

  // Repeatability: the same (snapshot epoch, deps, brick, history version)
  // must always yield the same visible total — the epochs vector is
  // append-only and the deps set pins concurrent writers, so any drift
  // means the snapshot was not repeatable.
  uint64_t key = CombineHash(sample.snapshot_epoch, sample.deps_fingerprint);
  key = CombineHash(key, sample.bid);
  key = CombineHash(key, sample.history_version);
  MutexLock lock(state_mutex_);
  auto [it, inserted] = seen_totals_.emplace(key, sample.visible_total);
  if (inserted) {
    seen_order_.push_back(key);
    if (seen_totals_.size() > options_.max_fingerprints &&
        seen_evict_next_ < seen_order_.size()) {
      seen_totals_.erase(seen_order_[seen_evict_next_++]);
    }
  } else if (it->second != sample.visible_total) {
    std::ostringstream oss;
    oss << "snapshot{epoch=" << sample.snapshot_epoch << "} bid="
        << sample.bid << " history_version=" << sample.history_version
        << " observed " << sample.visible_total << " visible rows after "
        << it->second << " earlier — snapshot is not repeatable";
    metrics_.non_repeatable->Add();
    metrics_.violations->Add();
    violation_count_++;
    if (violations_.size() < options_.max_violations) {
      violations_.push_back(
          {ViolationRecord::Kind::kNonRepeatable, oss.str()});
    }
  }
}

void OnlineChecker::RecordViolation(ViolationRecord::Kind kind,
                                    std::string detail) {
  metrics_.violations->Add();
  MutexLock lock(state_mutex_);
  violation_count_++;
  if (violations_.size() < options_.max_violations) {
    violations_.push_back({kind, std::move(detail)});
  }
}

uint64_t OnlineChecker::ViolationCount() const {
  MutexLock lock(state_mutex_);
  return violation_count_;
}

std::vector<ViolationRecord> OnlineChecker::Violations() const {
  MutexLock lock(state_mutex_);
  return violations_;
}

std::string ViolationKindName(ViolationRecord::Kind kind) {
  return KindName(kind);
}

}  // namespace cubrick::check
