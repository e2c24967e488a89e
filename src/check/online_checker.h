// Online SI violation checker (docs/CHECKING.md, "Online checking").
//
// The offline oracle (si_oracle.h) proves snapshot isolation after the
// fact, by replaying a finished workload. This checker validates SI *while
// the system runs*, in the style of online timestamp-based isolation
// checking (PAPERS.md, arXiv 2504.01477): it samples live transactions
// through the aosi::CheckerHook points, records what each sampled scan
// actually observed per brick into a bounded lock-free ring, and
// re-derives the expected visibility from the same epoch metadata on a
// background validator — no stop-the-world, no coordination with the
// transactions being checked.
//
// Violation classes:
//   stale_read       — a run outside the snapshot (uncommitted dep, or a
//                      later epoch) contributed rows to a scan.
//   missing_visible  — a fully in-snapshot run contributed fewer rows than
//                      the §III-C3 visibility rule admits.
//   non_repeatable   — the same (snapshot, brick, history version) was
//                      observed twice with different visible totals.
//   lost_horizon     — LSE advanced past a live sampled snapshot's
//                      horizon, so purge may destroy history the snapshot
//                      still needs.
//
// Everything publishes into the obs metrics registry under check.online.*
// and the "check.validate" trace span; see docs/OBSERVABILITY.md.

#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "aosi/checker_hook.h"
#include "aosi/epoch.h"
#include "common/mutex.h"
#include "obs/metrics.h"

namespace cubrick::check {

struct OnlineCheckerOptions {
  /// Sampling rate out of 1000 (1000 = every transaction). The decision is
  /// a pure hash of the snapshot epoch, so a replayed seed samples the
  /// same transactions regardless of thread interleaving.
  uint32_t sample_permille = 1000;
  /// Ring capacity in records; rounded up to a power of two. When the
  /// validator falls behind, writers drop (counted, never blocking).
  size_t ring_capacity = 1024;
  /// Bound on the (snapshot, brick, history) fingerprint table used for
  /// repeatability checking; oldest entries are evicted FIFO.
  size_t max_fingerprints = 4096;
  /// Violation descriptions retained for inspection (counters are exact
  /// regardless).
  size_t max_violations = 64;
};

struct ViolationRecord {
  enum class Kind : uint8_t {
    kStaleRead,
    kMissingVisible,
    kNonRepeatable,
    kLostHorizon,
  };
  Kind kind;
  std::string detail;
};

/// "stale_read", "missing_visible", ... (metric suffixes and log labels).
std::string ViolationKindName(ViolationRecord::Kind kind);

/// One sampled (snapshot, brick) visibility observation, sized for the
/// ring: fixed arrays, no heap. Deps and runs beyond the bounds are
/// dropped and flagged; the validator weakens its assertions accordingly
/// instead of guessing.
struct ScanSample {
  static constexpr size_t kMaxDeps = 8;
  /// Mirrors the producer-side bound: call sites never materialize more
  /// runs than the sample can hold (aosi::kMaxObservedRuns).
  static constexpr size_t kMaxRuns = aosi::kMaxObservedRuns;

  aosi::Epoch snapshot_epoch = aosi::kNoEpoch;
  uint32_t num_deps = 0;
  uint32_t num_runs = 0;
  bool deps_truncated = false;
  bool runs_truncated = false;
  aosi::Epoch deps[kMaxDeps] = {};
  /// Hash of the FULL deps set (not just the copied prefix), so two
  /// snapshots that differ only beyond the bound cannot alias in the
  /// repeatability check.
  uint64_t deps_fingerprint = 0;
  uint64_t bid = 0;
  uint64_t history_version = 0;
  uint64_t visible_total = 0;
  aosi::ObservedRun runs[kMaxRuns] = {};
};

/// Bounded MPMC ring (Vyukov-style: per-cell sequence numbers, one CAS per
/// push/pop). Push drops on full rather than blocking — the checker must
/// never backpressure the transactions it watches.
class SampleRing {
 public:
  explicit SampleRing(size_t capacity);

  bool TryPush(const ScanSample& sample);
  bool TryPop(ScanSample* out);

  /// Approximate records currently queued (validation lag).
  size_t ApproxDepth() const;

  size_t capacity() const { return mask_ + 1; }

 private:
  struct Cell {
    std::atomic<uint64_t> seq{0};
    ScanSample value;
  };

  size_t mask_;
  std::vector<Cell> cells_;
  std::atomic<uint64_t> enqueue_pos_{0};
  std::atomic<uint64_t> dequeue_pos_{0};
};

class OnlineChecker : public aosi::CheckerHook {
 public:
  explicit OnlineChecker(OnlineCheckerOptions options = {});
  ~OnlineChecker() override;

  OnlineChecker(const OnlineChecker&) = delete;
  OnlineChecker& operator=(const OnlineChecker&) = delete;

  /// Registers this checker as the process-wide hook and starts the
  /// background validator.
  void Install();

  /// Removes the hook, stops the validator and drains the ring so every
  /// record pushed before this call is validated.
  void Uninstall();

  // --- aosi::CheckerHook ---------------------------------------------------

  bool ShouldSample(aosi::Epoch snapshot_epoch) const override;
  void OnBegin(const aosi::Txn& txn) override;
  void OnFinish(const aosi::Txn& txn, bool committed) override;
  void OnScanObservation(const aosi::ScanObservation& obs) override;
  void OnLseAdvance(aosi::Epoch lse) override;

  // --- Results -------------------------------------------------------------

  /// Synchronously validates everything currently in the ring (tests; also
  /// used by Uninstall for the final drain).
  void DrainForTest();

  uint64_t ViolationCount() const;
  std::vector<ViolationRecord> Violations() const;

  /// Sampled transactions currently believed active (begin seen, finish
  /// not). Zero once a workload has quiesced — a leftover entry means a
  /// begin/finish hook imbalance, which would turn into false
  /// lost_horizon reports.
  size_t ActiveHorizonCountForTest() const;

  const OnlineCheckerOptions& options() const { return options_; }

 private:
  struct Instruments {
    obs::Counter* sampled_txns;
    obs::Counter* observations;
    obs::Counter* ring_drops;
    obs::Counter* validated;
    obs::Counter* violations;
    obs::Counter* stale_reads;
    obs::Counter* missing_visible;
    obs::Counter* non_repeatable;
    obs::Counter* lost_horizon;
    obs::Counter* truncated;
    obs::Gauge* validation_lag;
  };

  void ValidatorLoop();
  /// Pops and validates until the ring is empty; returns records validated.
  size_t DrainOnce();
  void ValidateSample(const ScanSample& sample);
  void RecordViolation(ViolationRecord::Kind kind, std::string detail);

  const OnlineCheckerOptions options_;
  Instruments metrics_;
  SampleRing ring_;

  // Active sampled transactions (epoch -> effective horizon; multimap
  // because RO snapshots share the LCE epoch) for the LSE-vs-horizon
  // cross-check. The effective horizon ignores deps at or below
  // max_lse_seen_ — stale draft epochs that abort without writing (see
  // OnBegin) — and advances are judged only when they set a new LSE
  // high-water mark.
  mutable Mutex state_mutex_;
  std::unordered_multimap<aosi::Epoch, aosi::Epoch> active_horizons_
      GUARDED_BY(state_mutex_);
  aosi::Epoch max_lse_seen_ GUARDED_BY(state_mutex_) = aosi::kNoEpoch;
  /// (snapshot, brick, history) fingerprint -> visible_total, with FIFO
  /// eviction order, for the repeatability check.
  std::unordered_map<uint64_t, uint64_t> seen_totals_
      GUARDED_BY(state_mutex_);
  std::vector<uint64_t> seen_order_ GUARDED_BY(state_mutex_);
  size_t seen_evict_next_ GUARDED_BY(state_mutex_) = 0;
  std::vector<ViolationRecord> violations_ GUARDED_BY(state_mutex_);
  uint64_t violation_count_ GUARDED_BY(state_mutex_) = 0;

  Mutex validator_mutex_;
  CondVar validator_cv_;
  bool stop_validator_ GUARDED_BY(validator_mutex_) = false;
  std::thread validator_thread_;
  bool installed_ = false;
};

}  // namespace cubrick::check
