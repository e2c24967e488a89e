// Online-checker hook points (docs/CHECKING.md, "Online checking").
//
// The AOSI layer and the scan path report transaction lifecycle events and
// per-brick visibility observations through this interface so an external
// monitor (src/check/online_checker.h) can validate snapshot isolation
// *while the system runs*. The indirection keeps the dependency arrow
// pointing outward: src/aosi and src/query know only this header; the
// checker registers itself at runtime.
//
// Cost contract: when no hook is installed, every call site is one relaxed
// atomic load plus an untaken branch. When a hook is installed, call sites
// must still ask ShouldSample() before assembling a ScanObservation, so the
// per-read cost stays proportional to the sampling rate (CCBench attributes
// most CC cost to exactly this per-read metadata work).
//
// Threading: hooks are invoked concurrently from transaction and scan
// threads. OnFinish is the one exception to the "never under a TxnManager
// mutex" rule: it fires inside the critical section that removes the
// transaction's horizon, so the checker's view of active horizons can
// never lag behind an LSE advance (fired after release, a preempted
// finisher would let OnLseAdvance outrun it and manufacture a false
// lost_horizon). OnFinish implementations must therefore never call back
// into the TxnManager; every other hook is invoked with no TxnManager
// mutex held and may read its counters freely.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "aosi/epoch.h"
#include "aosi/txn.h"

namespace cubrick::aosi {

/// Upper bound on the runs a call site materializes per observation. The
/// checker keeps at most this many anyway (ScanSample::kMaxRuns mirrors
/// it), so decoding or popcounting past the bound is pure waste — with a
/// long history it would turn the "near-free" hook into an O(history)
/// pass per sampled scan. Call sites that hit the bound set
/// ScanObservation::runs_truncated instead.
inline constexpr size_t kMaxObservedRuns = 16;

/// One decoded epoch-vector run together with how many of its records the
/// scan's visibility mask actually admitted.
struct ObservedRun {
  Epoch epoch = kNoEpoch;
  uint64_t begin = 0;
  uint64_t end = 0;
  bool is_delete = false;
  /// Append runs: popcount of the scan's visibility bitmap over
  /// [begin, end). Delete markers: 0.
  uint64_t visible_rows = 0;
};

/// Everything the checker needs to re-derive the visibility decision for
/// one (brick, snapshot) pair. Borrowed pointers are valid only for the
/// duration of the OnScanObservation call; implementations must copy.
struct ScanObservation {
  Epoch snapshot_epoch = kNoEpoch;
  /// The snapshot's dependency set (excluded epochs).
  const EpochSet* deps = nullptr;
  /// Brick id within its cube.
  uint64_t bid = 0;
  /// EpochVector::version() at observation time: two observations of the
  /// same (snapshot, bid, history_version) must agree, or the snapshot was
  /// not repeatable.
  uint64_t history_version = 0;
  const ObservedRun* runs = nullptr;
  size_t num_runs = 0;
  /// The history held more than kMaxObservedRuns runs; `runs` covers only
  /// the leading prefix. The validator must weaken prefix-dependent
  /// assertions (missing_visible, the visible_total == sum check) but can
  /// still assert stale reads on the runs it did see.
  bool runs_truncated = false;
  /// Popcount of the whole visibility bitmap (== sum of runs'
  /// visible_rows when the run list was not truncated by the caller).
  uint64_t visible_total = 0;
};

/// Interface the online checker implements. All methods must be cheap and
/// non-blocking: they run inline on transaction begin/commit and scan paths.
class CheckerHook {
 public:
  virtual ~CheckerHook() = default;

  /// Sampling decision for a snapshot epoch. Must be a pure function of the
  /// epoch (no RNG state) so a replayed seed samples the same transactions
  /// regardless of thread interleaving.
  virtual bool ShouldSample(Epoch snapshot_epoch) const = 0;

  /// A transaction began (RW with a fresh epoch, or RO pinned at LCE).
  virtual void OnBegin(const Txn& txn) = 0;

  /// A transaction finished. `committed` is meaningless for RO handles.
  virtual void OnFinish(const Txn& txn, bool committed) = 0;

  /// A scan resolved visibility for one brick under a sampled snapshot.
  virtual void OnScanObservation(const ScanObservation& obs) = 0;

  /// LSE advanced to `lse` on some node. The checker cross-checks this
  /// against the horizons of sampled active transactions: LSE passing a
  /// live snapshot's horizon means purge may destroy history that snapshot
  /// still distinguishes ("lost remote-horizon advancement").
  virtual void OnLseAdvance(Epoch lse) = 0;
};

namespace internal {
inline std::atomic<CheckerHook*>& CheckerHookSlot() {
  static std::atomic<CheckerHook*> slot{nullptr};
  return slot;
}
}  // namespace internal

/// The installed hook, or nullptr. Acquire pairs with the release in
/// SetCheckerHook so a hook observed here is fully constructed.
inline CheckerHook* GetCheckerHook() {
  return internal::CheckerHookSlot().load(std::memory_order_acquire);
}

/// Installs (or, with nullptr, removes) the process-wide hook. The caller
/// owns the hook and must keep it alive until after uninstalling it and
/// draining any in-flight calls (in practice: tests and the check_si
/// harness install once at startup and uninstall at shutdown).
inline void SetCheckerHook(CheckerHook* hook) {
  internal::CheckerHookSlot().store(hook, std::memory_order_release);
}

}  // namespace cubrick::aosi
