// Per-node transaction manager (paper §III-A/B, §IV).
//
// Maintains the three node-local counters:
//   EC  — Epoch Clock: timestamp of the next transaction (see EpochClock).
//   LCE — Latest Committed Epoch: the largest committed epoch such that every
//         RW transaction before it is finished. RO transactions run at LCE
//         with no pending-set bookkeeping.
//   LSE — Latest Safe Epoch: everything at or before it is finished, not
//         referenced by any active snapshot, and durable; transactional
//         history before LSE may be purged.
// Invariant, checked continuously: EC > LCE >= LSE.
//
// The manager also tracks pendingTxs — the set of uncommitted RW epochs seen
// so far (local or learned from remote nodes). A new RW transaction snapshots
// this set into its deps.

#pragma once

#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "aosi/epoch.h"
#include "aosi/epoch_clock.h"
#include "aosi/txn.h"
#include "common/mutex.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace cubrick::aosi {

class TxnManager {
 public:
  /// Single-node constructor.
  TxnManager() : TxnManager(1, 1) {}

  /// Cluster-member constructor; node_idx is 1-based.
  TxnManager(uint32_t node_idx, uint32_t num_nodes);

  // --- Transaction lifecycle -------------------------------------------

  /// Starts a RW transaction: draws a fresh epoch, snapshots pendingTxs into
  /// deps, and registers the transaction as pending. The cluster layer
  /// passes notify_checker=false and fires the checker's OnBegin itself
  /// once the begin protocol has fully succeeded — a draft that loses the
  /// horizon-registration race is aborted without ever reading, so
  /// reporting it would manufacture averted lost_horizon violations.
  Txn BeginReadWrite(bool notify_checker = true) EXCLUDES(mutex_);

  /// Starts a RO transaction pinned to the current LCE. The returned handle
  /// must be released with EndReadOnly so LSE gating can track it.
  Txn BeginReadOnly() EXCLUDES(mutex_);

  /// Commits a RW transaction. Idempotence is not supported: committing an
  /// unknown or finished epoch is a FailedPrecondition.
  Status Commit(const Txn& txn) EXCLUDES(mutex_);

  /// Aborts a RW transaction. The caller is responsible for physically
  /// removing its appends (see PlanRollback); the manager only finalizes the
  /// timestamp bookkeeping.
  Status Rollback(const Txn& txn) EXCLUDES(mutex_);

  /// Releases a RO transaction.
  void EndReadOnly(const Txn& txn) EXCLUDES(mutex_);

  /// Extends an active RW transaction's dependency set with pending
  /// transactions learned from remote nodes during the begin broadcast
  /// (§IV-C), re-registering its LSE horizon accordingly. Epochs >= the
  /// transaction's own are ignored (invisible by timestamp order anyway).
  /// Returns false when the local LSE has already passed the augmented
  /// horizon — the snapshot can no longer be protected and the caller must
  /// abort the draft and redraw.
  bool AugmentDeps(Txn* txn, const EpochSet& remote_pending)
      EXCLUDES(mutex_);

  // --- Distributed hooks (driven by the cluster layer) ------------------

  /// Lamport clock observation from an incoming message.
  void ObserveClock(Epoch remote_ec) { clock_.Observe(remote_ec); }

  /// Atomic begin-broadcast handler: registers the remote RW transaction
  /// AND snapshots this node's pendingTxs into `pending` under one lock
  /// acquisition. Returns false — registering nothing, leaving `pending`
  /// untouched — when the local LCE has already walked past `epoch`: the
  /// LCE walk skips unallocated epoch gaps, so accepting a begin at or
  /// below LCE would retroactively grow snapshots already pinned at that
  /// LCE (the non-repeatable-snapshot race behind the PR-5 check_si
  /// cluster flake). The coordinator must abort the draft epoch and
  /// redraw (cluster::Cluster::BeginReadWrite). Increments
  /// aosi.txn.begin_rejects on rejection.
  bool RegisterRemoteBegin(Epoch epoch, EpochSet* pending) EXCLUDES(mutex_);

  /// Registers a remote RW transaction's purge horizon so this node's
  /// TryAdvanceLSE clamps to it (begin-protocol phase 2; see
  /// cluster::Cluster::BeginReadWrite). A snapshot's final horizon is only
  /// known on its coordinator after AugmentDeps, but the distributed scan
  /// path reads *every* node's replicas — so every node must refuse to let
  /// its LSE (and therefore purge) pass the horizon while the transaction
  /// lives. Returns false — registering nothing, incrementing
  /// aosi.txn.begin_rejects — when the local LSE already passed `horizon`;
  /// the coordinator must abort the draft and redraw. The pin is released
  /// by NoteRemoteFinish.
  bool RegisterRemoteHorizon(Epoch epoch, Epoch horizon) EXCLUDES(mutex_);

  /// Registers a remote transaction's completion.
  void NoteRemoteFinish(Epoch epoch, bool committed) EXCLUDES(mutex_);

  /// Extends a remote transaction's dependency information: LCE may not
  /// advance past `epoch` until all of `deps` are finished. (The commit
  /// broadcast carries T.deps; §IV-C.)
  void NoteRemoteDeps(Epoch epoch, const EpochSet& deps) EXCLUDES(mutex_);

  // --- Counters and introspection ---------------------------------------

  /// EC: the epoch the next transaction would receive.
  Epoch EC() const { return clock_.Peek(); }
  Epoch LCE() const EXCLUDES(mutex_);
  Epoch LSE() const EXCLUDES(mutex_);

  /// Snapshot of the pending RW transaction set.
  EpochSet PendingTxs() const EXCLUDES(mutex_);

  /// Minimum horizon over the snapshots this node knows to be active —
  /// locally-coordinated ones plus remote horizons registered through
  /// RegisterRemoteHorizon — or ~0 when none are. A cluster-wide LSE
  /// advance must clamp to this bound on *every* node: purge at LSE
  /// destructively applies delete markers on all of them.
  Epoch MinActiveHorizon() const EXCLUDES(mutex_);

  /// Number of transactions tracked (pending + committed-but-blocked).
  size_t NumTracked() const EXCLUDES(mutex_);

  /// Attempts to advance LSE to `candidate` (e.g. after a flush round has
  /// made everything <= candidate durable). The effective new LSE is clamped
  /// to LCE and to the horizons of all active snapshots; returns the LSE in
  /// effect afterwards.
  Epoch TryAdvanceLSE(Epoch candidate) EXCLUDES(mutex_);

  /// Resets the counters after crash recovery: LCE = LSE = `lse`, clock
  /// fast-forwarded strictly past it. Must only be called on a manager with
  /// no transactions (fresh process).
  void RestoreAfterRecovery(Epoch lse) { RestoreAfterRecovery(lse, lse); }

  /// Two-level restore: a node that caught up from replicas holds data up
  /// to `lce` in memory but has only flushed up to `lse` locally.
  void RestoreAfterRecovery(Epoch lce, Epoch lse) EXCLUDES(mutex_);

 private:
  struct TrackedTxn {
    TxnState state = TxnState::kPending;
    /// Dependencies that must finish before LCE can pass this epoch.
    EpochSet blocking_deps;
  };

  /// Health gauges and lifecycle counters published to the global
  /// MetricsRegistry (docs/OBSERVABILITY.md, "aosi.*"). Resolved once at
  /// construction; writes through them are wait-free.
  struct Instruments {
    obs::Counter* begin_rw;
    obs::Counter* begin_ro;
    obs::Counter* commits;
    obs::Counter* rollbacks;
    obs::Counter* begin_rejects;
    obs::Gauge* ec;
    obs::Gauge* lce;
    obs::Gauge* lse;
    obs::Gauge* ec_lce_lag;
    obs::Gauge* lce_lse_lag;
    obs::Gauge* pending_txs;
    obs::Gauge* tracked_txns;
  };

  /// Re-publishes the EC/LCE/LSE gauges, their lags, and the pendingTxs /
  /// tracked depths. Called after every state transition.
  void PublishGaugesLocked() REQUIRES(mutex_);

  /// Walks finished transactions in epoch order and advances lce_.
  void AdvanceLceLocked() REQUIRES(mutex_);

  /// True when every epoch in `deps` is finished.
  bool DepsFinishedLocked(const EpochSet& deps) const REQUIRES(mutex_);

  EpochClock clock_;

  mutable Mutex mutex_;
  /// All known unfinished-or-LCE-blocked transactions, ordered by epoch.
  std::map<Epoch, TrackedTxn> tracked_ GUARDED_BY(mutex_);
  /// Epochs of transactions that finished but may still block others' deps.
  /// Cleared as lce_ passes them.
  std::set<Epoch> finished_ GUARDED_BY(mutex_);
  Epoch lce_ GUARDED_BY(mutex_) = kNoEpoch;
  Epoch lse_ GUARDED_BY(mutex_) = kNoEpoch;
  /// Horizons of active snapshots (RO and RW), for LSE gating. Holds both
  /// locally-coordinated snapshots and remote horizons registered through
  /// RegisterRemoteHorizon.
  std::multiset<Epoch> active_horizons_ GUARDED_BY(mutex_);
  /// Remote epoch -> registered horizon, so NoteRemoteFinish can release
  /// exactly the pin RegisterRemoteHorizon took.
  std::unordered_map<Epoch, Epoch> remote_horizons_ GUARDED_BY(mutex_);
  /// Count of tracked_ entries in state kPending (pendingTxs depth gauge).
  size_t num_pending_ GUARDED_BY(mutex_) = 0;

  Instruments metrics_;
};

}  // namespace cubrick::aosi
