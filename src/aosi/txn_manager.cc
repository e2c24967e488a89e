#include "aosi/txn_manager.h"

#include <sstream>

#include "aosi/checker_hook.h"

namespace cubrick::aosi {

TxnManager::TxnManager(uint32_t node_idx, uint32_t num_nodes)
    : clock_(node_idx, num_nodes) {
  auto& reg = obs::MetricsRegistry::Global();
  metrics_ = {
      reg.GetCounter("aosi.txn.begin_rw_total"),
      reg.GetCounter("aosi.txn.begin_ro_total"),
      reg.GetCounter("aosi.txn.commit_total"),
      reg.GetCounter("aosi.txn.rollback_total"),
      reg.GetCounter("aosi.txn.begin_rejects"),
      reg.GetGauge("aosi.ec"),
      reg.GetGauge("aosi.lce"),
      reg.GetGauge("aosi.lse"),
      reg.GetGauge("aosi.ec_lce_lag"),
      reg.GetGauge("aosi.lce_lse_lag"),
      reg.GetGauge("aosi.pending_txs"),
      reg.GetGauge("aosi.tracked_txns"),
  };
}

void TxnManager::PublishGaugesLocked() {
  const Epoch ec = clock_.Peek();
  metrics_.ec->Set(static_cast<int64_t>(ec));
  metrics_.lce->Set(static_cast<int64_t>(lce_));
  metrics_.lse->Set(static_cast<int64_t>(lse_));
  // EC > LCE >= LSE always holds (checked by the SI oracle), so the lags
  // are non-negative; they are the paper's protocol-health quantities.
  metrics_.ec_lce_lag->Set(static_cast<int64_t>(ec - lce_));
  metrics_.lce_lse_lag->Set(static_cast<int64_t>(lce_ - lse_));
  metrics_.pending_txs->Set(static_cast<int64_t>(num_pending_));
  metrics_.tracked_txns->Set(static_cast<int64_t>(tracked_.size()));
}

Txn TxnManager::BeginReadWrite(bool notify_checker) {
  Txn txn;
  {
    MutexLock lock(mutex_);
    // The epoch must be acquired with mutex_ held: acquiring it first would
    // let a transaction that draws a later epoch snapshot pendingTxs before
    // this one registers, missing it in deps — a dirty read.
    const Epoch epoch = clock_.Acquire();
    txn.epoch = epoch;
    txn.type = TxnType::kReadWrite;
    for (const auto& [e, info] : tracked_) {
      if (HappensBefore(e, epoch) && info.state == TxnState::kPending) {
        txn.deps.Insert(e);
      }
    }
    tracked_.emplace(epoch, TrackedTxn{});
    active_horizons_.insert(txn.Horizon());
    ++num_pending_;
    metrics_.begin_rw->Add();
    PublishGaugesLocked();
  }
  if (notify_checker) {
    if (CheckerHook* hook = GetCheckerHook()) hook->OnBegin(txn);
  }
  return txn;
}

Txn TxnManager::BeginReadOnly() {
  Txn txn;
  {
    MutexLock lock(mutex_);
    txn.epoch = lce_;
    txn.type = TxnType::kReadOnly;
    active_horizons_.insert(txn.Horizon());
    metrics_.begin_ro->Add();
  }
  if (CheckerHook* hook = GetCheckerHook()) hook->OnBegin(txn);
  return txn;
}

Status TxnManager::Commit(const Txn& txn) {
  if (txn.read_only()) {
    EndReadOnly(txn);
    return Status::OK();
  }
  {
    MutexLock lock(mutex_);
    auto it = tracked_.find(txn.epoch);
    if (it == tracked_.end() || it->second.state != TxnState::kPending) {
      return Status::FailedPrecondition(
          "commit of unknown or finished transaction epoch " +
          std::to_string(txn.epoch));
    }
    it->second.state = TxnState::kCommitted;
    --num_pending_;
    auto h = active_horizons_.find(txn.Horizon());
    if (h != active_horizons_.end()) active_horizons_.erase(h);
    AdvanceLceLocked();
    metrics_.commits->Add();
    PublishGaugesLocked();
    // OnFinish must fire inside the critical section that removes the
    // horizon: fired after release, a preempted committer lets a
    // concurrent TryAdvanceLSE (which no longer sees this horizon) deliver
    // OnLseAdvance first, and the checker flags a false lost_horizon
    // against a transaction that was already finished.
    if (CheckerHook* hook = GetCheckerHook()) hook->OnFinish(txn, true);
  }
  return Status::OK();
}

Status TxnManager::Rollback(const Txn& txn) {
  if (txn.read_only()) {
    EndReadOnly(txn);
    return Status::OK();
  }
  {
    MutexLock lock(mutex_);
    auto it = tracked_.find(txn.epoch);
    if (it == tracked_.end() || it->second.state != TxnState::kPending) {
      return Status::FailedPrecondition(
          "rollback of unknown or finished transaction epoch " +
          std::to_string(txn.epoch));
    }
    it->second.state = TxnState::kAborted;
    --num_pending_;
    auto h = active_horizons_.find(txn.Horizon());
    if (h != active_horizons_.end()) active_horizons_.erase(h);
    AdvanceLceLocked();
    metrics_.rollbacks->Add();
    PublishGaugesLocked();
    // Inside the lock for the same reason as Commit: linearize the finish
    // with the horizon removal so OnLseAdvance can never outrun it.
    if (CheckerHook* hook = GetCheckerHook()) hook->OnFinish(txn, false);
  }
  return Status::OK();
}

void TxnManager::EndReadOnly(const Txn& txn) {
  MutexLock lock(mutex_);
  auto h = active_horizons_.find(txn.Horizon());
  if (h != active_horizons_.end()) active_horizons_.erase(h);
  // Inside the lock: see Commit.
  if (CheckerHook* hook = GetCheckerHook()) hook->OnFinish(txn, true);
}

bool TxnManager::AugmentDeps(Txn* txn, const EpochSet& remote_pending) {
  MutexLock lock(mutex_);
  auto h = active_horizons_.find(txn->Horizon());
  if (h != active_horizons_.end()) active_horizons_.erase(h);
  for (Epoch e : remote_pending) {
    if (HappensBefore(e, txn->epoch)) txn->deps.Insert(e);
  }
  active_horizons_.insert(txn->Horizon());
  // A dep learned here can drag the horizon below a local LSE advance that
  // slipped in between the epoch draw and this augment. Registering the pin
  // is then too late — purge may already have merged history the snapshot
  // distinguishes — so the caller must abort the draft and redraw.
  if (After(lse_, txn->Horizon())) {
    metrics_.begin_rejects->Add();
    return false;
  }
  return true;
}

bool TxnManager::RegisterRemoteHorizon(Epoch epoch, Epoch horizon) {
  MutexLock lock(mutex_);
  if (After(lse_, horizon)) {
    // This node's purge may already have destroyed history below its LSE;
    // accepting the registration would protect nothing. Redraw instead.
    metrics_.begin_rejects->Add();
    return false;
  }
  const auto [it, inserted] = remote_horizons_.emplace(epoch, horizon);
  if (inserted) active_horizons_.insert(horizon);
  return true;
}

bool TxnManager::RegisterRemoteBegin(Epoch epoch, EpochSet* pending) {
  MutexLock lock(mutex_);
  if (AtOrBefore(epoch, lce_)) {
    // The LCE walk skips unallocated epoch gaps, so it may already have
    // passed an epoch whose begin broadcast was still in flight.
    // Accepting (or silently dropping) the registration now would let
    // snapshots pinned at this LCE see the transaction's later writes;
    // refuse instead and make the coordinator redraw.
    metrics_.begin_rejects->Add();
    return false;
  }
  const auto [it, inserted] = tracked_.emplace(epoch, TrackedTxn{});
  if (inserted) ++num_pending_;
  for (const auto& [e, info] : tracked_) {
    if (info.state == TxnState::kPending && !SameEpoch(e, epoch)) {
      pending->Insert(e);
    }
  }
  PublishGaugesLocked();
  return true;
}

void TxnManager::NoteRemoteFinish(Epoch epoch, bool committed) {
  MutexLock lock(mutex_);
  // Release the phase-2 horizon pin unconditionally, before any early
  // return below: a leaked pin would clamp this node's LSE forever.
  auto rh = remote_horizons_.find(epoch);
  if (rh != remote_horizons_.end()) {
    auto pin = active_horizons_.find(rh->second);
    if (pin != active_horizons_.end()) active_horizons_.erase(pin);
    remote_horizons_.erase(rh);
  }
  // Stale message: LCE already walked past this epoch, so it is finished.
  // Re-inserting it would let the walk move LCE backward.
  if (AtOrBefore(epoch, lce_)) return;
  auto [it, inserted] = tracked_.emplace(epoch, TrackedTxn{});
  if (!inserted && it->second.state != TxnState::kPending) return;
  it->second.state = committed ? TxnState::kCommitted : TxnState::kAborted;
  // A newly inserted entry was never counted pending, so only an existing
  // pending entry decrements the depth gauge.
  if (!inserted) --num_pending_;
  AdvanceLceLocked();
  PublishGaugesLocked();
}

void TxnManager::NoteRemoteDeps(Epoch epoch, const EpochSet& deps) {
  MutexLock lock(mutex_);
  auto it = tracked_.find(epoch);
  if (it == tracked_.end()) return;
  it->second.blocking_deps.UnionWith(deps);
  AdvanceLceLocked();
  PublishGaugesLocked();
}

Epoch TxnManager::LCE() const {
  MutexLock lock(mutex_);
  return lce_;
}

Epoch TxnManager::LSE() const {
  MutexLock lock(mutex_);
  return lse_;
}

EpochSet TxnManager::PendingTxs() const {
  MutexLock lock(mutex_);
  EpochSet pending;
  for (const auto& [e, info] : tracked_) {
    if (info.state == TxnState::kPending) pending.Insert(e);
  }
  return pending;
}

Epoch TxnManager::MinActiveHorizon() const {
  MutexLock lock(mutex_);
  return active_horizons_.empty() ? ~static_cast<Epoch>(0)
                                  : *active_horizons_.begin();
}

size_t TxnManager::NumTracked() const {
  MutexLock lock(mutex_);
  return tracked_.size();
}

Epoch TxnManager::TryAdvanceLSE(Epoch candidate) {
  Epoch result;
  {
    MutexLock lock(mutex_);
    Epoch effective = MinEpoch(candidate, lce_);
    if (!active_horizons_.empty()) {
      effective = MinEpoch(effective, *active_horizons_.begin());
    }
    lse_ = MaxEpoch(lse_, effective);
    PublishGaugesLocked();
    result = lse_;
  }
  if (CheckerHook* hook = GetCheckerHook()) hook->OnLseAdvance(result);
  return result;
}

void TxnManager::RestoreAfterRecovery(Epoch lce, Epoch lse) {
  MutexLock lock(mutex_);
  CUBRICK_CHECK(tracked_.empty() && active_horizons_.empty());
  CUBRICK_CHECK(AtOrBefore(lse, lce));
  lce_ = lce;
  lse_ = lse;
  clock_.Observe(lce + 1);
  PublishGaugesLocked();
}

bool TxnManager::DepsFinishedLocked(const EpochSet& deps) const {
  for (Epoch d : deps) {
    if (AtOrBefore(d, lce_)) continue;
    auto it = tracked_.find(d);
    if (it == tracked_.end()) {
      // Finished and already walked past (e.g. aborted below the walk
      // front), or a transaction this node never learned about. The begin
      // broadcast makes the latter impossible in a healthy cluster; treat
      // absence as finished only when it is below the walk front.
      if (tracked_.empty() || HappensBefore(d, tracked_.begin()->first)) {
        continue;
      }
      return false;
    }
    if (it->second.state == TxnState::kPending) return false;
  }
  return true;
}

void TxnManager::AdvanceLceLocked() {
  // Walk transactions in epoch order; LCE may advance through finished ones
  // (taking the value of committed epochs) and stops at the first pending or
  // dep-blocked transaction.
  auto it = tracked_.begin();
  while (it != tracked_.end()) {
    const TrackedTxn& info = it->second;
    if (info.state == TxnState::kPending) break;
    if (!info.blocking_deps.empty() &&
        !DepsFinishedLocked(info.blocking_deps)) {
      break;
    }
    if (info.state == TxnState::kCommitted) {
      lce_ = it->first;
    }
    it = tracked_.erase(it);
  }
}

}  // namespace cubrick::aosi
