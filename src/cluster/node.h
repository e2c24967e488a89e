// One simulated cluster node (paper §IV).
//
// The RPC adapter over one NodeEngine (cubrick/node_engine.h): the engine
// holds the node's TxnManager (EC/LCE/LSE, pendingTxs) and the local
// storage of every cube — the bricks consistent hashing assigned to it,
// plus replicas. ClusterNode adds only what the distributed protocol
// needs: simulated availability, the begin/horizon/finish handlers of
// §IV-C, and the Handle* surface the Cluster's message bus calls. The bus
// piggybacks epoch clocks on every request and response (§IV-A), so
// handlers assume ObserveClock has already been applied.

#pragma once

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "cubrick/node_engine.h"

namespace cubrick::cluster {

class ClusterNode : private NodeEngine {
 public:
  ClusterNode(uint32_t node_idx, uint32_t num_nodes, EngineOptions options);

  uint32_t node_idx() const { return node_idx_; }

  /// Simulated availability. RPCs to an offline node fail with Unavailable;
  /// the cluster layer uses this to exercise replication / LSE gating.
  bool online() const { return online_.load(std::memory_order_seq_cst); }
  void set_online(bool v) { online_.store(v, std::memory_order_seq_cst); }

  // --- Local engine (see NodeEngine) --------------------------------------

  using NodeEngine::Checkpoint;
  using NodeEngine::CreateCube;
  using NodeEngine::DataMemoryUsage;
  using NodeEngine::DropCube;
  using NodeEngine::FindTable;
  using NodeEngine::HistoryMemoryUsage;
  using NodeEngine::MinFlushedLse;
  using NodeEngine::Parse;
  using NodeEngine::Purge;
  using NodeEngine::RecoverLocal;
  using NodeEngine::RollbackData;
  using NodeEngine::TotalRecords;
  using NodeEngine::txns;

  // --- RPC surface ---------------------------------------------------------

  /// Outcome of a begin broadcast. `accepted == false` means this node's
  /// LCE had already walked past the proposed epoch (the registration was
  /// refused, `pending` is empty) and the coordinator must abort the draft
  /// epoch and redraw — see TxnManager::RegisterRemoteBegin.
  struct BeginBroadcastResult {
    bool accepted = false;
    aosi::EpochSet pending;
  };

  /// Begin broadcast (§IV-C): atomically registers a remote RW transaction
  /// and snapshots this node's pendingTxs set.
  BeginBroadcastResult HandleBeginBroadcast(aosi::Epoch epoch);

  /// Begin-protocol phase 2: pins the transaction's final (post-augment)
  /// purge horizon so this node's LSE cannot pass it while the transaction
  /// lives. Returns false when the local LSE already has — the coordinator
  /// must abort the draft and redraw (TxnManager::RegisterRemoteHorizon).
  bool HandleRegisterHorizon(aosi::Epoch epoch, aosi::Epoch horizon);

  /// Appends the partitions this node owns of a forwarded, already-parsed
  /// batch (a view of the coordinator's shared batch, not a copy).
  Status HandleAppend(aosi::Epoch epoch, const std::string& cube,
                      BatchView view);

  /// Phase-1 validation of a distributed delete predicate.
  Status HandleDeleteCheck(const std::string& cube,
                           const std::vector<FilterClause>& filters);

  /// Phase-2 marking; never fails on a healthy node.
  Status HandleDeleteMark(aosi::Epoch epoch, const std::string& cube,
                          const std::vector<FilterClause>& filters);

  /// Commit/abort broadcast carrying the transaction's deps (§IV-C).
  Status HandleFinish(aosi::Epoch epoch, const aosi::EpochSet& deps,
                      bool committed);

  /// Scan of locally-owned bricks. `brick_filter` selects which local
  /// bricks this node is responsible for answering.
  Result<QueryResult> HandleScan(const std::string& cube,
                                 const aosi::Snapshot& snapshot,
                                 ScanMode mode, const Query& query,
                                 const std::function<bool(Bid)>& brick_filter);

 private:
  const uint32_t node_idx_;
  std::atomic<bool> online_{true};
};

}  // namespace cubrick::cluster
