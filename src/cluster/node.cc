#include "cluster/node.h"

#include "obs/metrics.h"

namespace cubrick::cluster {

ClusterNode::ClusterNode(uint32_t node_idx, uint32_t num_nodes,
                         EngineOptions options)
    : NodeEngine(std::move(options), node_idx, num_nodes),
      node_idx_(node_idx) {}

ClusterNode::BeginBroadcastResult ClusterNode::HandleBeginBroadcast(
    aosi::Epoch epoch) {
  // Registration and the pendingTxs snapshot must be one atomic step: done
  // as two calls, the local LCE could walk past `epoch` between them.
  BeginBroadcastResult result;
  result.accepted = txns().RegisterRemoteBegin(epoch, &result.pending);
  return result;
}

bool ClusterNode::HandleRegisterHorizon(aosi::Epoch epoch,
                                        aosi::Epoch horizon) {
  return txns().RegisterRemoteHorizon(epoch, horizon);
}

Status ClusterNode::HandleAppend(aosi::Epoch epoch, const std::string& cube,
                                 BatchView view) {
  return Append(epoch, cube, std::move(view));
}

Status ClusterNode::HandleDeleteCheck(
    const std::string& cube, const std::vector<FilterClause>& filters) {
  auto table = GetTable(cube);
  if (!table.ok()) return table.status();
  return (*table)->CheckDeleteGranularity(filters);
}

Status ClusterNode::HandleDeleteMark(aosi::Epoch epoch,
                                     const std::string& cube,
                                     const std::vector<FilterClause>& filters) {
  auto table = GetTable(cube);
  if (!table.ok()) return table.status();
  (*table)->MarkDeleted(epoch, filters);
  return Status::OK();
}

Status ClusterNode::HandleFinish(aosi::Epoch epoch,
                                 const aosi::EpochSet& deps, bool committed) {
  // How far this node's clock has run past the finishing transaction when
  // its finish message arrives — large values mean slow commit propagation
  // (e.g. high simulated latency or redelivery catch-up after an outage).
  static obs::Gauge* finish_lag =
      obs::MetricsRegistry::Global().GetGauge("cluster.remote_finish_lag");
  finish_lag->Set(static_cast<int64_t>(txns().EC()) -
                  static_cast<int64_t>(epoch));
  txns().NoteRemoteDeps(epoch, deps);
  txns().NoteRemoteFinish(epoch, committed);
  return Status::OK();
}

Result<QueryResult> ClusterNode::HandleScan(
    const std::string& cube, const aosi::Snapshot& snapshot, ScanMode mode,
    const Query& query, const std::function<bool(Bid)>& brick_filter) {
  return Scan(cube, snapshot, mode, query, brick_filter);
}

}  // namespace cubrick::cluster
