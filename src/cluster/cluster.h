// Simulated distributed Cubrick cluster (paper §IV, §V).
//
// N in-process ClusterNodes connected by a message bus that (a) optionally
// injects latency and (b) piggybacks the sender's Epoch Clock on every
// request and the receiver's on every response, implementing the Lamport
// synchronization of §IV-A without any dedicated clock traffic.
//
// The distributed transaction flow follows §IV-C:
//   * Begin (RW): a broadcast gathers every node's pendingTxs; the union
//     becomes the transaction's deps, and all epoch clocks advance past the
//     new epoch, guaranteeing no later transaction anywhere gets a smaller
//     timestamp.
//   * Commits are deterministic (no isolation conflicts are possible), so a
//     single one-way broadcast — no consensus round — finishes a
//     transaction on every node.
//   * Appends are parsed on the receiving node and forwarded to the brick
//     owners chosen by consistent hashing, with replication_factor copies.
//
// Substitution note (DESIGN.md §3): the paper runs on real multi-server
// clusters; this in-process bus exercises the identical protocol code paths
// (striding, piggybacked clocks, deps unioning, single-roundtrip commit)
// while staying runnable on one machine.

#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "cluster/hash_ring.h"
#include "common/mutex.h"
#include "cluster/node.h"
#include "engine/run_extract.h"
#include "common/stopwatch.h"
#include "ingest/parser.h"

namespace cubrick::obs {
class MetricsRegistry;
}  // namespace cubrick::obs

namespace cubrick::cluster {

/// Every node runs a NodeEngine with the EngineOptions fields, except that
/// data_dir is the root of the per-node flush directories (<dir>/node<i>/).
struct ClusterOptions : EngineOptions {
  uint32_t num_nodes = 3;
  /// Copies of each brick (1 = no replication).
  size_t replication_factor = 1;
  /// Simulated one-way message latency, microseconds (0 = none).
  uint32_t message_latency_us = 0;
};

/// A distributed transaction handle: the coordinator node plus the AOSI
/// transaction descriptor (epoch + cluster-wide deps).
struct DistTxn {
  uint32_t coordinator = 0;  // 1-based node index
  aosi::Txn txn;
};

/// Per-load-request latency breakdown (paper Fig 5).
struct LoadStats {
  int64_t parse_us = 0;
  /// Forward + flush: network round trips plus shard-apply time.
  int64_t flush_us = 0;
  int64_t total_us = 0;
  uint64_t accepted = 0;
  uint64_t rejected = 0;

  /// Publishes this load's breakdown into the registry's "cluster.load.*"
  /// instruments (docs/OBSERVABILITY.md). Called by Cluster::Append for
  /// every load, whether or not the caller asked for the stats.
  void PublishTo(obs::MetricsRegistry& reg) const;
};

class Cluster {
 public:
  explicit Cluster(ClusterOptions options);

  uint32_t num_nodes() const { return options_.num_nodes; }
  /// 1-based access, matching the paper's node numbering.
  ClusterNode& node(uint32_t idx) { return *nodes_[idx - 1]; }
  const HashRing& ring() const { return ring_; }

  // --- Cube lifecycle (broadcast to all nodes) ---------------------------

  Status CreateCube(const std::string& name,
                    std::vector<DimensionDef> dimensions,
                    std::vector<MetricDef> metrics);
  /// CREATE CUBE DDL, applied cluster-wide.
  Status ExecuteDdl(const std::string& ddl);
  Status DropCube(const std::string& name);
  std::shared_ptr<const CubeSchema> FindSchema(const std::string& name) const;

  // --- Transactions -------------------------------------------------------

  /// Starts a distributed RW transaction coordinated by `coordinator`.
  /// Fails with Unavailable when any node is offline (deps could be
  /// incomplete).
  Result<DistTxn> BeginReadWrite(uint32_t coordinator);

  /// Starts a RO transaction pinned to the coordinator's LCE.
  DistTxn BeginReadOnly(uint32_t coordinator);

  /// Commits with a single broadcast round (§IV-C). Offline nodes receive
  /// the message from the redelivery log when they come back.
  Status Commit(DistTxn* txn);

  /// Aborts: broadcast plus physical removal of the epoch's records on all
  /// reachable nodes.
  Status Rollback(DistTxn* txn);

  void EndReadOnly(DistTxn* txn);

  // --- Operations ----------------------------------------------------------

  /// Parses `records` on the coordinator into one batch and forwards each
  /// brick owner (+replicas) a view of it naming the partitions it owns.
  /// `stats`, when non-null, receives the Fig 5 breakdown.
  Status Append(DistTxn* txn, const std::string& cube,
                const std::vector<Record>& records,
                const ParseOptions& parse_options = {},
                LoadStats* stats = nullptr);

  /// Partition-granular delete, broadcast to every node.
  Status DeleteWhere(DistTxn* txn, const std::string& cube,
                     const std::vector<FilterClause>& filters);

  /// Scatter-gather scan in the context of an open transaction. Fails with
  /// Unavailable when replication_factor or more nodes are offline: some
  /// brick may then have no online owner to answer for it.
  Result<QueryResult> Query(DistTxn* txn, const std::string& cube,
                            const cubrick::Query& query,
                            ScanMode mode = ScanMode::kSnapshotIsolation);

  /// Implicit RO query: begin RO on `coordinator`, scan, end.
  Result<QueryResult> QueryOnce(uint32_t coordinator, const std::string& cube,
                                const cubrick::Query& query,
                                ScanMode mode = ScanMode::kSnapshotIsolation);

  // --- Maintenance ---------------------------------------------------------

  /// Advances LSE cluster-wide: candidate = min LCE over nodes, clamped per
  /// node by active snapshots. Refuses to advance while any node is offline
  /// or has undelivered replication traffic ("LSE needs to be prevented
  /// from advancing if data is not safely stored on all replicas or if any
  /// replica is offline"). Returns the cluster-wide (minimum) LSE.
  aosi::Epoch AdvanceClusterLSE();

  /// Runs purge on every node at its local LSE.
  PurgeStats PurgeAll();

  /// Takes a node offline / brings it back (redelivering missed traffic).
  /// A crashed node has lost its tables, so it comes back only through
  /// RecoverNode: bringing it online returns FailedPrecondition.
  Status SetNodeOnline(uint32_t idx, bool online);

  // --- Persistence & node recovery (§III-D) --------------------------------

  /// Flushes every node up to the cluster-safe epoch (min LCE) and advances
  /// all LSEs. Requires data_dir and full cluster health.
  Result<aosi::Epoch> CheckpointAll();

  /// Simulates a node crash: all of its in-memory state (tables, counters,
  /// queued redeliveries) is destroyed; its flush segments survive on disk.
  /// The node is left offline and crashed until RecoverNode succeeds.
  Status CrashNode(uint32_t idx);

  /// Recovers a crashed node: local flush segments first, then everything
  /// after its recovered LSE is re-fetched from replica peers ("data from
  /// LSE onwards can be retrieved from the replica nodes"). Requires the
  /// rest of the cluster to be online and quiescent (no open RW txns).
  /// Leaves the node online. Returns FailedPrecondition for a node that did
  /// not crash: its tables are intact, and replaying on top of them would
  /// duplicate rows (an offline node comes back through SetNodeOnline).
  Status RecoverNode(uint32_t idx);

  /// Total records across nodes (replicas counted per copy).
  uint64_t TotalRecords();

 private:
  /// Simulated wire delay, applied per one-way message.
  void Latency() const;

  /// Clock piggybacking around an RPC from `from` to `to`.
  void CarryClocksForward(uint32_t from, uint32_t to);
  void CarryClocksBack(uint32_t from, uint32_t to);

  /// Delivers an operation to a node, or logs it for redelivery when the
  /// node is offline (replication catch-up).
  void DeliverOrQueue(uint32_t from, uint32_t to,
                      std::function<Status(ClusterNode&)> op);

  /// The first online owner of a brick among its replica set — the node
  /// responsible for answering scans over it.
  uint32_t PreferredOwner(Bid bid) const;

  /// A fresh node `idx` (construction and crash replacement).
  std::unique_ptr<ClusterNode> MakeNode(uint32_t idx) const;

  ClusterOptions options_;
  std::vector<std::unique_ptr<ClusterNode>> nodes_;
  HashRing ring_;
  /// Cube catalog, used to rebuild crashed nodes.
  std::map<std::string, std::shared_ptr<const CubeSchema>> catalog_;

  mutable Mutex redelivery_mutex_;
  /// Per-node FIFO of operations missed while offline.
  std::vector<std::vector<std::function<Status(ClusterNode&)>>> missed_ops_
      GUARDED_BY(redelivery_mutex_);
  /// Per node: CrashNode destroyed it and RecoverNode has not rebuilt it.
  std::vector<bool> crashed_;
};

}  // namespace cubrick::cluster
