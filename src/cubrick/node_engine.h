// NodeEngine: one AOSI node (paper §III), shared by both public facades.
//
// Owns the node's TxnManager (EC/LCE/LSE, pendingTxs) and the local storage
// of every cube — a sharded Table plus, when a data_dir is configured, the
// cube's FlushManager — and implements each per-node operation once: cube
// lifecycle; parse (a load becomes one batch partitioned by brick), append
// (a view of such a batch), delete and scan under the engine's parallelism
// knobs; data rollback of an epoch (§III-C5); purge at LSE
// (§III-C4); checkpoint flush rounds and local recovery (§III-D).
//
// cubrick::Database is the single-node facade over one NodeEngine;
// cluster::ClusterNode puts one NodeEngine behind the simulated bus (§IV).

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "aosi/txn_manager.h"
#include "common/mutex.h"
#include "engine/table.h"
#include "ingest/parser.h"
#include "persist/flush_manager.h"
#include "query/query.h"

namespace cubrick {

/// Configuration of one node's engine. DatabaseOptions and
/// cluster::ClusterOptions extend it with their facade-only fields.
struct EngineOptions {
  size_t shards_per_cube = 1;
  /// Dedicated shard threads; inline execution when false.
  bool threaded_shards = false;
  /// Directory for flush segments; empty disables persistence. A Cluster
  /// gives node i the subdirectory <data_dir>/node<i>.
  std::string data_dir;
  /// Enables the §III-C5 txn->partition rollback index (memory for speed).
  bool rollback_index = false;
  /// Morsel-parallel query execution: scan workers per request, split over
  /// the cube's shard ops (op s of S gets P / S, plus one when s < P % S,
  /// and at least its own thread; bricks fanned out on
  /// ThreadPool::Global(); see Table::Scan). Any value up to
  /// shards_per_cube, the default 1 included, scans each shard on its own
  /// thread alone.
  size_t query_parallelism = 1;
  /// Morsel-parallel ingestion (DESIGN.md §4f): maximum parse/encode
  /// workers per load request (record morsels fanned out on
  /// ThreadPool::Global(), each encoding into its own rows of the load's
  /// batch; see ParseRecords). Only loads of at least 2 * kMinMorselRecords
  /// (1,024) records fan out, in morsels of at least kMinMorselRecords;
  /// smaller loads parse on the caller at any setting. Output is
  /// bit-identical to the serial walk at any setting; 1 (the default)
  /// parses every load on the caller.
  size_t ingest_parallelism = 1;
};

class NodeEngine {
 public:
  /// `node_idx` of `num_nodes` strides the epoch clock (§IV-A); a
  /// single-node engine is node 1 of 1.
  explicit NodeEngine(EngineOptions options, uint32_t node_idx = 1,
                      uint32_t num_nodes = 1);

  NodeEngine(const NodeEngine&) = delete;
  NodeEngine& operator=(const NodeEngine&) = delete;

  aosi::TxnManager& txns() { return txns_; }

  // --- Cube lifecycle ----------------------------------------------------

  Status CreateCube(std::shared_ptr<const CubeSchema> schema);
  Status DropCube(const std::string& name);
  /// Local table for `name`, or nullptr.
  Table* FindTable(const std::string& name) const;
  /// Like FindTable, but NotFound for an unknown cube.
  Result<Table*> GetTable(const std::string& name) const;
  std::vector<std::string> CubeNames() const;

  // --- Data operations -----------------------------------------------------

  /// Validates and encodes `records` for `cube` with ingest_parallelism
  /// parse workers (see ParseRecords).
  Result<ParseOutput> Parse(const std::string& cube,
                            const std::vector<Record>& records,
                            const ParseOptions& options = {});
  /// Appends the view's partitions of a parsed batch stamped with `epoch`:
  /// a whole parsed batch (moved in) on a Database load, or the partitions
  /// this node owns of the coordinator's shared batch in a cluster.
  Status Append(aosi::Epoch epoch, const std::string& cube, BatchView view);
  /// Partition-granular delete (validate + mark).
  Status DeleteWhere(aosi::Epoch epoch, const std::string& cube,
                     const std::vector<FilterClause>& filters);
  /// Snapshot scan with query_parallelism workers per request, split over
  /// the shards as Table::Scan says (P / S each, plus one for the first
  /// P % S, at least one), each brick taking the all-ones mask when the
  /// snapshot sees it whole and a bitmap built for the scan otherwise
  /// (DESIGN.md §4c). `brick_filter` (optional) selects which local
  /// bricks to answer for. A query that fails ValidateQuery returns
  /// InvalidArgument without scanning.
  Result<QueryResult> Scan(const std::string& cube,
                           const aosi::Snapshot& snapshot, ScanMode mode,
                           const Query& query,
                           const std::function<bool(Bid)>& brick_filter =
                               nullptr);

  // --- Maintenance ---------------------------------------------------------

  /// Physically removes every append/delete of `victim` from local cubes.
  void RollbackData(aosi::Epoch victim);

  /// Runs the purge procedure on every local cube at this node's LSE.
  PurgeStats Purge();

  /// Flushes every cube's data up to `to` (from each cube's last flushed
  /// point) and returns OK when all segments are durable. Requires a
  /// data_dir.
  Status Checkpoint(aosi::Epoch to);

  /// Replays local flush segments into the (freshly created) cubes, then
  /// truncates every cube to the minimum recovered LSE so a checkpoint
  /// that crashed between cubes cannot surface a half-flushed transaction.
  /// Returns that LSE (kNoEpoch when nothing was recovered). Does not touch
  /// the epoch counters. Requires a data_dir.
  Result<aosi::Epoch> RecoverLocal();

  /// The highest epoch durably flushed for every local cube — LSE may not
  /// pass it (§III-B condition (c)). Unbounded when persistence is
  /// disabled (a diskless deployment relies on replication alone).
  aosi::Epoch MinFlushedLse();

  // --- Statistics (each drains the shard queues) --------------------------

  uint64_t TotalRecords();
  size_t DataMemoryUsage();
  size_t HistoryMemoryUsage();

 private:
  struct CubeState {
    std::unique_ptr<Table> table;
    std::unique_ptr<persist::FlushManager> flusher;
  };

  /// Per-cube engine pointers snapshotted under mutex_. Bulk operations
  /// (rollback, purge, checkpoint, recovery, statistics) iterate this
  /// snapshot with the lock released: table operations fan work out to
  /// shard queues that apply backpressure or drain, and holding mutex_
  /// across that wait would stall every registry lookup (including the
  /// cluster's RPC handlers) behind a busy queue. Pointer lifetime follows
  /// the FindTable() convention — DDL is serialized against data operations
  /// by the caller, mutex_ guards only the map itself.
  struct CubeRef {
    Table* table;
    persist::FlushManager* flusher;
  };
  std::vector<CubeRef> SnapshotCubes() const;

  const EngineOptions options_;
  aosi::TxnManager txns_;
  mutable Mutex mutex_;
  std::unordered_map<std::string, CubeState> cubes_ GUARDED_BY(mutex_);
};

}  // namespace cubrick
