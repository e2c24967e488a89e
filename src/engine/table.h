// Table: the per-node storage engine of one cube.
//
// Owns the cube's shards (bricks hashed by bid across shards, paper §V-B)
// and exposes the low-level AOSI operations — append, partition delete,
// snapshot scan, purge, rollback — and the table statistics, each
// dispatched onto shard queues and applied by single-writer shard threads.
// No Table method reads a shard's BrickMap from its own thread.

#pragma once

#include <atomic>
#include <future>
#include <optional>
#include <memory>
#include <vector>

#include "aosi/epoch.h"
#include "engine/rollback_index.h"
#include "engine/shard.h"
#include "query/executor.h"
#include "query/materialize.h"
#include "query/query.h"
#include "storage/brick.h"
#include "storage/schema.h"

namespace cubrick::obs {
class MetricsRegistry;
}  // namespace cubrick::obs

namespace cubrick {

/// What one receiver applies of a load: the load's shared, immutable batch
/// and the indexes of the partitions routed to it. A view made from a whole
/// batch covers every partition; the cluster coordinator hands each brick
/// owner a view of the one parsed batch instead of a copy of its rows.
struct BatchView {
  /*implicit*/ BatchView(EncodedBatch&& whole);
  BatchView(std::shared_ptr<const EncodedBatch> batch,
            std::vector<size_t> partitions)
      : batch(std::move(batch)), partitions(std::move(partitions)) {}

  std::shared_ptr<const EncodedBatch> batch;
  std::vector<size_t> partitions;
};

/// Statistics returned by Table::Purge.
struct PurgeStats {
  uint64_t bricks_examined = 0;
  uint64_t bricks_rewritten = 0;
  uint64_t bricks_erased = 0;
  uint64_t records_removed = 0;

  PurgeStats& operator+=(const PurgeStats& other) {
    bricks_examined += other.bricks_examined;
    bricks_rewritten += other.bricks_rewritten;
    bricks_erased += other.bricks_erased;
    records_removed += other.records_removed;
    return *this;
  }

  /// Adds this round's tallies to the registry's "aosi.purge.*" counters
  /// (docs/OBSERVABILITY.md). Called by Table::Purge on its merged total.
  void PublishTo(obs::MetricsRegistry& reg) const;
};

class Table {
 public:
  /// `threaded` selects dedicated shard threads (production mode) or inline
  /// execution (deterministic tests / single-thread benches).
  /// `rollback_index` enables the §III-C5 txn->partition map, making
  /// Rollback touch only the victim's bricks at a memory cost.
  Table(std::shared_ptr<const CubeSchema> schema, size_t num_shards,
        bool threaded, bool rollback_index = false);

  const CubeSchema& schema() const { return *schema_; }
  size_t num_shards() const { return shards_.size(); }

  size_t ShardOf(Bid bid) const { return bid % shards_.size(); }

  /// Appends the view's partitions stamped with `epoch`; returns once every
  /// shard has applied its part (the "flush" step of the ingestion
  /// pipeline). Each shard with work is staged one view of the shared batch
  /// — the batch plus that shard's partition indexes — so no row is copied
  /// before its brick appends it. Concurrent appends coalesce per shard:
  /// views staged while a shard's drain op is running are applied by that
  /// same op ("group appends", one shard op per burst instead of one per
  /// load), each keeping its own epoch stamp, so the single-writer
  /// invariant and the per-epoch EpochVector::RecordAppend ordering are
  /// exactly as if the loads had run back to back. An empty batch is a
  /// no-op.
  Status Append(aosi::Epoch epoch, BatchView view);

  /// Partition-granular delete: marks deleted every materialized brick
  /// fully covered by `filters` (empty filters = the whole cube). Fails
  /// with InvalidArgument — before marking anything — if a brick is only
  /// partially covered: AOSI does not support sub-partition deletes.
  Status DeleteWhere(aosi::Epoch epoch,
                     const std::vector<FilterClause>& filters);

  /// Phase 1 of DeleteWhere: checks `filters` against the schema
  /// (ValidateQuery), then verifies no materialized brick is only partially
  /// covered by them. Both facades' deletes pass through here.
  Status CheckDeleteGranularity(const std::vector<FilterClause>& filters);

  /// Phase 2 of DeleteWhere: marks covered bricks deleted. Must follow a
  /// successful granularity check.
  void MarkDeleted(aosi::Epoch epoch,
                   const std::vector<FilterClause>& filters);

  /// The shared schema handle (used by the cluster catalog).
  std::shared_ptr<const CubeSchema> schema_ptr() const { return schema_; }

  /// Scatter-gather scan of all shards under `snapshot`. `brick_filter`
  /// (optional) restricts the scan to bricks it accepts — the cluster layer
  /// uses it to scan only bricks this node primarily owns, so replicated
  /// bricks are not double-counted.
  ///
  /// `parallelism` is the whole request's worker budget, split over its
  /// shard ops: op s of S gets P / S workers, plus one when s < P % S, and
  /// never fewer than one (its own thread). Each shard op hands its bricks
  /// to ScanBricks with its share, which scans them on the shard's thread
  /// plus, past the first worker, tasks on ThreadPool::Global(), and
  /// returns the op's groups in one GroupTable. The shard stays blocked in
  /// its own op for the whole fan-out, so the single-writer invariant
  /// holds: nothing can mutate its bricks while pool workers read them.
  /// Any P <= S (the default 1 included) is one worker per shard op, the
  /// shard's thread alone in BrickMap order, so a scan submits pool tasks
  /// only when P > S. Scan then merges the ops' tables in shard order and
  /// builds the QueryResult once, timed by query.result_merge_us; every
  /// group merges in the order bricks, workers, shard ops, so the result is
  /// bit-identical to merging per-op results (DESIGN.md §4c).
  ///
  /// Each brick takes the all-ones mask when the snapshot sees it whole
  /// and a bitmap built for this scan otherwise (DESIGN.md §4c).
  // The trailing bool is ignored; bench/ledger/traced.cc passes it until
  // ROADMAP direction 1 deletes it.
  QueryResult Scan(const aosi::Snapshot& snapshot, ScanMode mode,
                   const Query& query,
                   const std::function<bool(Bid)>& brick_filter = nullptr,
                   size_t parallelism = 1, bool = true);

  /// EXPLAIN: reports how many bricks the filters prune without scanning —
  /// the indexed-access property of granular partitioning.
  ScanPlanStats ExplainScan(const Query& query);

  /// Materializes up to options.limit visible rows matching the query's
  /// filters (row-wise, strings decoded). Shards are drained sequentially;
  /// row order follows physical order within each brick.
  std::vector<MaterializedRow> Materialize(
      const aosi::Snapshot& snapshot, ScanMode mode, const Query& query,
      const MaterializeOptions& options = {});

  /// Runs the purge procedure (§III-C4) over every brick at `lse` as short
  /// ops on each shard in turn: one op lists the bids of the bricks with
  /// work, one op per listed bid plans that brick's purge and applies it
  /// (rebuilding the columns only when a row goes), and a last op counts
  /// the surviving history and erases emptied bricks. No op keeps a brick
  /// for a later one. Scans interleave between the ops, and
  /// `aosi.purge.pause_us` times each op (DESIGN.md §4d).
  PurgeStats Purge(aosi::Epoch lse);

  /// Physically removes every append/delete made by `victim` (§III-C5),
  /// erasing the bricks that leaves with no records and no history.
  void Rollback(aosi::Epoch victim);

  /// Drops everything newer than `lse` (crash-recovery truncation).
  void TruncateAfter(aosi::Epoch lse);

  /// Waits until every op queued on any shard before the call has run.
  void Drain();

  /// Visits every brick on its shard's thread, one shard at a time in
  /// shard order (fn is never called concurrently). The flush, EXPLAIN and
  /// Materialize walks go through here.
  void VisitBricks(const std::function<void(const Brick&)>& fn);

  /// Applies `fn` to the brick `bid` on its owning shard, materializing it
  /// if absent. Used by recovery to replay delete markers.
  void ApplyToBrick(Bid bid, const std::function<void(Brick&)>& fn);

  // --- Statistics (shard ops: each shard counts after its queued work) ---
  uint64_t TotalRecords();
  uint64_t NumBricks();
  size_t DataMemoryUsage();
  /// Bytes held by all epochs vectors — the AOSI overhead of Figures 6/7.
  size_t HistoryMemoryUsage();

  /// Access to a shard for white-box tests.
  Shard& shard(size_t i) { return *shards_[i]; }

  /// The rollback index, or nullptr when disabled.
  const RollbackIndex* rollback_index() const {
    return rollback_index_ ? &*rollback_index_ : nullptr;
  }

 private:
  /// Completion latch shared by the staged views of one append request.
  struct PendingAppend {
    explicit PendingAppend(uint64_t n) : remaining(n) {}
    std::atomic<uint64_t> remaining;
    std::promise<void> done;
  };

  /// One request's work for one shard: its epoch, the shared batch, the
  /// partitions this shard owns, and the request's latch.
  struct StagedView {
    aosi::Epoch epoch;
    std::shared_ptr<const EncodedBatch> batch;
    std::vector<size_t> partitions;
    std::shared_ptr<PendingAppend> request;
  };

  /// Per-shard staging area for the group-append coalescer.
  struct AppendStage {
    Mutex mu;
    std::vector<StagedView> staged GUARDED_BY(mu);
    /// True while a drain op is queued or running on the shard; staging
    /// under an active op rides along instead of enqueuing another.
    bool drain_scheduled GUARDED_BY(mu) = false;
  };

  /// Body of the shard drain op: applies staged views until the stage is
  /// empty, so appends staged mid-drain coalesce into the running op.
  static void DrainAppendStage(AppendStage* stage, BrickMap& bricks);

  /// Runs `op(s, bricks)` as one op on every shard s at once and returns
  /// when all have run. Every table-wide operation but Append's coalescer,
  /// Purge's timed ops and the one-shard-at-a-time VisitBricks goes
  /// through here.
  void OnEveryShard(const std::function<void(size_t, BrickMap&)>& op);

  /// Sum over the shards of `count(bricks)`, each taken on its shard.
  uint64_t SumOverShards(
      const std::function<uint64_t(const BrickMap&)>& count);

  std::shared_ptr<const CubeSchema> schema_;
  /// Declared before shards_ so the stages outlive the shard threads that
  /// drain them (members destroy in reverse order).
  std::vector<std::unique_ptr<AppendStage>> append_stages_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::optional<RollbackIndex> rollback_index_;
};

}  // namespace cubrick
