// Brick: one materialized partition of a cube (paper §V-A).
//
// A brick stores the records falling into one range per dimension. Data is
// column-wise, unordered and append-only: dimension offsets live in a single
// bit-packed bess vector, metrics in one vector per column. A load reaches
// a brick as one partition of the load's EncodedBatch, a contiguous row
// range. Attached to each brick is its AOSI epochs vector, tracking which
// transaction appended which record range and any partition-delete
// markers.
//
// Thread-compatibility: a brick is owned by exactly one shard thread
// (paper §V-B); all mutations and scans are applied by that thread, so no
// internal locking exists.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "aosi/epoch_vector.h"
#include "aosi/purge.h"
#include "aosi/vis_cache.h"
#include "common/status.h"
#include "storage/metric_column.h"
#include "storage/bess_column.h"
#include "storage/schema.h"

namespace cubrick {

/// One load's encoded records, column-major: dimension offsets-within-range
/// plus metric values, one vector per column for the whole load. The rows
/// are partitioned by brick: partition p holds brick `bids[p]`'s rows
/// [starts[p], starts[p + 1]), in record order, so every brick's rows are
/// one contiguous range. The parser emits bids in ascending order, each
/// once; a batch is shared read-only by every shard and node that applies
/// part of it.
struct EncodedBatch {
  uint64_t num_rows = 0;
  /// [dimension][row] — offset within the brick's range.
  std::vector<std::vector<uint64_t>> dim_offsets;
  /// [metric][row] — used for kInt64 and dictionary-encoded kString metrics.
  std::vector<std::vector<int64_t>> metric_ints;
  /// [metric][row] — used for kDouble metrics.
  std::vector<std::vector<double>> metric_doubles;
  /// [partition] — the brick the partition's rows belong to.
  std::vector<Bid> bids;
  /// [partition + 1] — row bounds; starts[0] == 0, back() == num_rows.
  std::vector<uint64_t> starts{0};

  explicit EncodedBatch(const CubeSchema& schema)
      : dim_offsets(schema.num_dimensions()),
        metric_ints(schema.num_metrics()),
        metric_doubles(schema.num_metrics()) {}

  size_t num_partitions() const { return bids.size(); }

  /// Ends the current partition at num_rows as brick `bid`'s rows: fill the
  /// columns with one brick's rows, then close it (recovery, catch-up).
  void ClosePartition(Bid bid) {
    bids.push_back(bid);
    starts.push_back(num_rows);
  }

  /// InvalidArgument unless the batch is well formed for `schema`: every
  /// column holds num_rows entries, partitions are non-empty with strictly
  /// ascending valid bids, and every dimension offset lies inside its
  /// brick's range (below range_size, coordinate below cardinality).
  /// Recovery runs this on every run it reads before the run reaches a
  /// shard.
  Status Validate(const CubeSchema& schema) const;
};

class Brick {
 public:
  Brick(std::shared_ptr<const CubeSchema> schema, Bid bid);

  Bid bid() const { return bid_; }
  const CubeSchema& schema() const { return *schema_; }

  /// Appends partition `p` of `batch` — this brick's rows — stamped with
  /// `epoch`, one row at a time, so the footprint does not depend on how
  /// rows were batched. Batch columns must be rectangular.
  void AppendBatch(aosi::Epoch epoch, const EncodedBatch& batch, size_t p);

  /// Marks the whole brick deleted as of `epoch` (§III-C2). Data stays until
  /// purge physically removes it.
  void MarkDeleted(aosi::Epoch epoch);

  uint64_t num_records() const { return history_.num_records(); }

  /// Global encoded coordinate of dimension `dim` for `row` (range base +
  /// stored offset).
  uint64_t DimCoord(uint64_t row, size_t dim) const {
    return range_base_[dim] + bess_.Get(row, dim);
  }

  /// Bulk DimCoord: decodes `count` consecutive coordinates of `dim`
  /// starting at `row_begin` into `out` (BessColumn::DecodeDim plus the
  /// range base). The executor's SIMD filter path decodes one visibility
  /// word (64 rows) at a time through this.
  void DecodeDimCoords(uint64_t row_begin, uint64_t count, size_t dim,
                       uint64_t* out) const {
    bess_.DecodeDim(row_begin, count, dim, out);
    const uint64_t base = range_base_[dim];
    for (uint64_t i = 0; i < count; ++i) out[i] += base;
  }

  const MetricColumn& metric(size_t m) const { return metrics_[m]; }
  const BessColumn& bess() const { return bess_; }
  const aosi::EpochVector& history() const { return history_; }

  /// The brick's visibility-bitmap cache. Mutable scan-side state: scans
  /// take const bricks, publishing a memoized bitmap does not change what
  /// any reader observes. Like the rest of the brick it is state of the
  /// owning shard, touched only inside that shard's ops; every mutator
  /// above clears it (see vis_cache.h).
  aosi::VisibilityCache& vis_cache() const { return vis_cache_; }

  /// Applies a purge/rollback compaction plan: rebuilds every column keeping
  /// only plan.keep rows and installs plan.new_history. The rebuild happens
  /// into fresh vectors which then replace the old ones, mirroring the
  /// paper's new-partition-then-atomic-swap scheme.
  void ApplyCompaction(const aosi::CompactionPlan& plan);

  // --- Compaction in steps (Table::Purge) ---------------------------------
  //
  // Purge splits ApplyCompaction so the expensive keep-bitmap row filtering
  // runs off the shard, against copies of the columns. The copy is taken in
  // the same shard op as the plan, so it always matches it; the install is
  // a later op, and checks that the history has not moved since.

  /// Copies the raw columns out (a shard op, beside PlanPurge).
  void SnapshotColumnsForCompaction(std::optional<BessColumn>* bess,
                                    std::vector<MetricColumn>* metrics) const;

  /// Installs off-shard-rebuilt columns and the plan's history iff the
  /// history is still at `expected_version`, the version the plan was made
  /// at. Returns false, changing nothing, when a mutation since then
  /// invalidated the plan. O(history entries), not O(rows).
  bool InstallCompaction(uint64_t expected_version,
                         const aosi::CompactionPlan& plan,
                         BessColumn new_bess,
                         std::vector<MetricColumn> new_metrics);

  /// Data bytes (bess + metrics). Excludes the epochs vector.
  size_t DataMemoryUsage() const;

  /// Bytes held by the AOSI epochs vector — the protocol's overhead.
  size_t HistoryMemoryUsage() const { return history_.MemoryUsage(); }

 private:
  std::shared_ptr<const CubeSchema> schema_;
  Bid bid_;
  /// Per-dimension first encoded coordinate of this brick's range.
  std::vector<uint64_t> range_base_;
  BessColumn bess_;
  std::vector<MetricColumn> metrics_;
  aosi::EpochVector history_;
  mutable aosi::VisibilityCache vis_cache_;
};

}  // namespace cubrick
