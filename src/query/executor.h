// Brick scan executor (paper §III-C3, §VI-B).
//
// Scans carry a per-brick bitmap: one bit per row saying whether the row is
// visible to the reading transaction. Under Snapshot Isolation the bitmap is
// generated from the brick's epochs vector; under Read Uncommitted all rows
// pass. Filter evaluation clears more bits; rows cleared by concurrency
// control are never reintroduced.

#pragma once

#include <vector>

#include "aosi/epoch.h"
#include "common/bitmap.h"
#include "query/group_table.h"
#include "query/query.h"
#include "storage/brick.h"

namespace cubrick::obs {
class MetricsRegistry;
}  // namespace cubrick::obs

namespace cubrick {

/// True when the brick's dimension ranges can contain a matching record —
/// the granular-partitioning prune that skips bricks without touching rows.
bool BrickIntersectsFilters(const Brick& brick, const Query& query);

/// True when the brick's ranges are entirely inside every filter (a
/// partition-granular delete predicate fully covers it).
bool BrickCoveredByFilters(const Brick& brick, const Query& query);

/// The single entry point for scan visibility outside the executor's scan
/// loop (Materialize, tests): the mode-appropriate bitmap for `brick` under
/// `snapshot`. RU scans, and SI scans whose snapshot sees the whole brick
/// (aosi::SeesWhole), get an all-ones mask, counted in
/// query.vis_whole_bricks; any other SI scan gets
/// aosi::BuildVisibilityBitmap's, built for this call (§III-C3).
Bitmap VisibilityForScan(const Brick& brick, const aosi::Snapshot& snapshot,
                         ScanMode mode);

/// Scans one brick and accumulates into `result` (which must have been
/// constructed with query.aggs.size()). `query` must pass ValidateQuery
/// against the brick's schema. Both folds accumulate the brick into local
/// states and merge each group once: ungrouped queries through the
/// per-word SIMD fold kernels, grouped ones through struct-of-arrays states
/// indexed by a brick-local group ordinal (the packed group-by offsets when
/// they fit in 6 bits, a first-seen ordinal for wider keys), each group
/// folding its rows in row order. Adds its query.* instruments to the
/// registry on return.
void ScanBrick(const Brick& brick, const aosi::Snapshot& snapshot,
               ScanMode mode, const Query& query, QueryResult* result);

/// The scan of one shard op of Table::Scan: scans `candidates` with up to
/// `workers` workers and returns their groups in one GroupTable keyed by
/// group-by coordinates (the ungrouped result under the empty key). Bricks
/// without rows or with ranges disjoint from the filters are pruned first,
/// each counted once in query.bricks_pruned. One worker (also whenever at
/// most one brick is left) scans the rest in order on the calling thread.
/// More workers are the calling thread plus `workers` - 1 tasks on
/// ThreadPool::Global(), claiming bricks from a shared ticket (bricks are
/// the morsels of morsel-driven parallelism, Leis et al., SIGMOD 2014),
/// each merging its bricks' groups into a table of its own; the tables
/// then merge in worker order. query.worker_scan_us times each worker and
/// query.parallel_merge_us that merge. Each worker tallies the per-brick
/// instruments in a context of its own, which also holds the fold's
/// buffers, and adds the tally to the registry once, when it is done, so a
/// brick scan writes no shared instrument.
GroupTable ScanBricks(const std::vector<const Brick*>& candidates,
                      const aosi::Snapshot& snapshot, ScanMode mode,
                      const Query& query, size_t workers);

/// EXPLAIN-style account of how granular partitioning served a query.
struct ScanPlanStats {
  uint64_t bricks_total = 0;
  /// Bricks skipped because their ranges cannot intersect the filters —
  /// the indexed-access benefit of granular partitioning (§V-A).
  uint64_t bricks_pruned = 0;
  uint64_t bricks_scanned = 0;
  /// Filters that fully cover a brick's range are never evaluated per row.
  uint64_t filters_skipped_covered = 0;
  uint64_t rows_considered = 0;

  /// Adds this plan's tallies to the registry's "query.explain.*" counters
  /// (docs/OBSERVABILITY.md). Called by Table::ExplainScan.
  void PublishTo(obs::MetricsRegistry& reg) const;
};

/// Dry-runs the brick-level planning of `query` over one brick.
void ExplainBrick(const Brick& brick, const Query& query,
                  ScanPlanStats* stats);

}  // namespace cubrick
