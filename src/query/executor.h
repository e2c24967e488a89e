// Brick scan executor (paper §III-C3, §VI-B).
//
// Scans carry a per-brick bitmap: one bit per row saying whether the row is
// visible to the reading transaction. Under Snapshot Isolation the bitmap is
// generated from the brick's epochs vector; under Read Uncommitted all rows
// pass. Filter evaluation clears more bits; rows cleared by concurrency
// control are never reintroduced.

#pragma once

#include <utility>
#include <vector>

#include "aosi/epoch.h"
#include "common/bitmap.h"
#include "query/query.h"
#include "storage/brick.h"

namespace cubrick::obs {
class MetricsRegistry;
}  // namespace cubrick::obs

namespace cubrick {

class ThreadPool;

/// True when the brick's dimension ranges can contain a matching record —
/// the granular-partitioning prune that skips bricks without touching rows.
bool BrickIntersectsFilters(const Brick& brick, const Query& query);

/// True when the brick's ranges are entirely inside every filter (a
/// partition-granular delete predicate fully covers it).
bool BrickCoveredByFilters(const Brick& brick, const Query& query);

/// A visibility bitmap for one brick scan: either borrowed from the brick's
/// cache (valid until the brick's next mutation, i.e. for the whole scan op
/// — see vis_cache.h) or owned because the cache missed and declined to
/// store. Scan code treats both uniformly and read-only.
class VisibilityRef {
 public:
  explicit VisibilityRef(const Bitmap* borrowed) : ptr_(borrowed) {}
  explicit VisibilityRef(Bitmap owned)
      : owned_(std::move(owned)), ptr_(&owned_) {}

  VisibilityRef(VisibilityRef&& other) noexcept
      : owned_(std::move(other.owned_)),
        ptr_(other.ptr_ == &other.owned_ ? &owned_ : other.ptr_) {}
  VisibilityRef(const VisibilityRef&) = delete;
  VisibilityRef& operator=(const VisibilityRef&) = delete;
  VisibilityRef& operator=(VisibilityRef&&) = delete;

  const Bitmap& bitmap() const { return *ptr_; }

 private:
  Bitmap owned_;
  const Bitmap* ptr_;
};

/// The single entry point for scan visibility (executor + materialize): the
/// mode-appropriate bitmap for `brick` under `snapshot`, served from the
/// brick's VisibilityCache when `use_cache` (publishing on miss), built
/// fresh otherwise. Records query.vis_cache_* instruments.
VisibilityRef VisibilityForScan(const Brick& brick,
                                const aosi::Snapshot& snapshot, ScanMode mode,
                                bool use_cache);

/// Scans one brick and accumulates into `result` (which must have been
/// constructed with query.aggs.size()). `query` must pass ValidateQuery
/// against the brick's schema. Both folds accumulate the brick into local
/// states and merge each group into `result` once: ungrouped queries
/// through the per-word SIMD fold kernels, grouped ones through brick-local
/// slots keyed by the rows' group-by offsets (a flat array indexed by the
/// packed offsets when they fit in 6 bits, a hash table for wider keys),
/// each group folding its rows in row order. `use_cache` enables the
/// brick's visibility-bitmap cache (results are identical either way).
void ScanBrick(const Brick& brick, const aosi::Snapshot& snapshot,
               ScanMode mode, const Query& query, QueryResult* result,
               bool use_cache = true);

// --- Morsel-parallel scan pipeline (plan -> scan -> merge) -----------------
//
// Bricks are the natural morsel unit (granular partitioning already sizes
// them, cf. morsel-driven parallelism, Leis et al. SIGMOD 2014). The three
// steps below are what Table::Scan composes at every parallelism setting
// (serial is one worker); each is independently testable. No shared
// mutable state exists inside the row loops: every worker scans into its
// own partial QueryResult (one merge per group per brick), and only the
// final merge combines the workers' group-by maps.

/// Plan step: the subset of `candidates` that needs row work, in input
/// order. Bricks pruned here (empty, or ranges disjoint from the filters)
/// are tallied into query.bricks_pruned exactly as ScanBrick's own prune.
std::vector<const Brick*> PlanMorsels(
    const std::vector<const Brick*>& candidates, const Query& query);

/// Scan step: fans `morsels` out over `pool` with up to `parallelism`
/// concurrent workers — the calling thread always participates, so
/// `parallelism - 1` pool tasks are spawned — and returns one partial
/// result per worker. Workers claim morsels from a shared atomic ticket,
/// so skew (one dense brick) cannot idle the rest of the crew. With
/// `parallelism <= 1` or a null pool this degenerates to a serial loop on
/// the calling thread.
std::vector<QueryResult> ScanMorsels(const std::vector<const Brick*>& morsels,
                                     const aosi::Snapshot& snapshot,
                                     ScanMode mode, const Query& query,
                                     ThreadPool* pool, size_t parallelism,
                                     bool use_cache = true);

/// Merge step: folds the worker partials into one result, recording the
/// fold's duration into query.parallel_merge_us. A lone partial (a serial
/// scan) is moved out as is, with nothing recorded.
QueryResult MergePartials(std::vector<QueryResult> partials, size_t num_aggs);

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
