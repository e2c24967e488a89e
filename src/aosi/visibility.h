// Snapshot-visibility bitmap construction (paper §III-C3).
//
// Prior to scan execution, a per-partition bitmap is generated for reading
// transaction T_i: a bit is set whenever its record was inserted by a
// transaction j with j <= i and j not in T_i.deps. When a delete marker by
// T_k is visible to T_i, a secondary cleanup pass clears every record of
// transactions smaller than k (wherever they physically sit — late arrivals
// from logically-older transactions are covered too) as well as k's own
// records up to the delete point. Records skipped by concurrency control may
// never be reintroduced by later filter stages.

#pragma once

#include "aosi/epoch.h"
#include "aosi/epoch_vector.h"
#include "common/bitmap.h"

namespace cubrick::aosi {

/// Builds the visibility bitmap (one bit per record, set = visible) of
/// `snapshot` over a partition's transactional history.
Bitmap BuildVisibilityBitmap(const EpochVector& history,
                             const Snapshot& snapshot);

/// The delete-cleanup rule, shared by visibility construction (above) and
/// purge planning (purge.cc) so the two can never drift apart: a delete
/// marker stamped `k` whose physical position is `delete_point` clears
/// (a) every append run of a transaction ordered before k — wherever the
/// run physically sits, covering late arrivals from logically-older
/// transactions — and (b) k's own records strictly before the delete point
/// (runs are half-open [begin, end), so a run with begin == delete_point is
/// untouched). `bitmap` must have one bit per record of the history that
/// decoded into `runs`; delete markers in `runs` are ignored.
void ApplyDeleteCleanup(const std::vector<EpochRun>& runs, Epoch k,
                        uint64_t delete_point, Bitmap* bitmap);

/// Read-uncommitted scan mask: every record visible, no concurrency-control
/// work. Used as the baseline in the paper's query-performance experiment
/// (§VI-B).
Bitmap BuildReadUncommittedBitmap(const EpochVector& history);

}  // namespace cubrick::aosi
