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
//
// AOSI keeps this metadata per append run, not per record, so the cost of a
// bitmap is a walk over the runs. A snapshot that sees every run of a
// partition and no delete marker needs no walk at all (SeesWhole): its
// bitmap is all ones.

#pragma once

#include "aosi/epoch.h"
#include "aosi/epoch_vector.h"
#include "common/bitmap.h"

namespace cubrick::aosi {

/// True when `snapshot` sees every record of `history`, so its visibility
/// bitmap is all ones: the history holds no delete marker, its newest stamp
/// is at or before the snapshot epoch, and no dep is at or before that
/// stamp. O(1): the marker count and the newest stamp are kept by the
/// history, and deps are sorted.
inline bool SeesWhole(const EpochVector& history, const Snapshot& snapshot) {
  const Epoch newest = history.max_epoch();
  return history.num_deletes() == 0 && IsVisibleAt(newest, snapshot.epoch) &&
         (snapshot.deps.empty() || After(snapshot.deps.Min(), newest));
}

/// Builds the visibility bitmap (one bit per record, set = visible) of
/// `snapshot` over a partition's transactional history, in one pass over
/// the encoded entries: each stretch of adjacent visible runs is set with
/// one range write, and only the deps at or before the horizon
/// MinEpoch(snapshot.epoch, history.max_epoch()) are probed (a later dep
/// cannot name a run the snapshot epoch admits). A history with a visible
/// delete marker is then decoded once for ApplyDeleteCleanup.
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

}  // namespace cubrick::aosi
