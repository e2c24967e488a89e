// Garbage collection (purge) and rollback compaction (paper §III-C4/5).
//
// Purge operates over LSE (Latest Safe Epoch): every transaction <= LSE is
// finished, no reader holds a snapshot older than LSE, and everything <= LSE
// is durable. It (a) applies delete markers older than LSE by physically
// removing dead records, and (b) recycles epochs-vector entries by merging
// contiguous append runs older than LSE into a single entry. The caller
// (brick shard) rebuilds the data vectors from the returned keep-bitmap and
// swaps partitions atomically.
//
// Rollback compaction removes every record and history entry belonging to a
// single aborted transaction, used by TxnManager::Rollback.

#pragma once

#include "aosi/epoch.h"
#include "aosi/epoch_vector.h"
#include "common/bitmap.h"

namespace cubrick::aosi {

/// Outcome of planning a purge / rollback over one partition.
struct CompactionPlan {
  /// False when the partition needs no work (no entries older than LSE, no
  /// applicable deletes) and must be left untouched.
  bool needed = false;
  /// One bit per existing record: set = record survives.
  Bitmap keep;
  /// The rebuilt history for the surviving records.
  EpochVector new_history;
};

/// Whether a purge at `lse` has work in `history`: a delete marker with
/// epoch < lse to apply, or two adjacent append runs with epochs < lse to
/// merge. PlanPurge plans exactly when this holds.
bool HasPurgeWork(const EpochVector& history, Epoch lse);

/// Plans a purge of `history` at `lse`.
///
/// Rules:
///  - A delete marker with epoch < lse is applied: records of transactions
///    < epoch anywhere, and the deleter's own records before the marker, are
///    dropped, and the marker is removed. (Every future reader would see the
///    delete, so applying it physically is invisible.)
///  - Delete markers with epoch >= lse are kept (a reader may still exist
///    that does not see them).
///  - Surviving contiguous append runs with epoch < lse merge into a single
///    entry stamped with the largest merged epoch. Runs are never merged
///    across a surviving delete marker.
CompactionPlan PlanPurge(const EpochVector& history, Epoch lse);

/// Plans removal of every append/delete by `victim` (transaction rollback).
CompactionPlan PlanRollback(const EpochVector& history, Epoch victim);

/// Plans removal of everything NEWER than `lse` — used by crash recovery to
/// discard runs from flush rounds that did not complete on every cube,
/// restoring a consistent snapshot at the recovered LSE (§III-D: "ignoring
/// any subsequent partial flush executions").
CompactionPlan PlanRetainUpTo(const EpochVector& history, Epoch lse);

}  // namespace cubrick::aosi
