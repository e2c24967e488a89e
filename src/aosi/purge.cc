#include "aosi/purge.h"

#include "aosi/visibility.h"

namespace cubrick::aosi {

namespace {

/// Rebuilds a history from the runs that survive, renumbering record ranges
/// to be dense, and merging adjacent append runs with epoch < merge_below
/// (pass kNoEpoch to disable merging, e.g. for rollback).
CompactionPlan BuildPlan(const std::vector<EpochRun>& runs,
                         const Bitmap& keep, Epoch merge_below) {
  CompactionPlan plan;
  plan.needed = true;
  plan.keep = keep;

  std::vector<EpochRun> new_runs;
  uint64_t next_idx = 0;
  for (const auto& run : runs) {
    if (run.is_delete) {
      if (IsNoEpoch(run.epoch)) continue;  // marked dropped by caller
      EpochRun marker;
      marker.epoch = run.epoch;
      marker.is_delete = true;
      marker.begin = marker.end = next_idx;
      new_runs.push_back(marker);
      continue;
    }
    const uint64_t kept = keep.CountSetInRange(run.begin, run.end);
    if (kept == 0) continue;
    const bool mergeable =
        !IsNoEpoch(merge_below) && HappensBefore(run.epoch, merge_below) &&
        !new_runs.empty() && !new_runs.back().is_delete &&
        HappensBefore(new_runs.back().epoch, merge_below);
    if (mergeable) {
      auto& prev = new_runs.back();
      // The merged run is stamped with the later epoch in *epoch order*
      // (MaxEpoch, not std::max): under node-strided epoch encodings the
      // two orders are not interchangeable, and a merged run stamped too
      // early would let PlanRetainUpTo/readers resurrect purged records.
      prev.epoch = MaxEpoch(prev.epoch, run.epoch);
      prev.end += kept;
      next_idx += kept;
    } else {
      EpochRun out;
      out.epoch = run.epoch;
      out.begin = next_idx;
      out.end = next_idx + kept;
      out.is_delete = false;
      new_runs.push_back(out);
      next_idx = out.end;
    }
  }
  plan.new_history = EpochVector::FromRuns(new_runs);
  return plan;
}

/// Plans the removal of every run whose epoch `drop` selects: its records
/// and its delete markers go, every other run stays unmerged. Rollback and
/// crash-recovery truncation differ only in the selector.
template <typename DropFn>
CompactionPlan PlanDropRuns(const EpochVector& history, DropFn drop) {
  std::vector<EpochRun> runs = history.Decode();
  bool touched = false;
  Bitmap keep(history.num_records(), true);
  for (auto& run : runs) {
    if (!drop(run.epoch)) continue;
    touched = true;
    if (run.is_delete) {
      run.epoch = kNoEpoch;  // drop the marker
    } else {
      keep.ClearRange(run.begin, run.end);
    }
  }
  if (!touched) return CompactionPlan{};
  return BuildPlan(runs, keep, /*merge_below=*/kNoEpoch);
}

}  // namespace

bool HasPurgeWork(const EpochVector& history, Epoch lse) {
  const std::vector<EpochEntry>& entries = history.entries();
  for (size_t i = 0; i < entries.size(); ++i) {
    const EpochEntry& e = entries[i];
    if (!HappensBefore(e.epoch, lse)) continue;
    if (e.is_delete()) return true;
    if (i + 1 < entries.size() && !entries[i + 1].is_delete() &&
        HappensBefore(entries[i + 1].epoch, lse)) {
      return true;
    }
  }
  return false;
}

CompactionPlan PlanPurge(const EpochVector& history, Epoch lse) {
  if (!HasPurgeWork(history, lse)) return CompactionPlan{};
  const std::vector<EpochRun> runs = history.Decode();

  // Compute surviving records: start from all-kept, then apply every delete
  // marker with epoch < lse using exactly the visibility cleanup rule —
  // literally the same code (visibility.cc's ApplyDeleteCleanup), so purge
  // and scan can never disagree about what a delete covers.
  Bitmap keep(history.num_records(), true);
  std::vector<EpochRun> working = runs;
  for (auto& del : working) {
    if (!del.is_delete || AtOrAfter(del.epoch, lse)) continue;
    ApplyDeleteCleanup(runs, del.epoch, del.begin, &keep);
    del.epoch = kNoEpoch;  // mark the marker itself as dropped
  }

  return BuildPlan(working, keep, /*merge_below=*/lse);
}

CompactionPlan PlanRollback(const EpochVector& history, Epoch victim) {
  return PlanDropRuns(history,
                      [victim](Epoch e) { return SameEpoch(e, victim); });
}

CompactionPlan PlanRetainUpTo(const EpochVector& history, Epoch lse) {
  return PlanDropRuns(history, [lse](Epoch e) { return !AtOrBefore(e, lse); });
}

}  // namespace cubrick::aosi
