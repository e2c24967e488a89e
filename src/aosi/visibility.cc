#include "aosi/visibility.h"

#include <algorithm>

#include "aosi/fault_inject.h"

namespace cubrick::aosi {

Bitmap BuildVisibilityBitmap(const EpochVector& history,
                             const Snapshot& snapshot) {
  Bitmap bitmap(history.num_records(), false);

  // Every stamp is at or before max_epoch(), so a run the snapshot epoch
  // admits is at or before the horizon, and only the deps up to it can
  // mask one. Deps are sorted: those deps are a prefix.
  const auto before = [](Epoch a, Epoch b) { return HappensBefore(a, b); };
  const Epoch horizon = MinEpoch(snapshot.epoch, history.max_epoch());
  const auto deps_begin = snapshot.deps.begin();
  const auto deps_end =
      std::upper_bound(deps_begin, snapshot.deps.end(), horizon, before);
  const bool no_deps = deps_begin == deps_end;

  // Test-only fault (fault_inject.h): pretend the snapshot's first dep is
  // visible, manufacturing the stale read the online checker must catch.
  const Epoch faulted_dep = SkipFirstDepFaultEnabled() && !snapshot.deps.empty()
                                ? snapshot.deps.Min()
                                : kNoEpoch;

  // One pass: open a stretch at the first visible run after an invisible
  // one, and set it when the next invisible run (or the end) closes it.
  // Delete markers hold no records, so they neither open nor close one.
  uint64_t next = 0;  // first record of the next append run
  uint64_t stretch_begin = 0;
  bool in_stretch = false;
  bool visible_delete = false;
  for (const EpochEntry& entry : history.entries()) {
    if (entry.is_delete()) {
      visible_delete = visible_delete || snapshot.Sees(entry.epoch);
      continue;
    }
    const Epoch e = entry.epoch;
    bool sees = IsVisibleAt(e, snapshot.epoch);
    // A run older than the first dep is never masked: no probe.
    if (sees && !no_deps && AtOrAfter(e, *deps_begin)) {
      const auto it = std::lower_bound(deps_begin, deps_end, e, before);
      sees = it == deps_end || !SameEpoch(*it, e);
    }
    if (!IsNoEpoch(faulted_dep) && SameEpoch(e, faulted_dep)) sees = true;
    if (sees && !in_stretch) {
      stretch_begin = next;
      in_stretch = true;
    } else if (!sees && in_stretch) {
      bitmap.SetRange(stretch_begin, next);
      in_stretch = false;
    }
    next = entry.index() + 1;
  }
  if (in_stretch) bitmap.SetRange(stretch_begin, next);

  // Secondary pass, only when a delete marker is visible: apply each one
  // through the cleanup rule purge shares.
  if (visible_delete) {
    const auto runs = history.Decode();
    for (const auto& del : runs) {
      if (!del.is_delete || !snapshot.Sees(del.epoch)) continue;
      ApplyDeleteCleanup(runs, del.epoch, del.begin, &bitmap);
    }
  }
  return bitmap;
}

void ApplyDeleteCleanup(const std::vector<EpochRun>& runs, Epoch k,
                        uint64_t delete_point, Bitmap* bitmap) {
  // A delete by k clears (a) every record of transactions j ordered before
  // k regardless of physical position, and (b) k's own records located
  // strictly before the delete point.
  for (const auto& run : runs) {
    if (run.is_delete) continue;
    if (HappensBefore(run.epoch, k)) {
      bitmap->ClearRange(run.begin, run.end);
    } else if (SameEpoch(run.epoch, k) && run.begin < delete_point) {
      bitmap->ClearRange(run.begin,
                         run.end < delete_point ? run.end : delete_point);
    }
  }
}

}  // namespace cubrick::aosi
