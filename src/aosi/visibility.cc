#include "aosi/visibility.h"

#include "aosi/fault_inject.h"

namespace cubrick::aosi {

Bitmap BuildVisibilityBitmap(const EpochVector& history,
                             const Snapshot& snapshot) {
  Bitmap bitmap(history.num_records(), false);
  const auto runs = history.Decode();

  // Test-only fault (fault_inject.h): pretend the snapshot's first dep is
  // visible, manufacturing the stale read the online checker must catch.
  const Epoch faulted_dep = SkipFirstDepFaultEnabled() && !snapshot.deps.empty()
                                ? snapshot.deps.Min()
                                : kNoEpoch;

  // First pass: set bits for append runs whose transaction is in-snapshot.
  for (const auto& run : runs) {
    const bool sees =
        snapshot.Sees(run.epoch) ||
        (!IsNoEpoch(faulted_dep) && SameEpoch(run.epoch, faulted_dep));
    if (!run.is_delete && sees) {
      bitmap.SetRange(run.begin, run.end);
    }
  }

  // Secondary pass: apply visible deletes via the shared cleanup rule.
  for (const auto& del : runs) {
    if (!del.is_delete || !snapshot.Sees(del.epoch)) continue;
    ApplyDeleteCleanup(runs, del.epoch, del.begin, &bitmap);
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

Bitmap BuildReadUncommittedBitmap(const EpochVector& history) {
  return Bitmap(history.num_records(), true);
}

}  // namespace cubrick::aosi
