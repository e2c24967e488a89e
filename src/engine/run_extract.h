// Extraction of append runs / delete markers in an epoch range, in the
// brick's physical order, and their replay — the one code path that turns
// a brick's runs into batches and back (§III-D). Flush rounds stream each
// brick's runs through SelectBrickRuns and DecodeRun, and recovery replays
// what it reads back through ReplayExtracted (persist/flush_manager.cc);
// replica catch-up after a node recovers uses ExtractTableRuns and
// ReplayExtracted directly ("data from LSE onwards can be retrieved from
// the replica nodes").

#pragma once

#include <functional>
#include <vector>

#include "aosi/epoch.h"
#include "engine/table.h"
#include "storage/brick.h"

namespace cubrick {

struct ExtractedRun {
  aosi::Epoch epoch = aosi::kNoEpoch;
  bool is_delete = false;
  /// Row payload for append runs: one partition, the brick's (empty for
  /// delete markers).
  EncodedBatch batch;

  explicit ExtractedRun(const CubeSchema& schema) : batch(schema) {}
};

struct ExtractedBrick {
  Bid bid = 0;
  std::vector<ExtractedRun> runs;
};

/// One brick's runs with epoch in (from_exclusive, to_inclusive], in
/// physical order.
std::vector<aosi::EpochRun> SelectBrickRuns(const Brick& brick,
                                            aosi::Epoch from_exclusive,
                                            aosi::Epoch to_inclusive);

/// Overwrites `batch` with append run `run`'s rows as one partition, the
/// brick's. A batch reused across runs keeps its column buffers, so a
/// caller that streams a brick's runs one at a time (a flush round)
/// allocates per brick, not per run and column.
void DecodeRun(const Brick& brick, const aosi::EpochRun& run,
               EncodedBatch* batch);

/// Copies one brick's runs with epoch in (from_exclusive, to_inclusive]
/// into row batches, preserving physical order: SelectBrickRuns, then
/// DecodeRun into a batch per run. Returns an empty runs list when the
/// brick holds nothing in range.
ExtractedBrick ExtractBrickRuns(const Brick& brick,
                                aosi::Epoch from_exclusive,
                                aosi::Epoch to_inclusive);

/// Extracts the in-range runs of every brick whose bid `keep` accepts
/// (drains shards sequentially). A brick `keep` rejects is not decoded.
std::vector<ExtractedBrick> ExtractTableRuns(
    Table* table, aosi::Epoch from_exclusive, aosi::Epoch to_inclusive,
    const std::function<bool(Bid)>& keep);

/// Replays extracted bricks into `table`, preserving per-brick run order.
/// Consumes the runs: each batch moves into its append.
Status ReplayExtracted(Table* table, std::vector<ExtractedBrick> bricks);

}  // namespace cubrick
