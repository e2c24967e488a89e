// Extraction of append runs / delete markers in an epoch range, in the
// brick's physical order — the building block for incremental flush rounds
// and for replica catch-up after a node recovers (§III-D: "data from LSE
// onwards can be retrieved from the replica nodes").

#pragma once

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

/// Copies one brick's runs with epoch in (from_exclusive, to_inclusive]
/// into row batches, preserving physical order. Returns an empty runs list
/// when the brick holds nothing in range.
ExtractedBrick ExtractBrickRuns(const Brick& brick,
                                aosi::Epoch from_exclusive,
                                aosi::Epoch to_inclusive);

/// Extracts the whole table's in-range runs (drains shards sequentially).
std::vector<ExtractedBrick> ExtractTableRuns(Table* table,
                                             aosi::Epoch from_exclusive,
                                             aosi::Epoch to_inclusive);

/// Replays extracted bricks into `table`, preserving per-brick run order.
/// Consumes the runs: each batch moves into its append.
Status ReplayExtracted(Table* table, std::vector<ExtractedBrick> bricks);

}  // namespace cubrick
