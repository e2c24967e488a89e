// Record materialization (paper §III, footnote 1).
//
// "Record materialization is the process of converting the column-wise
// representation of a record into a more natural row-wise format." Scans
// normally stay columnar; materialization is the boundary operation that
// produces row-wise results (SELECT-style reads, exports, debugging),
// driven by the same visibility bitmaps as aggregations and decoding
// dimension coordinates back through the dictionaries.

#pragma once

#include <limits>

#include "aosi/epoch.h"
#include "query/query.h"
#include "storage/brick.h"
#include "storage/data_type.h"

namespace cubrick {

/// One materialized row: dimension values then metric values, in schema
/// order, with string columns decoded.
struct MaterializedRow {
  std::vector<Value> values;
};

struct MaterializeOptions {
  /// Stop after this many rows (rows are produced in physical order per
  /// brick; brick order is unspecified).
  uint64_t limit = std::numeric_limits<uint64_t>::max();
};

/// Materializes the visible-and-matching rows of one brick, appending to
/// `out` until options.limit rows are held. Returns the number appended.
uint64_t MaterializeBrick(const Brick& brick, const aosi::Snapshot& snapshot,
                          ScanMode mode, const Query& query,
                          const MaterializeOptions& options,
                          std::vector<MaterializedRow>* out);

}  // namespace cubrick
