#include "query/materialize.h"

#include "query/executor.h"

namespace cubrick {

uint64_t MaterializeBrick(const Brick& brick, const aosi::Snapshot& snapshot,
                          ScanMode mode, const Query& query,
                          const MaterializeOptions& options,
                          std::vector<MaterializedRow>* out) {
  if (out->size() >= options.limit) return 0;
  if (brick.num_records() == 0) return 0;
  if (!BrickIntersectsFilters(brick, query)) return 0;

  const CubeSchema& schema = brick.schema();
  // Same visibility entry point (and cache) as the aggregation executor.
  const VisibilityRef ref = VisibilityForScan(brick, snapshot, mode);
  const Bitmap& visible = ref.bitmap();

  uint64_t produced = 0;
  for (size_t row = visible.FindNextSet(0);
       row < visible.size() && out->size() < options.limit;
       row = visible.FindNextSet(row + 1)) {
    bool matches = true;
    for (const auto& filter : query.filters) {
      if (!filter.Matches(brick.DimCoord(row, filter.dim))) {
        matches = false;
        break;
      }
    }
    if (!matches) continue;

    MaterializedRow record;
    record.values.reserve(schema.num_columns());
    for (size_t d = 0; d < schema.num_dimensions(); ++d) {
      const uint64_t coord = brick.DimCoord(row, d);
      if (schema.dimensions()[d].is_string) {
        record.values.emplace_back(schema.dictionary(d)->Decode(coord).value());
      } else {
        record.values.emplace_back(static_cast<int64_t>(coord));
      }
    }
    for (size_t m = 0; m < schema.num_metrics(); ++m) {
      const MetricColumn& col = brick.metric(m);
      const size_t column_idx = schema.num_dimensions() + m;
      switch (col.type()) {
        case DataType::kInt64:
          record.values.emplace_back(col.GetInt64(row));
          break;
        case DataType::kDouble:
          record.values.emplace_back(col.GetDouble(row));
          break;
        case DataType::kString:
          record.values.emplace_back(
              schema.dictionary(column_idx)
                  ->Decode(static_cast<uint64_t>(col.GetInt64(row)))
                  .value());
          break;
      }
    }
    out->push_back(std::move(record));
    ++produced;
  }
  return produced;
}

}  // namespace cubrick
