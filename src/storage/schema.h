// Cube schema and Granular Partitioning (paper §V-A, ref [5]).
//
// A cube is the Cubrick equivalent of a table. Every column is either a
// dimension or a metric. Each dimension declares its cardinality and a range
// size; the overlap of one range per dimension forms a partition (brick).
// A brick id (bid) is the bitwise concatenation of the per-dimension range
// indexes, giving amortized O(1) record->partition mapping and indexed
// access through any combination of dimensions.

#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/data_type.h"
#include "storage/dictionary.h"

namespace cubrick {

/// Brick id: spatial position in the conceptual d-dimensional range grid.
using Bid = uint64_t;

/// One dimension column: bounded-cardinality coordinate.
struct DimensionDef {
  std::string name;
  /// Upper bound (exclusive) of encoded values; must be declared at cube
  /// creation time.
  uint64_t cardinality = 0;
  /// Number of consecutive encoded values grouped into one range.
  uint64_t range_size = 1;
  /// String dimensions are dictionary-encoded at ingestion.
  bool is_string = false;

  uint64_t num_ranges() const {
    return (cardinality + range_size - 1) / range_size;
  }
};

/// One metric column: a numeric measure.
struct MetricDef {
  std::string name;
  DataType type = DataType::kInt64;
};

/// Immutable description of a cube plus the derived bid/bess bit layouts.
class CubeSchema {
 public:
  /// Validates definitions and precomputes bit layouts. Fails when the bid
  /// would not fit in 64 bits, a cardinality/range size is zero, a name is
  /// duplicated, or a metric is declared as string.
  static Result<std::shared_ptr<CubeSchema>> Make(
      std::string cube_name, std::vector<DimensionDef> dimensions,
      std::vector<MetricDef> metrics);

  const std::string& cube_name() const { return cube_name_; }
  const std::vector<DimensionDef>& dimensions() const { return dimensions_; }
  const std::vector<MetricDef>& metrics() const { return metrics_; }
  size_t num_dimensions() const { return dimensions_.size(); }
  size_t num_metrics() const { return metrics_.size(); }
  size_t num_columns() const { return dimensions_.size() + metrics_.size(); }

  /// Index of a dimension / metric by name, or NotFound.
  Result<size_t> DimensionIndex(const std::string& name) const;
  Result<size_t> MetricIndex(const std::string& name) const;

  /// Bits the bid occupies (sum of per-dimension range-index widths).
  uint32_t bid_bits() const { return bid_bits_; }

  /// Total number of addressable bricks (product of num_ranges, capped by
  /// the bid bit layout).
  uint64_t MaxBricks() const;

  /// Computes the bid for a record's encoded dimension coordinates.
  /// Coordinates must be < cardinality for each dimension.
  Result<Bid> BidFor(std::span<const uint64_t> coords) const;
  Result<Bid> BidFor(std::initializer_list<uint64_t> coords) const {
    return BidFor(std::span<const uint64_t>(coords.begin(), coords.size()));
  }

  /// Extracts the range index of dimension `dim` from a bid.
  uint64_t RangeIndexOf(Bid bid, size_t dim) const;

  /// True when `bid` names a brick of this cube: no bits above bid_bits()
  /// and every dimension's range index below its num_ranges().
  bool IsValidBid(Bid bid) const;

  /// Bits needed to store an offset-within-range for dimension `dim` in the
  /// bess vector.
  uint32_t bess_bits(size_t dim) const { return bess_bits_[dim]; }
  /// Total bess bits per record.
  uint32_t bess_bits_per_record() const { return bess_bits_total_; }

  /// Splits an encoded coordinate into (range index, offset-within-range).
  void SplitCoord(size_t dim, uint64_t coord, uint64_t* range_idx,
                  uint64_t* offset) const {
    const uint64_t rs = dimensions_[dim].range_size;
    *range_idx = coord / rs;
    *offset = coord % rs;
  }

  /// The dictionary for string dimension/metric columns; nullptr for
  /// numeric columns. Index is over all columns: dims then metrics.
  StringDictionary* dictionary(size_t column_idx) const {
    return dictionaries_[column_idx].get();
  }

 private:
  CubeSchema() = default;

  std::string cube_name_;
  std::vector<DimensionDef> dimensions_;
  std::vector<MetricDef> metrics_;
  /// Per-dimension: number of bits its range index occupies in the bid.
  std::vector<uint32_t> bid_dim_bits_;
  /// Per-dimension: bit offset of its range index within the bid.
  std::vector<uint32_t> bid_dim_shift_;
  uint32_t bid_bits_ = 0;
  std::vector<uint32_t> bess_bits_;
  uint32_t bess_bits_total_ = 0;
  /// One per column (dims then metrics); null for numeric columns.
  std::vector<std::unique_ptr<StringDictionary>> dictionaries_;
};

/// Bits required to represent values in [0, n); 0 when n <= 1.
uint32_t BitsForCount(uint64_t n);

}  // namespace cubrick
