// Query model: filters over dimensions, aggregations over metrics,
// optional group-by (paper §V, §VI-B).
//
// Cubrick queries are OLAP aggregations: scan the cube, keep records whose
// dimension coordinates satisfy every filter, and fold metrics into
// aggregate functions, optionally grouped by dimension values. Filters are
// expressed over *encoded* coordinates (dictionary ids for string
// dimensions); the facade layer translates user-facing strings.

#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/schema.h"

namespace cubrick {

/// Scan isolation mode (paper §VI-B): Snapshot Isolation uses the AOSI
/// visibility bitmap; Read Uncommitted is the best-effort baseline that
/// reads all physically present data.
enum class ScanMode : uint8_t { kSnapshotIsolation, kReadUncommitted };

/// A predicate over one dimension's encoded coordinate.
struct FilterClause {
  enum class Op : uint8_t { kEq, kIn, kRange };

  size_t dim = 0;
  Op op = Op::kEq;
  /// kEq: values[0]. kIn: any of values. kRange: [range_lo, range_hi].
  std::vector<uint64_t> values;
  uint64_t range_lo = 0;
  uint64_t range_hi = std::numeric_limits<uint64_t>::max();

  bool Matches(uint64_t coord) const {
    switch (op) {
      case Op::kEq:
        return coord == values[0];
      case Op::kIn:
        for (uint64_t v : values) {
          if (coord == v) return true;
        }
        return false;
      case Op::kRange:
        return coord >= range_lo && coord <= range_hi;
    }
    return false;
  }

  /// True when some coordinate in [lo, hi] can match — used to prune whole
  /// bricks by their per-dimension ranges (granular partitioning).
  bool Intersects(uint64_t lo, uint64_t hi) const {
    switch (op) {
      case Op::kEq:
        return values[0] >= lo && values[0] <= hi;
      case Op::kIn:
        for (uint64_t v : values) {
          if (v >= lo && v <= hi) return true;
        }
        return false;
      case Op::kRange:
        return range_lo <= hi && range_hi >= lo;
    }
    return false;
  }

  /// True when every coordinate in [lo, hi] matches — used to validate
  /// partition-granular deletes.
  bool Covers(uint64_t lo, uint64_t hi) const {
    switch (op) {
      case Op::kEq:
        return lo == hi && values[0] == lo;
      case Op::kIn:
        for (uint64_t c = lo; c <= hi; ++c) {
          if (!Matches(c)) return false;
        }
        return true;
      case Op::kRange:
        return range_lo <= lo && range_hi >= hi;
    }
    return false;
  }
};

/// Aggregate function over one metric. kCount ignores the metric index.
struct AggSpec {
  enum class Fn : uint8_t { kSum, kCount, kMin, kMax, kAvg };
  Fn fn = Fn::kSum;
  size_t metric = 0;
};

/// A full aggregation query.
struct Query {
  std::vector<FilterClause> filters;
  std::vector<size_t> group_by;  // dimension indexes
  std::vector<AggSpec> aggs;
};

/// InvalidArgument unless every filter and group-by dimension and every
/// non-COUNT metric of `query` exists in `schema`, and every kEq filter has
/// a value. The scan kernels index columns with these unchecked, so every
/// entry point that takes a query or a delete predicate (as `filters` of an
/// otherwise empty query) calls this first.
Status ValidateQuery(const CubeSchema& schema, const Query& query);

/// Accumulator for one aggregate cell.
struct AggState {
  double sum = 0;
  uint64_t count = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  void Accumulate(double v) {
    sum += v;
    ++count;
    // Selects, not branches: a new extreme is rare and unpredictable. Same
    // semantics as `if (v < min) min = v` (a NaN never replaces).
    min = v < min ? v : min;
    max = v > max ? v : max;
  }

  /// Accumulates `v` exactly `n` times with one multiply. Only used where
  /// the folded sum is bit-identical to n serial adds — COUNT aggregation
  /// (v == 1.0, so the running sum is a small integer): a whole bitmap
  /// word's rows collapse into one popcount-sized call.
  void AccumulateRepeated(double v, uint64_t n) {
    sum += v * static_cast<double>(n);
    count += n;
    if (v < min) min = v;
    if (v > max) max = v;
  }

  void Merge(const AggState& other) {
    sum += other.sum;
    count += other.count;
    if (other.min < min) min = other.min;
    if (other.max > max) max = other.max;
  }

  double Finalize(AggSpec::Fn fn) const {
    switch (fn) {
      case AggSpec::Fn::kSum:
        return sum;
      case AggSpec::Fn::kCount:
        return static_cast<double>(count);
      case AggSpec::Fn::kMin:
        return min;
      case AggSpec::Fn::kMax:
        return max;
      case AggSpec::Fn::kAvg:
        return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }
    return 0.0;
  }
};

/// Partial or final result of a query: group key -> one state per agg.
/// Mergeable across bricks, shards and nodes.
class QueryResult {
 public:
  using GroupKey = std::vector<uint64_t>;
  using Groups = std::map<GroupKey, std::vector<AggState>>;

  explicit QueryResult(size_t num_aggs = 0) : num_aggs_(num_aggs) {}
  /// A result holding `groups`, each with num_aggs states.
  QueryResult(size_t num_aggs, Groups groups)
      : num_aggs_(num_aggs), groups_(std::move(groups)) {}

  /// Accumulates `value` into agg `agg_idx` of group `key`.
  void Accumulate(const GroupKey& key, size_t agg_idx, double value) {
    auto& states = groups_[key];
    if (states.empty()) states.resize(num_aggs_);
    states[agg_idx].Accumulate(value);
  }

  /// Folds fully-accumulated `states` (num_aggs of them) into group `key`:
  /// a new group starts from zeroed states.
  void MergeGroup(const GroupKey& key, const AggState* states) {
    auto& dst = groups_[key];
    if (dst.empty()) dst.resize(num_aggs_);
    for (size_t a = 0; a < num_aggs_; ++a) dst[a].Merge(states[a]);
  }

  /// Merges a partial result (same query shape) into this one: MergeGroup
  /// of every group of `other`, in one pass over both sorted maps.
  void Merge(const QueryResult& other);

  size_t num_groups() const { return groups_.size(); }
  size_t num_aggs() const { return num_aggs_; }
  bool empty() const { return groups_.empty(); }

  const Groups& groups() const { return groups_; }

  /// Finalized value of agg `agg_idx` for `key` under `fn`; 0 for a missing
  /// group with kSum/kCount semantics.
  double Value(const GroupKey& key, size_t agg_idx, AggSpec::Fn fn) const;

  /// Convenience for ungrouped queries: the single (empty-key) group.
  double Single(size_t agg_idx, AggSpec::Fn fn) const {
    return Value({}, agg_idx, fn);
  }

  /// The k groups with the largest finalized value of agg `agg_idx`
  /// (descending; ties broken by group key), e.g. "top 10 regions by
  /// revenue" for dashboards.
  std::vector<std::pair<GroupKey, double>> TopK(size_t agg_idx,
                                                AggSpec::Fn fn,
                                                size_t k) const;

 private:
  size_t num_aggs_;
  Groups groups_;
};

}  // namespace cubrick
