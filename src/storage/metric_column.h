// Append-only metric column (paper §III-C1, §V-A).
//
// Metrics are stored one vector per column, unordered and append-only;
// records are materialized through the implicit index. String metrics hold
// dictionary ids.

#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "storage/data_type.h"

namespace cubrick {

class MetricColumn {
 public:
  explicit MetricColumn(DataType type) : type_(type) {}

  DataType type() const { return type_; }

  void AppendInt64(int64_t v) {
    CUBRICK_CHECK(type_ != DataType::kDouble);
    ints_.push_back(v);
  }
  void AppendDouble(double v) {
    CUBRICK_CHECK(type_ == DataType::kDouble);
    doubles_.push_back(v);
  }

  int64_t GetInt64(uint64_t row) const { return ints_[row]; }
  double GetDouble(uint64_t row) const { return doubles_[row]; }

  uint64_t num_records() const {
    return type_ == DataType::kDouble ? doubles_.size() : ints_.size();
  }

  size_t MemoryUsage() const {
    return ints_.capacity() * sizeof(int64_t) +
           doubles_.capacity() * sizeof(double);
  }

  /// Builds a compacted copy keeping rows where keep(row) is true.
  template <typename KeepFn>
  MetricColumn CompactedCopy(KeepFn&& keep) const {
    MetricColumn out(type_);
    const uint64_t n = num_records();
    for (uint64_t row = 0; row < n; ++row) {
      if (!keep(row)) continue;
      if (type_ == DataType::kDouble) {
        out.AppendDouble(doubles_[row]);
      } else {
        out.AppendInt64(ints_[row]);
      }
    }
    return out;
  }

  /// Direct access for vectorized scans.
  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }

 private:
  DataType type_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
};

}  // namespace cubrick
