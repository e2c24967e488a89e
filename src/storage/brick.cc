#include "storage/brick.h"

namespace cubrick {

Status EncodedBatch::Validate(const CubeSchema& schema) const {
  const auto bad = [](const std::string& what) {
    return Status::InvalidArgument("malformed batch: " + what);
  };
  if (dim_offsets.size() != schema.num_dimensions() ||
      metric_ints.size() != schema.num_metrics() ||
      metric_doubles.size() != schema.num_metrics()) {
    return bad("column count does not match the schema");
  }
  for (size_t d = 0; d < dim_offsets.size(); ++d) {
    if (dim_offsets[d].size() != num_rows) {
      return bad("dimension " + std::to_string(d) + " holds " +
                 std::to_string(dim_offsets[d].size()) + " of " +
                 std::to_string(num_rows) + " rows");
    }
  }
  for (size_t m = 0; m < schema.num_metrics(); ++m) {
    const size_t n = schema.metrics()[m].type == DataType::kDouble
                         ? metric_doubles[m].size()
                         : metric_ints[m].size();
    if (n != num_rows) {
      return bad("metric " + std::to_string(m) + " holds " +
                 std::to_string(n) + " of " + std::to_string(num_rows) +
                 " rows");
    }
  }
  if (starts.size() != bids.size() + 1 || starts.front() != 0 ||
      starts.back() != num_rows) {
    return bad("partition bounds do not cover the rows");
  }
  for (size_t p = 0; p < bids.size(); ++p) {
    const Bid bid = bids[p];
    if (!schema.IsValidBid(bid)) {
      return bad("bid " + std::to_string(bid) + " names no brick");
    }
    if (p > 0 && bids[p - 1] >= bid) return bad("bids do not ascend");
    if (starts[p] >= starts[p + 1]) return bad("empty partition");
    if (starts[p + 1] > num_rows) return bad("partition ends past the rows");
    for (size_t d = 0; d < schema.num_dimensions(); ++d) {
      const DimensionDef& def = schema.dimensions()[d];
      const uint64_t base = schema.RangeIndexOf(bid, d) * def.range_size;
      for (uint64_t row = starts[p]; row < starts[p + 1]; ++row) {
        const uint64_t offset = dim_offsets[d][row];
        if (offset >= def.range_size || base + offset >= def.cardinality) {
          return bad("dimension " + std::to_string(d) + " offset " +
                     std::to_string(offset) + " lies outside brick " +
                     std::to_string(bid) + "'s range");
        }
      }
    }
  }
  return Status::OK();
}

namespace {
std::vector<uint32_t> BessLayout(const CubeSchema& schema) {
  std::vector<uint32_t> bits;
  bits.reserve(schema.num_dimensions());
  for (size_t d = 0; d < schema.num_dimensions(); ++d) {
    bits.push_back(schema.bess_bits(d));
  }
  return bits;
}
}  // namespace

Brick::Brick(std::shared_ptr<const CubeSchema> schema, Bid bid)
    : schema_(std::move(schema)), bid_(bid), bess_(BessLayout(*schema_)) {
  for (size_t d = 0; d < schema_->num_dimensions(); ++d) {
    range_base_.push_back(schema_->RangeIndexOf(bid, d) *
                          schema_->dimensions()[d].range_size);
  }
  for (const auto& m : schema_->metrics()) {
    metrics_.emplace_back(m.type);
  }
}

void Brick::AppendBatch(aosi::Epoch epoch, const EncodedBatch& batch,
                        size_t p) {
  CUBRICK_CHECK(p < batch.num_partitions() && batch.bids[p] == bid_);
  const uint64_t begin = batch.starts[p];
  const uint64_t end = batch.starts[p + 1];
  CUBRICK_CHECK(begin < end && end <= batch.num_rows);
  for (const auto& column : batch.dim_offsets) {
    CUBRICK_CHECK(column.size() == batch.num_rows);
  }
  std::vector<uint64_t> offsets(schema_->num_dimensions());
  for (uint64_t row = begin; row < end; ++row) {
    for (size_t d = 0; d < offsets.size(); ++d) {
      offsets[d] = batch.dim_offsets[d][row];
    }
    bess_.Append(offsets);
  }
  for (size_t m = 0; m < metrics_.size(); ++m) {
    if (metrics_[m].type() == DataType::kDouble) {
      const auto& values = batch.metric_doubles[m];
      CUBRICK_CHECK(values.size() == batch.num_rows);
      for (uint64_t row = begin; row < end; ++row) {
        metrics_[m].AppendDouble(values[row]);
      }
    } else {
      const auto& values = batch.metric_ints[m];
      CUBRICK_CHECK(values.size() == batch.num_rows);
      for (uint64_t row = begin; row < end; ++row) {
        metrics_[m].AppendInt64(values[row]);
      }
    }
  }
  history_.RecordAppend(epoch, end - begin);
  vis_cache_.Clear();
}

void Brick::MarkDeleted(aosi::Epoch epoch) {
  history_.RecordDelete(epoch);
  vis_cache_.Clear();
}

void Brick::ApplyCompaction(const aosi::CompactionPlan& plan) {
  CUBRICK_CHECK(plan.needed);
  CUBRICK_CHECK(plan.keep.size() == history_.num_records());
  const auto keep = [&](uint64_t row) { return plan.keep.Get(row); };
  BessColumn new_bess = bess_.CompactedCopy(keep);
  std::vector<MetricColumn> new_metrics;
  new_metrics.reserve(metrics_.size());
  for (const auto& m : metrics_) {
    new_metrics.push_back(m.CompactedCopy(keep));
  }
  const bool installed = InstallCompaction(
      history_.version(), plan, std::move(new_bess), std::move(new_metrics));
  CUBRICK_CHECK(installed);  // same-thread: the version cannot have moved
}

void Brick::SnapshotColumnsForCompaction(
    std::optional<BessColumn>* bess,
    std::vector<MetricColumn>* metrics) const {
  bess->emplace(bess_);
  *metrics = metrics_;
}

bool Brick::InstallCompaction(uint64_t expected_version,
                              const aosi::CompactionPlan& plan,
                              BessColumn new_bess,
                              std::vector<MetricColumn> new_metrics) {
  if (history_.version() != expected_version) return false;
  CUBRICK_CHECK(plan.needed);
  CUBRICK_CHECK(plan.keep.size() == history_.num_records());
  CUBRICK_CHECK(new_bess.num_records() == plan.new_history.num_records());
  bess_ = std::move(new_bess);
  metrics_ = std::move(new_metrics);
  // InstallRebuilt (not plain assignment) keeps the version counter
  // advancing, so cached visibility bitmaps of the pre-compaction layout
  // can never be mistaken for the new one.
  history_.InstallRebuilt(plan.new_history);
  vis_cache_.Clear();
  return true;
}

size_t Brick::DataMemoryUsage() const {
  size_t bytes = bess_.MemoryUsage();
  for (const auto& m : metrics_) {
    bytes += m.MemoryUsage();
  }
  return bytes;
}

}  // namespace cubrick
