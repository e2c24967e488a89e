#include "storage/schema.h"

#include <bit>
#include <unordered_set>

namespace cubrick {

uint32_t BitsForCount(uint64_t n) {
  return n <= 1 ? 0 : static_cast<uint32_t>(std::bit_width(n - 1));
}

Result<std::shared_ptr<CubeSchema>> CubeSchema::Make(
    std::string cube_name, std::vector<DimensionDef> dimensions,
    std::vector<MetricDef> metrics) {
  if (cube_name.empty()) {
    return Status::InvalidArgument("cube name must not be empty");
  }
  if (dimensions.empty()) {
    return Status::InvalidArgument("cube must have at least one dimension");
  }
  std::unordered_set<std::string> names;
  for (const auto& d : dimensions) {
    if (d.cardinality == 0) {
      return Status::InvalidArgument("dimension '" + d.name +
                                     "' must declare cardinality > 0");
    }
    if (d.range_size == 0 || d.range_size > d.cardinality) {
      return Status::InvalidArgument("dimension '" + d.name +
                                     "' has invalid range size");
    }
    if (!names.insert(d.name).second) {
      return Status::InvalidArgument("duplicate column name: " + d.name);
    }
  }
  for (const auto& m : metrics) {
    if (!names.insert(m.name).second) {
      return Status::InvalidArgument("duplicate column name: " + m.name);
    }
  }

  auto schema = std::shared_ptr<CubeSchema>(new CubeSchema());
  schema->cube_name_ = std::move(cube_name);
  schema->dimensions_ = std::move(dimensions);
  schema->metrics_ = std::move(metrics);

  uint32_t shift = 0;
  for (const auto& d : schema->dimensions_) {
    const uint32_t bits = BitsForCount(d.num_ranges());
    schema->bid_dim_bits_.push_back(bits);
    schema->bid_dim_shift_.push_back(shift);
    shift += bits;
    const uint32_t bess = BitsForCount(d.range_size);
    schema->bess_bits_.push_back(bess);
    schema->bess_bits_total_ += bess;
  }
  if (shift > 64) {
    return Status::InvalidArgument(
        "bid does not fit in 64 bits; reduce dimensionality or grow ranges");
  }
  schema->bid_bits_ = shift;

  for (const auto& d : schema->dimensions_) {
    schema->dictionaries_.push_back(
        d.is_string ? std::make_unique<StringDictionary>() : nullptr);
  }
  for (const auto& m : schema->metrics_) {
    schema->dictionaries_.push_back(
        m.type == DataType::kString ? std::make_unique<StringDictionary>()
                                    : nullptr);
  }
  return schema;
}

Result<size_t> CubeSchema::DimensionIndex(const std::string& name) const {
  for (size_t i = 0; i < dimensions_.size(); ++i) {
    if (dimensions_[i].name == name) return i;
  }
  return Status::NotFound("no dimension named '" + name + "'");
}

Result<size_t> CubeSchema::MetricIndex(const std::string& name) const {
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (metrics_[i].name == name) return i;
  }
  return Status::NotFound("no metric named '" + name + "'");
}

Result<Bid> CubeSchema::BidFor(std::span<const uint64_t> coords) const {
  if (coords.size() != dimensions_.size()) {
    return Status::InvalidArgument("coordinate arity mismatch");
  }
  Bid bid = 0;
  for (size_t i = 0; i < coords.size(); ++i) {
    if (coords[i] >= dimensions_[i].cardinality) {
      return Status::OutOfRange("coordinate " + std::to_string(coords[i]) +
                                " exceeds cardinality of dimension '" +
                                dimensions_[i].name + "'");
    }
    // A dimension of one range takes no bits (and may sit at shift 64).
    if (bid_dim_bits_[i] == 0) continue;
    const uint64_t range_idx = coords[i] / dimensions_[i].range_size;
    bid |= range_idx << bid_dim_shift_[i];
  }
  return bid;
}

uint64_t CubeSchema::RangeIndexOf(Bid bid, size_t dim) const {
  const uint32_t bits = bid_dim_bits_[dim];
  if (bits == 0) return 0;
  return (bid >> bid_dim_shift_[dim]) & (~0ULL >> (64 - bits));
}

bool CubeSchema::IsValidBid(Bid bid) const {
  if (bid_bits_ < 64 && (bid >> bid_bits_) != 0) return false;
  for (size_t d = 0; d < dimensions_.size(); ++d) {
    if (RangeIndexOf(bid, d) >= dimensions_[d].num_ranges()) return false;
  }
  return true;
}

}  // namespace cubrick
