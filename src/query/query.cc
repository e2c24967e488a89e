#include <algorithm>
#include <string>
#include <utility>

#include "query/query.h"

namespace cubrick {

Status ValidateQuery(const CubeSchema& schema, const Query& query) {
  for (const FilterClause& filter : query.filters) {
    if (filter.dim >= schema.num_dimensions()) {
      return Status::InvalidArgument("filter dimension " +
                                     std::to_string(filter.dim) +
                                     " out of range");
    }
    if (filter.op == FilterClause::Op::kEq && filter.values.empty()) {
      return Status::InvalidArgument("equality filter without a value");
    }
  }
  for (size_t dim : query.group_by) {
    if (dim >= schema.num_dimensions()) {
      return Status::InvalidArgument("group-by dimension " +
                                     std::to_string(dim) + " out of range");
    }
  }
  for (const AggSpec& agg : query.aggs) {
    if (agg.fn != AggSpec::Fn::kCount && agg.metric >= schema.num_metrics()) {
      return Status::InvalidArgument("aggregate metric " +
                                     std::to_string(agg.metric) +
                                     " out of range");
    }
  }
  return Status::OK();
}

void QueryResult::Merge(const QueryResult& other) {
  CUBRICK_CHECK(num_aggs_ == other.num_aggs_);
  auto mine = groups_.begin();
  for (const auto& [key, states] : other.groups_) {
    while (mine != groups_.end() && mine->first < key) ++mine;
    if (mine == groups_.end() || key < mine->first) {
      mine = groups_.emplace_hint(mine, key, std::vector<AggState>(num_aggs_));
    }
    for (size_t i = 0; i < num_aggs_; ++i) {
      mine->second[i].Merge(states[i]);
    }
    ++mine;
  }
}

std::vector<std::pair<QueryResult::GroupKey, double>> QueryResult::TopK(
    size_t agg_idx, AggSpec::Fn fn, size_t k) const {
  std::vector<std::pair<GroupKey, double>> ranked;
  ranked.reserve(groups_.size());
  for (const auto& [key, states] : groups_) {
    ranked.emplace_back(key, states[agg_idx].Finalize(fn));
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (ranked.size() > k) ranked.resize(k);
  return ranked;
}

double QueryResult::Value(const GroupKey& key, size_t agg_idx,
                          AggSpec::Fn fn) const {
  auto it = groups_.find(key);
  if (it == groups_.end()) return 0.0;
  return it->second[agg_idx].Finalize(fn);
}

}  // namespace cubrick
