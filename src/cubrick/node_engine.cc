#include "cubrick/node_engine.h"

#include <algorithm>

namespace cubrick {

NodeEngine::NodeEngine(EngineOptions options, uint32_t node_idx,
                       uint32_t num_nodes)
    : options_(std::move(options)), txns_(node_idx, num_nodes) {}

Status NodeEngine::CreateCube(std::shared_ptr<const CubeSchema> schema) {
  const std::string name = schema->cube_name();
  MutexLock lock(mutex_);
  if (cubes_.count(name) > 0) {
    return Status::AlreadyExists("cube '" + name + "' already exists");
  }
  CubeState state;
  state.table = std::make_unique<Table>(
      std::move(schema), options_.shards_per_cube, options_.threaded_shards,
      options_.rollback_index);
  if (!options_.data_dir.empty()) {
    state.flusher =
        std::make_unique<persist::FlushManager>(options_.data_dir, name);
  }
  cubes_.emplace(name, std::move(state));
  return Status::OK();
}

Status NodeEngine::DropCube(const std::string& name) {
  MutexLock lock(mutex_);
  if (cubes_.erase(name) == 0) {
    return Status::NotFound("cube '" + name + "' does not exist");
  }
  return Status::OK();
}

Table* NodeEngine::FindTable(const std::string& name) const {
  MutexLock lock(mutex_);
  auto it = cubes_.find(name);
  return it == cubes_.end() ? nullptr : it->second.table.get();
}

Result<Table*> NodeEngine::GetTable(const std::string& name) const {
  Table* table = FindTable(name);
  if (table == nullptr) {
    return Status::NotFound("cube '" + name + "' does not exist");
  }
  return table;
}

std::vector<std::string> NodeEngine::CubeNames() const {
  MutexLock lock(mutex_);
  std::vector<std::string> names;
  for (const auto& [name, state] : cubes_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<NodeEngine::CubeRef> NodeEngine::SnapshotCubes() const {
  MutexLock lock(mutex_);
  std::vector<CubeRef> cubes;
  cubes.reserve(cubes_.size());
  for (const auto& [name, state] : cubes_) {
    cubes.push_back({state.table.get(), state.flusher.get()});
  }
  return cubes;
}

Result<ParseOutput> NodeEngine::Parse(const std::string& cube,
                                      const std::vector<Record>& records,
                                      const ParseOptions& options) {
  auto table = GetTable(cube);
  if (!table.ok()) return table.status();
  return ParseRecords((*table)->schema(), records, options,
                      options_.ingest_parallelism);
}

Status NodeEngine::Append(aosi::Epoch epoch, const std::string& cube,
                          BatchView view) {
  auto table = GetTable(cube);
  if (!table.ok()) return table.status();
  return (*table)->Append(epoch, std::move(view));
}

Status NodeEngine::DeleteWhere(aosi::Epoch epoch, const std::string& cube,
                               const std::vector<FilterClause>& filters) {
  auto table = GetTable(cube);
  if (!table.ok()) return table.status();
  return (*table)->DeleteWhere(epoch, filters);
}

Result<QueryResult> NodeEngine::Scan(
    const std::string& cube, const aosi::Snapshot& snapshot, ScanMode mode,
    const Query& query, const std::function<bool(Bid)>& brick_filter) {
  auto table = GetTable(cube);
  if (!table.ok()) return table.status();
  CUBRICK_RETURN_IF_ERROR(ValidateQuery((*table)->schema(), query));
  return (*table)->Scan(snapshot, mode, query, brick_filter,
                        options_.query_parallelism);
}

void NodeEngine::RollbackData(aosi::Epoch victim) {
  for (const CubeRef& cube : SnapshotCubes()) {
    cube.table->Rollback(victim);
  }
}

PurgeStats NodeEngine::Purge() {
  const aosi::Epoch lse = txns_.LSE();
  PurgeStats total;
  for (const CubeRef& cube : SnapshotCubes()) {
    total += cube.table->Purge(lse);
  }
  return total;
}

Status NodeEngine::Checkpoint(aosi::Epoch to) {
  if (options_.data_dir.empty()) {
    return Status::FailedPrecondition("no data_dir configured");
  }
  for (const CubeRef& cube : SnapshotCubes()) {
    // Resume from what this cube has durably flushed, NOT from LSE: LSE
    // can be clamped below the manifest by an active snapshot, and
    // re-flushing that range would duplicate rows on recovery.
    const aosi::Epoch from = cube.flusher->ManifestLse();
    if (aosi::AtOrBefore(to, from)) continue;
    auto stats = cube.flusher->FlushRound(cube.table, from, to);
    if (!stats.ok()) return stats.status();
  }
  return Status::OK();
}

Result<aosi::Epoch> NodeEngine::RecoverLocal() {
  if (options_.data_dir.empty()) {
    return Status::FailedPrecondition("no data_dir configured");
  }
  const std::vector<CubeRef> cubes = SnapshotCubes();
  aosi::Epoch min_lse = aosi::kEpochMax;
  for (const CubeRef& cube : cubes) {
    auto result = cube.flusher->Recover(cube.table);
    if (!result.ok()) return result.status();
    min_lse = aosi::MinEpoch(min_lse, result->lse);
  }
  if (aosi::SameEpoch(min_lse, aosi::kEpochMax)) return aosi::kNoEpoch;
  for (const CubeRef& cube : cubes) {
    cube.table->TruncateAfter(min_lse);
  }
  return min_lse;
}

aosi::Epoch NodeEngine::MinFlushedLse() {
  if (options_.data_dir.empty()) return aosi::kEpochMax;
  aosi::Epoch min_lse = aosi::kEpochMax;
  for (const CubeRef& cube : SnapshotCubes()) {
    min_lse = aosi::MinEpoch(min_lse, cube.flusher->ManifestLse());
  }
  return min_lse;
}

uint64_t NodeEngine::TotalRecords() {
  uint64_t n = 0;
  for (const CubeRef& cube : SnapshotCubes()) n += cube.table->TotalRecords();
  return n;
}

size_t NodeEngine::DataMemoryUsage() {
  size_t bytes = 0;
  for (const CubeRef& cube : SnapshotCubes()) {
    bytes += cube.table->DataMemoryUsage();
  }
  return bytes;
}

size_t NodeEngine::HistoryMemoryUsage() {
  size_t bytes = 0;
  for (const CubeRef& cube : SnapshotCubes()) {
    bytes += cube.table->HistoryMemoryUsage();
  }
  return bytes;
}

}  // namespace cubrick
