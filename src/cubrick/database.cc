#include "cubrick/database.h"

#include <chrono>

#include "common/logging.h"

namespace cubrick {

Database::Database(DatabaseOptions options)
    : options_(std::move(options)), engine_(options_) {
  if (options_.online_check) {
    online_checker_ = std::make_unique<check::OnlineChecker>();
    online_checker_->Install();
  }
  if (options_.auto_checkpoint_interval_ms > 0) {
    CUBRICK_CHECK(!options_.data_dir.empty());
    flusher_thread_ = std::thread([this] { CheckpointLoop(); });
  }
}

Database::~Database() {
  if (flusher_thread_.joinable()) {
    {
      MutexLock lock(flusher_mutex_);
      stop_flusher_ = true;
    }
    flusher_cv_.NotifyAll();
    flusher_thread_.join();
  }
  // After the flusher is gone no thread of this database is scanning, so
  // the hook can be removed and the ring drained.
  if (online_checker_ != nullptr) online_checker_->Uninstall();
}

void Database::CheckpointLoop() {
  const auto interval =
      std::chrono::milliseconds(options_.auto_checkpoint_interval_ms);
  while (true) {
    {
      MutexLock lock(flusher_mutex_);
      const auto deadline = std::chrono::steady_clock::now() + interval;
      while (!stop_flusher_ &&
             flusher_cv_.WaitUntil(lock, deadline) != std::cv_status::timeout) {
      }
      if (stop_flusher_) return;
    }
    // Checkpoint outside flusher_mutex_ so shutdown never waits on a flush.
    auto result = Checkpoint();
    if (!result.ok()) {
      CUBRICK_LOG(Warning) << "background checkpoint failed: "
                           << result.status().ToString();
    }
  }
}

Status Database::ExecuteDdl(const std::string& ddl) {
  auto stmt = ParseCreateCube(ddl);
  if (!stmt.ok()) return stmt.status();
  return CreateCube(stmt->cube_name, std::move(stmt->dimensions),
                    std::move(stmt->metrics));
}

Status Database::CreateCube(const std::string& name,
                            std::vector<DimensionDef> dimensions,
                            std::vector<MetricDef> metrics) {
  auto schema =
      CubeSchema::Make(name, std::move(dimensions), std::move(metrics));
  if (!schema.ok()) return schema.status();
  return engine_.CreateCube(std::move(schema).value());
}

std::shared_ptr<const CubeSchema> Database::FindSchema(
    const std::string& name) const {
  Table* table = FindTable(name);
  return table == nullptr ? nullptr : table->schema_ptr();
}

Status Database::Load(const std::string& cube,
                      const std::vector<Record>& records,
                      const ParseOptions& options) {
  aosi::Txn txn = Begin();
  auto parsed = engine_.Parse(cube, records, options);
  if (!parsed.ok()) {
    (void)txns().Rollback(txn);
    return parsed.status();
  }
  const Status append =
      engine_.Append(txn.epoch, cube, std::move(parsed->batches));
  if (!append.ok()) {
    (void)Rollback(txn);
    return append;
  }
  return txns().Commit(txn);
}

Result<QueryResult> Database::Query(const std::string& cube,
                                    const cubrick::Query& query,
                                    ScanMode mode) {
  aosi::Txn txn = txns().BeginReadOnly();
  auto result = QueryIn(txn, cube, query, mode);
  txns().EndReadOnly(txn);
  return result;
}

Status Database::DeletePartitions(const std::string& cube,
                                  const std::vector<FilterClause>& filters) {
  aosi::Txn txn = Begin();
  const Status status = DeletePartitionsIn(txn, cube, filters);
  if (!status.ok()) {
    (void)Rollback(txn);
    return status;
  }
  return txns().Commit(txn);
}

aosi::Txn Database::Begin() { return txns().BeginReadWrite(); }
aosi::Txn Database::BeginReadOnly() { return txns().BeginReadOnly(); }

Status Database::Commit(const aosi::Txn& txn) { return txns().Commit(txn); }

Status Database::Rollback(const aosi::Txn& txn) {
  if (!txn.read_only()) engine_.RollbackData(txn.epoch);
  return txns().Rollback(txn);
}

Status Database::LoadIn(const aosi::Txn& txn, const std::string& cube,
                        const std::vector<Record>& records,
                        const ParseOptions& options) {
  if (txn.read_only()) {
    return Status::FailedPrecondition("load in a read-only transaction");
  }
  auto parsed = engine_.Parse(cube, records, options);
  if (!parsed.ok()) return parsed.status();
  return engine_.Append(txn.epoch, cube, std::move(parsed->batches));
}

Result<QueryResult> Database::QueryIn(const aosi::Txn& txn,
                                      const std::string& cube,
                                      const cubrick::Query& query,
                                      ScanMode mode) {
  return engine_.Scan(cube, txn.snapshot(), mode, query);
}

Status Database::DeletePartitionsIn(const aosi::Txn& txn,
                                    const std::string& cube,
                                    const std::vector<FilterClause>& filters) {
  if (txn.read_only()) {
    return Status::FailedPrecondition("delete in a read-only transaction");
  }
  return engine_.DeleteWhere(txn.epoch, cube, filters);
}

Result<std::vector<MaterializedRow>> Database::Select(
    const std::string& cube, const cubrick::Query& query,
    const MaterializeOptions& options) {
  auto table = engine_.GetTable(cube);
  if (!table.ok()) return table.status();
  CUBRICK_RETURN_IF_ERROR(ValidateQuery((*table)->schema(), query));
  aosi::Txn txn = txns().BeginReadOnly();
  auto rows = (*table)->Materialize(
      txn.snapshot(), ScanMode::kSnapshotIsolation, query, options);
  txns().EndReadOnly(txn);
  return rows;
}

Result<FilterClause> Database::EqFilter(const std::string& cube,
                                        const std::string& dimension,
                                        const Value& value) const {
  auto schema = FindSchema(cube);
  if (schema == nullptr) {
    return Status::NotFound("cube '" + cube + "' does not exist");
  }
  auto dim = schema->DimensionIndex(dimension);
  if (!dim.ok()) return dim.status();
  FilterClause clause;
  clause.dim = *dim;
  clause.op = FilterClause::Op::kEq;
  if (schema->dimensions()[*dim].is_string) {
    if (!value.is_string()) {
      return Status::InvalidArgument("dimension '" + dimension +
                                     "' filters need string values");
    }
    auto id = schema->dictionary(*dim)->Encode(value.as_string());
    if (!id.ok()) {
      // Never-ingested value: matches nothing. Encode as an impossible
      // coordinate (cardinality), which no record can carry.
      clause.values = {schema->dimensions()[*dim].cardinality};
      return clause;
    }
    clause.values = {*id};
  } else {
    if (!value.is_int64() || value.as_int64() < 0) {
      return Status::InvalidArgument("dimension '" + dimension +
                                     "' filters need non-negative integers");
    }
    clause.values = {static_cast<uint64_t>(value.as_int64())};
  }
  return clause;
}

Result<FilterClause> Database::RangeFilter(const std::string& cube,
                                           const std::string& dimension,
                                           uint64_t lo, uint64_t hi) const {
  auto schema = FindSchema(cube);
  if (schema == nullptr) {
    return Status::NotFound("cube '" + cube + "' does not exist");
  }
  auto dim = schema->DimensionIndex(dimension);
  if (!dim.ok()) return dim.status();
  if (lo > hi) {
    return Status::InvalidArgument("range lo > hi");
  }
  FilterClause clause;
  clause.dim = *dim;
  clause.op = FilterClause::Op::kRange;
  clause.range_lo = lo;
  clause.range_hi = hi;
  return clause;
}

Result<FilterClause> Database::InFilter(
    const std::string& cube, const std::string& dimension,
    const std::vector<Value>& values) const {
  auto schema = FindSchema(cube);
  if (schema == nullptr) {
    return Status::NotFound("cube '" + cube + "' does not exist");
  }
  auto dim = schema->DimensionIndex(dimension);
  if (!dim.ok()) return dim.status();
  FilterClause clause;
  clause.dim = *dim;
  clause.op = FilterClause::Op::kIn;
  const bool is_string = schema->dimensions()[*dim].is_string;
  for (const Value& value : values) {
    if (is_string) {
      if (!value.is_string()) {
        return Status::InvalidArgument("dimension '" + dimension +
                                       "' filters need string values");
      }
      auto id = schema->dictionary(*dim)->Encode(value.as_string());
      if (id.ok()) clause.values.push_back(*id);
    } else {
      if (!value.is_int64() || value.as_int64() < 0) {
        return Status::InvalidArgument(
            "dimension '" + dimension +
            "' filters need non-negative integers");
      }
      clause.values.push_back(static_cast<uint64_t>(value.as_int64()));
    }
  }
  if (clause.values.empty()) {
    // Nothing can match; encode an impossible coordinate.
    clause.values.push_back(schema->dimensions()[*dim].cardinality);
  }
  return clause;
}

Result<aosi::Epoch> Database::Checkpoint() {
  const aosi::Epoch to = txns().LCE();
  CUBRICK_RETURN_IF_ERROR(engine_.Checkpoint(to));
  const aosi::Epoch lse = txns().TryAdvanceLSE(to);
  PurgeAll();
  return lse;
}

Status Database::Recover() {
  auto lse = engine_.RecoverLocal();
  if (!lse.ok()) return lse.status();
  // Without cubes nothing was replayed, and the counters stay as they are.
  if (!CubeNames().empty()) txns().RestoreAfterRecovery(*lse);
  return Status::OK();
}

}  // namespace cubrick
