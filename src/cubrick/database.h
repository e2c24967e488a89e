// Database: the single-node public API of the Cubrick/AOSI engine.
//
// A thin facade over one NodeEngine (cubrick/node_engine.h), which holds
// the transaction manager, the cubes and every per-node operation. On top
// of it Database adds what only a standalone node needs: the operation set
// of §III-A as implicit single-operation transactions or inside explicit
// transactions the caller begins/commits/rolls back, CREATE CUBE text,
// filter builders over user-facing values, row-wise Select, a background
// checkpoint thread, and the process-global online SI checker (the SIMD
// backend is the best the CPU supports; see common/simd.h). Persistence is
// a checkpoint (flush round + LSE advance) against a data directory, with
// crash recovery on startup.
//
// For the distributed deployment use cluster::Cluster, whose nodes are the
// same NodeEngine behind a simulated message bus.

#pragma once

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "check/online_checker.h"
#include "common/mutex.h"
#include "cubrick/ddl.h"
#include "cubrick/node_engine.h"
#include "query/query.h"

namespace cubrick {

struct DatabaseOptions : EngineOptions {
  DatabaseOptions() { shards_per_cube = 2; }

  /// Period of the background flush/purge thread; 0 disables it. Requires
  /// data_dir.
  int64_t auto_checkpoint_interval_ms = 0;
  /// Installs the online SI checker (src/check/online_checker.h) for this
  /// database's lifetime: sampled transactions and scans are validated
  /// against the §III-B/C visibility rules while the system runs, with
  /// violations and health published as check.online.* metrics. Every
  /// transaction is sampled (OnlineCheckerOptions' default). Process-
  /// global hook — at most one Database (or manually installed checker)
  /// may enable it at a time.
  bool online_check = false;
};

class Database {
 public:
  explicit Database(DatabaseOptions options = {});
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // --- DDL ---------------------------------------------------------------

  /// Executes a CREATE CUBE statement.
  Status ExecuteDdl(const std::string& ddl);
  Status CreateCube(const std::string& name,
                    std::vector<DimensionDef> dimensions,
                    std::vector<MetricDef> metrics);
  Status DropCube(const std::string& name) { return engine_.DropCube(name); }

  std::shared_ptr<const CubeSchema> FindSchema(const std::string& name) const;
  Table* FindTable(const std::string& name) const {
    return engine_.FindTable(name);
  }

  // --- Implicit transactions (one operation, auto commit) -----------------

  /// Loads a batch in one implicit RW transaction. The parse and flush
  /// stages are timed into ingest.parse_us / ingest.flush_us.
  Status Load(const std::string& cube, const std::vector<Record>& records,
              const ParseOptions& options = {});

  /// Runs a query in one implicit RO transaction (at LCE).
  Result<QueryResult> Query(const std::string& cube,
                            const cubrick::Query& query,
                            ScanMode mode = ScanMode::kSnapshotIsolation);

  /// Deletes all partitions fully covered by `filters` in one implicit RW
  /// transaction.
  Status DeletePartitions(const std::string& cube,
                          const std::vector<FilterClause>& filters);

  // --- Explicit transactions ----------------------------------------------

  aosi::Txn Begin();
  aosi::Txn BeginReadOnly();
  Status Commit(const aosi::Txn& txn);
  /// Aborts and physically removes the transaction's appends everywhere.
  Status Rollback(const aosi::Txn& txn);

  Status LoadIn(const aosi::Txn& txn, const std::string& cube,
                const std::vector<Record>& records,
                const ParseOptions& options = {});
  Result<QueryResult> QueryIn(const aosi::Txn& txn, const std::string& cube,
                              const cubrick::Query& query,
                              ScanMode mode = ScanMode::kSnapshotIsolation);
  Status DeletePartitionsIn(const aosi::Txn& txn, const std::string& cube,
                            const std::vector<FilterClause>& filters);

  /// Row-wise point reads (SELECT-style): materializes up to
  /// `options.limit` visible rows matching the query's filters, with string
  /// columns decoded. Implicit RO transaction. InvalidArgument for a query
  /// that fails ValidateQuery.
  Result<std::vector<MaterializedRow>> Select(
      const std::string& cube, const cubrick::Query& query,
      const MaterializeOptions& options = {});

  // --- Filters over user-facing values ------------------------------------

  /// Builds an equality filter, translating string values through the
  /// dimension's dictionary. A string value never ingested yields a filter
  /// matching nothing.
  Result<FilterClause> EqFilter(const std::string& cube,
                                const std::string& dimension,
                                const Value& value) const;

  /// Builds a coordinate-range filter over an integer dimension.
  Result<FilterClause> RangeFilter(const std::string& cube,
                                   const std::string& dimension, uint64_t lo,
                                   uint64_t hi) const;

  /// Builds an IN-list filter; each value is translated like EqFilter.
  /// Values never ingested are dropped from the list (they can't match).
  Result<FilterClause> InFilter(const std::string& cube,
                                const std::string& dimension,
                                const std::vector<Value>& values) const;

  // --- Maintenance ---------------------------------------------------------

  /// Flushes every cube up to the current LCE, advances LSE, and purges.
  /// Returns the new LSE. Requires a data_dir.
  Result<aosi::Epoch> Checkpoint();

  /// Runs the purge procedure on every cube at the current LSE, concurrently
  /// with scans (Table::Purge).
  PurgeStats PurgeAll() { return engine_.Purge(); }

  /// Replays flush segments from data_dir into the (freshly created) cubes
  /// and restores the epoch counters. Call after recreating schemas via
  /// DDL on a fresh Database. Data from flush rounds that did not complete
  /// on every cube is truncated for cross-cube consistency.
  Status Recover();

  // --- Introspection -------------------------------------------------------

  aosi::TxnManager& txns() { return engine_.txns(); }
  /// The online checker, or nullptr when options.online_check is off.
  check::OnlineChecker* online_checker() { return online_checker_.get(); }
  uint64_t TotalRecords() { return engine_.TotalRecords(); }
  size_t DataMemoryUsage() { return engine_.DataMemoryUsage(); }
  size_t HistoryMemoryUsage() { return engine_.HistoryMemoryUsage(); }
  std::vector<std::string> CubeNames() const { return engine_.CubeNames(); }

 private:
  /// Body of the background checkpoint thread (§III-D: "disk flushes are
  /// constantly being executed in the background").
  void CheckpointLoop();

  const DatabaseOptions options_;
  std::unique_ptr<check::OnlineChecker> online_checker_;
  NodeEngine engine_;

  Mutex flusher_mutex_;
  CondVar flusher_cv_;
  bool stop_flusher_ GUARDED_BY(flusher_mutex_) = false;
  std::thread flusher_thread_;
};

}  // namespace cubrick
