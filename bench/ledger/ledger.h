// Performance ledger: four fixed-seed Cubrick workloads measured end to end
// (README.md). The workloads, the data generator, the correctness checks and
// the reporting live in workloads.cc and are shared by two binaries that
// differ only in how a request reaches the engine:
//
//   * `ledger` (facade.cc) issues every request through the public Database
//     and Cluster facades, so a refactor of the layers below cannot change
//     what the end-to-end numbers mean;
//   * `ledger_trace` (traced.cc) issues the facade's own sequence of
//     layer-level calls, times each call, and turns those timings plus
//     registry deltas into per-layer metrics.

#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cubrick/database.h"

namespace ledger {

using Clock = std::chrono::steady_clock;

inline constexpr const char* kCube = "ledger";

/// Pinned engine configuration (README.md, "Pinned configuration").
inline constexpr size_t kShardsPerCube = 4;
inline constexpr size_t kQueryParallelism = 4;
/// `--ingest-parallelism` overrides it only for sensitivity checks.
inline constexpr size_t kIngestParallelism = 4;

inline cubrick::DatabaseOptions NodeOptions(const std::string& data_dir,
                                            size_t ingest_parallelism) {
  cubrick::DatabaseOptions options;
  options.shards_per_cube = kShardsPerCube;
  options.threaded_shards = true;
  options.query_parallelism = kQueryParallelism;
  options.ingest_parallelism = ingest_parallelism;
  options.data_dir = data_dir;
  return options;
}

inline cubrick::cluster::ClusterOptions ClusterOptions() {
  cubrick::cluster::ClusterOptions options;
  options.num_nodes = 4;
  options.shards_per_cube = 2;
  options.threaded_shards = true;
  options.replication_factor = 2;
  options.message_latency_us = 100;
  return options;
}

/// Creates the ledger cube: four dimensions giving 8 x 8 x 1 x 8 = 512
/// bricks, 12 int64 and 4 double metrics.
cubrick::Status CreateCube(cubrick::Database* db);
cubrick::Status CreateCube(cubrick::cluster::Cluster* cluster);

inline double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);

/// One printed metric: `workload name value unit n=<samples>`.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
};

/// What one workload run produced: its metrics, its operation tally and the
/// correctness verdict.
struct Report {
  std::string workload;
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples) {
    metrics.push_back({name, value, unit, samples});
  }
  /// Records a failed correctness check; the run exits non-zero.
  void Fail(const std::string& why);
};

/// One single-node engine with the ledger cube, as the workloads drive it.
class Node {
 public:
  virtual ~Node() = default;
  virtual cubrick::Database& db() = 0;
  /// One implicit RW transaction appending `records`.
  virtual cubrick::Status Load(const std::vector<cubrick::Record>& records) = 0;
  /// One implicit RO transaction.
  virtual cubrick::Result<cubrick::QueryResult> Query(
      const cubrick::Query& query) = 0;
  virtual cubrick::Status DeletePartitions(
      const std::vector<cubrick::FilterClause>& filters) = 0;
  /// Flush round, LSE advance and purge. Needs a data directory.
  virtual cubrick::Status Checkpoint() = 0;
};

/// A 4-node cluster with the ledger cube, as the workloads drive it.
class ClusterTarget {
 public:
  virtual ~ClusterTarget() = default;
  virtual cubrick::cluster::Cluster& cluster() = 0;
  /// BeginReadWrite -> Append -> Commit, coordinated by `coordinator`.
  virtual cubrick::Status Load(uint32_t coordinator,
                               const std::vector<cubrick::Record>& records) = 0;
  /// One implicit RO query coordinated by `coordinator`.
  virtual cubrick::Result<cubrick::QueryResult> Query(
      uint32_t coordinator, const cubrick::Query& query) = 0;
};

/// Builds the engines the workloads run on. The traced backend also times
/// every call it issues and reports per-layer metrics at the end.
class Backend {
 public:
  virtual ~Backend() = default;
  /// A fresh engine with the cube created; an empty `data_dir` is diskless.
  virtual std::unique_ptr<Node> OpenNode(const std::string& data_dir) = 0;
  /// A restart: a fresh engine, the cube re-created, `data_dir` recovered.
  virtual cubrick::Result<std::unique_ptr<Node>> RecoverNode(
      const std::string& data_dir) = 0;
  virtual std::unique_ptr<ClusterTarget> OpenCluster() = 0;
  /// The measured window opens: what was issued before it is set-up.
  virtual void StartWindow() {}
  /// The workload is over; adds per-layer metrics to `report`.
  virtual void Finish(Report* /*report*/) {}
};

/// Defined by facade.cc (`ledger`) or traced.cc (`ledger_trace`).
std::unique_ptr<Backend> MakeBackend(size_t ingest_parallelism);
/// True in `ledger_trace`.
bool Traced();

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15;
  /// About 2% of the default scale, for the ctest smoke run.
  bool smoke = false;
  /// Scratch root for flush segments (the `mixed` workload).
  std::string data_dir;
  size_t ingest_parallelism = kIngestParallelism;
};

inline const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"ingest", "scan", "mixed",
                                                 "cluster"};
  return names;
}

/// Runs one workload in this process.
Report RunWorkload(const RunConfig& config, Backend* backend);

}  // namespace ledger
