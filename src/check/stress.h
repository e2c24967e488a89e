// Deterministic snapshot-isolation stress harness.
//
// Runs a seeded mix of concurrent append / delete / read transactions,
// rollbacks, purge cycles and checkpoint/recovery against a system under
// test — single-node cubrick::Database or cluster::Cluster — while logging
// every logical operation into an SiOracle (si_oracle.h). Every query the
// workload issues (read-only snapshots, reads inside open RW transactions,
// post-recovery reads) is diffed against the oracle's answer for the exact
// same snapshot; any divergence is an SI violation and produces a replayable
// report: the seed, the derived configuration, and the interleaved per-thread
// operation trace.
//
// Determinism: each worker's full operation plan — op kinds, record
// batches, queries, delete predicates, coordinator choices, commit/abort
// coin flips — is pre-generated from (seed, thread id) on the main thread
// before any worker launches. No RNG is consulted while threads run, and no
// draw is conditional on runtime state (a rejected delete decides whether a
// pre-drawn batch is *used*, never whether it was *drawn*), so a failing
// seed re-runs the bit-identical workload regardless of scheduler, sanitizer
// or machine. The thread interleaving itself remains scheduler-dependent —
// that is the point: the oracle comparison is interleaving-independent
// because visibility under AOSI is a pure function of (epoch, deps) and the
// per-epoch operation sets.
//
// Oracle/engine ordering contract (what makes the comparison race-free):
//   * a transaction's operations are logged to the oracle before it commits
//     (nothing can see an epoch before its commit), and removed from the
//     oracle before the engine finalizes its abort;
//   * writers hold a shared structure lock; partition deletes hold it
//     exclusively while capturing the engine's covered-brick set, so the
//     oracle's delete scope is byte-identical to the engine's.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cubrick/database.h"

namespace cubrick::check {

struct StressOptions {
  uint64_t seed = 1;
  int threads = 4;
  int ops_per_thread = 100;
  /// The engine configuration of the Database, or of every cluster node;
  /// leave data_dir empty (with_persistence gives the run its own scratch
  /// directory). Scan fan-out cannot change an answer the oracle diffs:
  /// workload metric values are small integers, so double aggregation is
  /// exact in any merge order.
  EngineOptions engine;
  /// Enables checkpoint operations in the mix plus a crash/recovery epilogue
  /// validated against the oracle.
  bool with_persistence = false;
  /// Installs the online SI checker (online_checker.h) for the duration of
  /// the run — single-node via DatabaseOptions::online_check, cluster via a
  /// harness-owned checker spanning workload and epilogues. Any violation
  /// the checker records becomes a report failure, so the online checker is
  /// itself cross-checked against the offline oracle.
  bool online_check = false;
  /// Runs a dedicated purge thread for the whole workload (single-node
  /// mode): it loops LSE advance + Database::PurgeAll() — one shard op per
  /// brick with work (engine/table.cc) — under the shared structure lock
  /// while workers append, delete and scan, and beside the maintenance
  /// ops' own purge rounds. Purge only compacts history at or below the
  /// LSE, which every live snapshot is at or past, so the oracle
  /// comparison is unchanged; what it adds is scans and appends
  /// interleaving with the compaction ops, and two rounds overlapping on
  /// one table, one erasing bricks the other listed.
  bool purge_stress = false;
  /// Runs the scans on the scalar reference kernels instead of Detect()'s
  /// backend, switched with simd::SetBackend for the run. The backends are
  /// bit-identical by contract (DESIGN.md §4e), so the oracle diff checks
  /// the scalar kernels end to end.
  bool scalar_kernels = false;
  /// Some committed appends also load 64 to 191 records into one brick, so
  /// scans meet dense bitmap words: the vector filter kernels and bitmap
  /// range writes that span words run against the oracle. The plan draws
  /// these loads only when the flag is set, so seeds without it keep the
  /// plans they always had.
  bool dense_loads = false;
  /// Cluster mode only.
  uint32_t num_nodes = 3;
  size_t replication_factor = 2;
  uint32_t message_latency_us = 0;
  /// Root for per-seed persistence scratch directories; empty uses the
  /// system temp directory. Always cleaned up.
  std::string scratch_dir;
};

struct StressReport {
  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t deletes = 0;
  uint64_t delete_rejects = 0;
  uint64_t queries = 0;
  uint64_t ryw_queries = 0;
  uint64_t maintenance = 0;
  uint64_t checkpoints = 0;
  /// Rounds completed by the dedicated purge thread (purge_stress only).
  uint64_t purge_rounds = 0;
  uint64_t records_appended = 0;
  /// Empty on success; each entry is a full replayable diagnostic.
  std::vector<std::string> failures;

  bool ok() const { return failures.empty(); }
  void MergeCounters(const StressReport& other);
  std::string Summary() const;
};

/// Derives the whole configuration from `seed`: thread count, the engine
/// options (shard count, threaded vs inline shards, rollback index, scan
/// fan-out), persistence, the online checker, purge stress
/// (single node), replication factor and simulated latency (cluster), the
/// scan kernels and the one-brick dense loads.
/// Each setting is an independent draw from Random(seed), so a seed sweep
/// covers the configuration matrix and a seed alone replays its run.
StressOptions MakeSeedConfig(uint64_t seed, bool cluster);

/// What a run configures its system under test with: `options.engine`
/// sliced in whole, plus the mode's own fields. The runner adds the
/// scratch data_dir when options.with_persistence.
DatabaseOptions ToDatabaseOptions(const StressOptions& options);
cluster::ClusterOptions ToClusterOptions(const StressOptions& options);

/// Runs the workload against cubrick::Database (with a crash+Recover()
/// epilogue when options.with_persistence). Sets the SIMD backend
/// options.scalar_kernels picks and restores the previous one on return.
StressReport RunSingleNodeStress(const StressOptions& options);

/// Runs the workload against cluster::Cluster (with a CrashNode/RecoverNode
/// epilogue when options.with_persistence && replication_factor >= 2).
/// Sets the SIMD backend as RunSingleNodeStress does.
StressReport RunClusterStress(const StressOptions& options);

}  // namespace cubrick::check
