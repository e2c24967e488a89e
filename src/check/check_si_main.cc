// check_si: seeded snapshot-isolation stress runner (see stress.h).
//
//   check_si --mode=single|cluster|both --seeds=N --seed0=S --ops=K [-v]
//            [--parallel=P] [--ingest-parallel=P] [--cache] [--online]
//            [--purge-stress] [--simd=scalar|avx2|neon|auto]
//            [--dump-metrics]
//
// Runs N seeds starting at S; each seed derives a configuration via
// MakeSeedConfig and runs the full workload. Exit code 0 when every seed
// passes; on divergence, prints the replayable diagnostic (config line,
// seed, per-thread operation trace) and exits 1.
//
// --parallel=P runs seeds with the morsel-parallel query executor at
// fan-out P (EngineOptions::query_parallelism; every cluster node's engine
// in cluster mode); the oracle comparison is unchanged because the
// workload's metric values are small integers, so aggregation is exact
// regardless of merge order.
//
// --ingest-parallel=P runs seeds with the morsel-parallel ingest pipeline
// at fan-out P (EngineOptions::ingest_parallelism; DESIGN.md §4f; in
// cluster mode the coordinator parses with it). The two-phase dictionary
// encode makes parallel parse output bit-identical to serial — ids depend
// only on prior dictionary state plus the set of new strings — so the
// oracle comparison is unchanged; the flag exists to race snapshot
// publication, sorted batch inserts and group shard appends against scans,
// purge and recovery.
//
// --cache runs single-node seeds with the per-brick visibility-bitmap
// cache enabled (EngineOptions::query_visibility_cache; DESIGN.md §4c).
// The cache memoizes exactly the bitmap the uncached path would build, so
// the oracle comparison is unchanged; the flag exists to drive the cache's
// atomic publish/lookup/invalidate machinery under the stress mix —
// combine with --parallel=P so concurrent morsel workers hit the slots.
// Cluster seeds ignore it: cluster nodes keep the engine default (cache
// on), so cluster seed replays do not depend on the flag.
//
// --purge-stress runs single-node seeds with a dedicated purge thread
// looping the concurrent phased purge pipeline (engine/table.cc) for the
// whole workload, so compaction installs, vis-cache invalidations and EBR
// retirement race live scans continuously instead of only at maintenance
// ops. Purge never touches history above the LSE, so the oracle comparison
// is unchanged. Combine with --cache --parallel=P --online for the full
// reclamation surface. Cluster seeds ignore it.
//
// --simd=B forces the scan-kernel SIMD backend (common/simd.h) for the
// whole run. Kernel results are bit-identical across backends by contract,
// so the oracle comparison is unchanged; the flag exists so CI can prove
// serial==parallel==cached equivalence under every dispatch target
// (ctest check_si_single_simd_scalar*).
//
// --online additionally installs the online SI checker (online_checker.h)
// for every seed: sampled transactions and scans are validated against the
// visibility rules while the workload runs, and any violation the checker
// records fails the seed exactly like an oracle divergence — each --online
// run therefore cross-checks the online checker against the offline oracle.
//
// --dump-metrics prints the Prometheus exposition of the metrics registry
// after all seeds finish — the stress harness doubles as a concurrent-writer
// workout for the observability layer, and the dump proves the snapshot
// stays consistent under it. With --parallel=P > 1 the dump additionally
// carries the pool.* gauges/counters and the query.worker_scan_us /
// query.parallel_merge_us histograms, and query.bitmap_density_permille
// shows up as a histogram (docs/OBSERVABILITY.md).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "check/stress.h"
#include "common/simd.h"
#include "obs/export.h"
#include "obs/metrics.h"

namespace {

struct Args {
  std::string mode = "both";
  uint64_t seeds = 20;
  uint64_t seed0 = 1;
  int ops = 0;  // 0: keep MakeSeedConfig default
  int parallel = 0;  // 0: keep MakeSeedConfig default (serial)
  int ingest_parallel = 0;  // 0: keep MakeSeedConfig default (serial)
  bool cache = false;  // MakeSeedConfig default stays uncached
  bool online = false;  // install the online SI checker per seed
  bool purge_stress = false;  // dedicated concurrent-purge thread per seed
  std::string simd;  // empty: keep the process default backend
  bool verbose = false;
  bool dump_metrics = false;
};

bool ParseFlag(const char* arg, const char* name, const char** value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const char* value = nullptr;
    if (ParseFlag(argv[i], "--mode", &value)) {
      args.mode = value;
    } else if (ParseFlag(argv[i], "--seeds", &value)) {
      args.seeds = std::strtoull(value, nullptr, 10);
    } else if (ParseFlag(argv[i], "--seed0", &value)) {
      args.seed0 = std::strtoull(value, nullptr, 10);
    } else if (ParseFlag(argv[i], "--ops", &value)) {
      args.ops = std::atoi(value);
    } else if (ParseFlag(argv[i], "--parallel", &value)) {
      args.parallel = std::atoi(value);
    } else if (ParseFlag(argv[i], "--ingest-parallel", &value)) {
      args.ingest_parallel = std::atoi(value);
    } else if (std::strcmp(argv[i], "--cache") == 0) {
      args.cache = true;
    } else if (std::strcmp(argv[i], "--online") == 0) {
      args.online = true;
    } else if (std::strcmp(argv[i], "--purge-stress") == 0) {
      args.purge_stress = true;
    } else if (ParseFlag(argv[i], "--simd", &value)) {
      args.simd = value;
    } else if (std::strcmp(argv[i], "-v") == 0 ||
               std::strcmp(argv[i], "--verbose") == 0) {
      args.verbose = true;
    } else if (std::strcmp(argv[i], "--dump-metrics") == 0) {
      args.dump_metrics = true;
    } else {
      std::fprintf(stderr,
                   "unknown argument: %s\n"
                   "usage: check_si [--mode=single|cluster|both] [--seeds=N] "
                   "[--seed0=S] [--ops=K] [--parallel=P] "
                   "[--ingest-parallel=P] [--cache] [--online] "
                   "[--purge-stress] [--simd=B] [-v] [--dump-metrics]\n",
                   argv[i]);
      std::exit(2);
    }
  }
  if (args.mode != "single" && args.mode != "cluster" &&
      args.mode != "both") {
    std::fprintf(stderr, "bad --mode=%s\n", args.mode.c_str());
    std::exit(2);
  }
  return args;
}

/// Runs one seed in one mode; returns false (after printing the full
/// diagnostic) on divergence.
bool RunOne(const Args& args, uint64_t seed, bool cluster) {
  cubrick::check::StressOptions opt =
      cubrick::check::MakeSeedConfig(seed, cluster);
  if (args.ops > 0) opt.ops_per_thread = args.ops;
  if (args.parallel > 0) {
    opt.query_parallelism = static_cast<size_t>(args.parallel);
  }
  if (args.ingest_parallel > 0) {
    opt.ingest_parallelism = static_cast<size_t>(args.ingest_parallel);
  }
  if (args.cache) opt.visibility_cache = true;
  if (args.online) opt.online_check = true;
  if (args.purge_stress && !cluster) opt.purge_stress = true;
  const cubrick::check::StressReport report =
      cluster ? cubrick::check::RunClusterStress(opt)
              : cubrick::check::RunSingleNodeStress(opt);
  if (!report.ok()) {
    std::fprintf(stderr, "\n=== FAIL: %s seed %llu ===\n",
                 cluster ? "cluster" : "single",
                 static_cast<unsigned long long>(seed));
    for (const std::string& failure : report.failures) {
      std::fprintf(stderr, "%s\n", failure.c_str());
    }
    return false;
  }
  if (args.verbose) {
    std::printf("%s seed %llu ok: %s\n", cluster ? "cluster" : "single",
                static_cast<unsigned long long>(seed),
                report.Summary().c_str());
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  if (!args.simd.empty()) {
    cubrick::simd::ConfigureFromString(args.simd.c_str());
    std::printf("[check_si] simd backend: %s\n",
                cubrick::simd::ActiveBackendName());
  }
  const bool run_single = args.mode == "single" || args.mode == "both";
  const bool run_cluster = args.mode == "cluster" || args.mode == "both";
  uint64_t passed = 0;
  for (uint64_t i = 0; i < args.seeds; ++i) {
    const uint64_t seed = args.seed0 + i;
    if (run_single && !RunOne(args, seed, /*cluster=*/false)) return 1;
    if (run_cluster && !RunOne(args, seed, /*cluster=*/true)) return 1;
    ++passed;
    if (!args.verbose && passed % 25 == 0) {
      std::printf("[check_si] %llu/%llu seeds ok\n",
                  static_cast<unsigned long long>(passed),
                  static_cast<unsigned long long>(args.seeds));
      std::fflush(stdout);
    }
  }
  std::printf("[check_si] PASS: %llu seeds, mode=%s\n",
              static_cast<unsigned long long>(passed), args.mode.c_str());
  if (args.dump_metrics) {
    const cubrick::obs::MetricsSnapshot snap =
        cubrick::obs::MetricsRegistry::Global().Snapshot();
    std::printf("\n%s", cubrick::obs::ExportPrometheus(snap).c_str());
  }
  return 0;
}
