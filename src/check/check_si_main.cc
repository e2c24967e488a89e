// check_si: seeded snapshot-isolation stress runner (see stress.h).
//
//   check_si --mode=single|cluster|both --seeds=N --seed0=S --ops=K [-v]
//            [--dump-metrics]
//
// Runs N seeds starting at S; each seed derives its whole configuration
// (engine options, persistence, online checker, purge stress, cluster
// shape) via MakeSeedConfig and runs the full workload. Exit code 0 when
// every seed passes; on divergence, prints the replayable diagnostic
// (config line, replay command, per-thread operation trace) and exits 1.
// Bad arguments print the usage line and exit 2.
//
// --dump-metrics prints the Prometheus exposition of the metrics registry
// after all seeds finish — the stress harness doubles as a concurrent-writer
// workout for the observability layer, and the dump proves the snapshot
// stays consistent under it. Seeds with scan fan-out > 1 add the pool.*
// gauges/counters and the query.worker_scan_us / query.parallel_merge_us
// histograms (docs/OBSERVABILITY.md).

#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "check/stress.h"
#include "obs/export.h"
#include "obs/metrics.h"

namespace {

struct Args {
  std::string mode = "both";
  uint64_t seeds = 20;
  uint64_t seed0 = 1;
  int ops = 0;  // 0: keep MakeSeedConfig default
  bool verbose = false;
  bool dump_metrics = false;
};

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "%s\n"
               "usage: check_si [--mode=single|cluster|both] [--seeds=N] "
               "[--seed0=S] [--ops=K] [-v] [--dump-metrics]\n",
               error.c_str());
  std::exit(2);
}

bool ParseFlag(const char* arg, const char* name, const char** value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

/// A decimal count no larger than `max`: digits only, so "abc", "-1", ""
/// and "4x" are rejected instead of read as 0 or truncated.
uint64_t ParseCount(const char* flag, const char* value, uint64_t max) {
  char* end = nullptr;
  errno = 0;
  const uint64_t n = std::strtoull(value, &end, 10);
  if (value[0] < '0' || value[0] > '9' || *end != '\0' || errno != 0 ||
      n > max) {
    Usage(std::string("bad ") + flag + "=" + value);
  }
  return n;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const char* value = nullptr;
    if (ParseFlag(argv[i], "--mode", &value)) {
      args.mode = value;
      if (args.mode != "single" && args.mode != "cluster" &&
          args.mode != "both") {
        Usage(std::string("bad --mode=") + value);
      }
    } else if (ParseFlag(argv[i], "--seeds", &value)) {
      args.seeds = ParseCount("--seeds", value, UINT64_MAX);
      if (args.seeds == 0) Usage("--seeds must be at least 1");
    } else if (ParseFlag(argv[i], "--seed0", &value)) {
      args.seed0 = ParseCount("--seed0", value, UINT64_MAX);
    } else if (ParseFlag(argv[i], "--ops", &value)) {
      args.ops = static_cast<int>(ParseCount("--ops", value, INT_MAX));
    } else if (std::strcmp(argv[i], "-v") == 0 ||
               std::strcmp(argv[i], "--verbose") == 0) {
      args.verbose = true;
    } else if (std::strcmp(argv[i], "--dump-metrics") == 0) {
      args.dump_metrics = true;
    } else {
      Usage(std::string("unknown argument: ") + argv[i]);
    }
  }
  return args;
}

/// Runs one seed in one mode; returns false (after printing the full
/// diagnostic) on divergence.
bool RunOne(const Args& args, uint64_t seed, bool cluster) {
  cubrick::check::StressOptions opt =
      cubrick::check::MakeSeedConfig(seed, cluster);
  if (args.ops > 0) opt.ops_per_thread = args.ops;
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
