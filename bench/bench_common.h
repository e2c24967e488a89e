// Shared workload generators and reporting helpers for the experiment
// drivers in bench/. Each fig*_ binary prints the one table/figure of the
// paper it is named for (see DESIGN.md §4 and EXPERIMENTS.md), checks its
// results with CUBRICK_CHECK, and writes no file; the committed performance
// record is the ledger (bench/ledger/README.md). Scale knobs default to
// CI-friendly sizes and can be raised with CUBRICK_BENCH_SCALE=<multiplier>.

#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/stopwatch.h"
#include "cubrick/database.h"
#include "engine/table.h"
#include "ingest/parser.h"
#include "obs/metrics.h"
#include "obs/percentile.h"

namespace cubrick::bench {

/// CUBRICK_OBS_DISABLE=1 turns every instrument write into an untaken
/// branch, so the same binary measures the uninstrumented baseline for
/// overhead comparisons (docs/OBSERVABILITY.md). Call first in main().
inline void InitBenchObs() {
  const char* env = std::getenv("CUBRICK_OBS_DISABLE");
  if (env != nullptr && env[0] == '1') obs::SetEnabled(false);
}

/// Scale multiplier from the environment (default 1.0). A malformed or
/// non-positive CUBRICK_BENCH_SCALE aborts the run instead of silently
/// falling back to 1.0 — a typo'd scale would otherwise run the default-size
/// workload and quietly print a table at the wrong scale.
inline double ScaleFactor() {
  const char* env = std::getenv("CUBRICK_BENCH_SCALE");
  if (env == nullptr || env[0] == '\0') return 1.0;
  char* end = nullptr;
  const double v = std::strtod(env, &end);
  if (end == env || *end != '\0' || !(v > 0)) {
    std::fprintf(stderr,
                 "bench: CUBRICK_BENCH_SCALE=\"%s\" is not a positive "
                 "number; refusing to guess a scale\n",
                 env);
    std::exit(2);
  }
  return v;
}

inline uint64_t Scaled(uint64_t base) {
  return static_cast<uint64_t>(static_cast<double>(base) * ScaleFactor());
}

/// Pretty-prints a byte count ("1.5 MB").
inline std::string HumanBytes(double bytes) {
  const char* units[] = {"B", "KB", "MB", "GB", "TB"};
  int u = 0;
  while (bytes >= 1024.0 && u < 4) {
    bytes /= 1024.0;
    ++u;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f %s", bytes, units[u]);
  return buf;
}

inline std::string HumanCount(double n) {
  const char* units[] = {"", "K", "M", "B"};
  int u = 0;
  while (n >= 1000.0 && u < 3) {
    n /= 1000.0;
    ++u;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f%s", n, units[u]);
  return buf;
}

/// The paper's single-column worst case (§VI-A, Fig 6): most concurrency
/// metadata per byte of data. One 16-way partition-key dimension (zero bess
/// bits) plus one int64 metric.
inline Status CreateSingleColumnCube(Database* db, const std::string& name) {
  return db->CreateCube(name, {{"shard_key", 16, 1, false}},
                        {{"value", DataType::kInt64}});
}

/// Generates one batch for the single-column cube.
inline std::vector<Record> SingleColumnBatch(Random* rng, uint64_t rows) {
  std::vector<Record> records;
  records.reserve(rows);
  for (uint64_t i = 0; i < rows; ++i) {
    records.push_back({static_cast<int64_t>(rng->Uniform(16)),
                       static_cast<int64_t>(rng->Next() & 0xffffff)});
  }
  return records;
}

/// The paper's "typical 40 column dataset" (§VI-A, Fig 7): 4 dimensions and
/// 36 metrics (30 int64 + 6 double).
inline Status CreateWideCube(Database* db, const std::string& name) {
  std::vector<DimensionDef> dims = {
      {"region", 64, 8, false},
      {"product", 256, 32, false},
      {"channel", 8, 8, false},
      {"day", 32, 32, false},
  };
  std::vector<MetricDef> metrics;
  for (int i = 0; i < 30; ++i) {
    metrics.push_back({"m_int_" + std::to_string(i), DataType::kInt64});
  }
  for (int i = 0; i < 6; ++i) {
    metrics.push_back({"m_dbl_" + std::to_string(i), DataType::kDouble});
  }
  return db->CreateCube(name, std::move(dims), std::move(metrics));
}

inline std::vector<Record> WideBatch(Random* rng, uint64_t rows) {
  std::vector<Record> records;
  records.reserve(rows);
  for (uint64_t i = 0; i < rows; ++i) {
    Record r;
    r.values.reserve(40);
    r.values.emplace_back(static_cast<int64_t>(rng->Uniform(64)));
    r.values.emplace_back(static_cast<int64_t>(rng->Uniform(256)));
    r.values.emplace_back(static_cast<int64_t>(rng->Uniform(8)));
    r.values.emplace_back(static_cast<int64_t>(rng->Uniform(32)));
    for (int m = 0; m < 30; ++m) {
      r.values.emplace_back(static_cast<int64_t>(rng->Next() & 0xffff));
    }
    for (int m = 0; m < 6; ++m) {
      r.values.emplace_back(rng->NextDouble() * 100.0);
    }
    records.push_back(std::move(r));
  }
  return records;
}

/// True when both results hold the same groups with bit-identical states.
inline bool SameResult(const QueryResult& a, const QueryResult& b) {
  if (a.num_groups() != b.num_groups()) return false;
  auto other = b.groups().begin();
  for (const auto& [key, states] : a.groups()) {
    if (key != other->first || states.size() != other->second.size()) {
      return false;
    }
    for (size_t i = 0; i < states.size(); ++i) {
      const AggState& x = states[i];
      const AggState& y = other->second[i];
      if (x.sum != y.sum || x.count != y.count || x.min != y.min ||
          x.max != y.max) {
        return false;
      }
    }
    ++other;
  }
  return true;
}

/// p50 latencies (µs) of one query under SI and RU.
struct SiRuLatencies {
  double si = 0;
  double ru = 0;
};

/// Times `reps` alternating rounds of `run(mode)`, SI then RU, after one
/// warm-up per mode. Every SI rep builds the bitmaps its bricks need, as
/// the paper builds one per query (§III-C3), and must return the warm-up's
/// result.
template <typename RunFn>
SiRuLatencies MeasureSiRu(const RunFn& run, int reps) {
  const auto first = run(ScanMode::kSnapshotIsolation);
  CUBRICK_CHECK(first.ok());
  CUBRICK_CHECK(run(ScanMode::kReadUncommitted).ok());
  obs::LatencyRecorder si_rec, ru_rec;
  for (int i = 0; i < reps; ++i) {
    Stopwatch t1;
    const auto si = run(ScanMode::kSnapshotIsolation);
    si_rec.Record(t1.ElapsedMicros());
    CUBRICK_CHECK(si.ok() && SameResult(*si, *first));
    Stopwatch t2;
    CUBRICK_CHECK(run(ScanMode::kReadUncommitted).ok());
    ru_rec.Record(t2.ElapsedMicros());
  }
  return {static_cast<double>(si_rec.Percentile(50)),
          static_cast<double>(ru_rec.Percentile(50))};
}

/// `latency` over `ru`, in percent.
inline double OverheadPct(double latency, double ru) {
  return ru == 0 ? 0.0 : 100.0 * (latency - ru) / ru;
}

/// The canonical aggregation query used by the SI-vs-RU experiments: sum +
/// count of the first metric grouped by the first dimension.
inline cubrick::Query AggregationQuery(bool grouped = true) {
  cubrick::Query q;
  if (grouped) q.group_by = {0};
  q.aggs = {{AggSpec::Fn::kSum, 0}, {AggSpec::Fn::kCount, 0}};
  return q;
}

}  // namespace cubrick::bench
