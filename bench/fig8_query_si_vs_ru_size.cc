// Figure 8 — Query latency: Snapshot Isolation vs Read Uncommitted,
// as a function of dataset size.
//
// Paper setup (§VI-B): a single thread runs the same query repeatedly,
// alternating between SI (epochs-vector bitmap generation + pendingTxs
// bookkeeping) and best-effort RU (scan everything). The gap between the
// two series is the CPU cost of enforcing SI, which the paper reports as
// minor. Expected shape: both latencies grow linearly with dataset size;
// SI tracks RU within a few percent.
//
// Two SI columns: warm repeats the query over the bricks' visibility-bitmap
// caches as the paper's loop would, cold empties every cache before each
// rep (outside the timed window), as a query after a load finds them. The
// paper builds a bitmap per query (§III-C3); the cache is this
// reproduction's (DESIGN.md §4c). Every load here is committed before the
// reader begins, so the reader sees every brick whole and needs no bitmap.

#include <cinttypes>

#include "bench_common.h"

using namespace cubrick;
using namespace cubrick::bench;

int main() {
  InitBenchObs();
  const std::vector<uint64_t> kSizes = {
      Scaled(10'000), Scaled(50'000), Scaled(100'000), Scaled(250'000),
      Scaled(500'000)};
  const uint64_t kRowsPerTxn = 10'000;
  const int kReps = 41;

  std::printf(
      "Figure 8: query latency SI vs RU, growing dataset "
      "(same aggregation, alternating modes, single thread)\n\n");
  std::printf("%12s %10s %12s %14s %12s %10s %14s\n", "rows", "txns",
              "si_p50_us", "si_cold_p50_us", "ru_p50_us", "overhead",
              "cold_overhead");

  for (uint64_t size : kSizes) {
    Database db;  // inline shards: single-threaded latency measurement
    CUBRICK_CHECK(CreateSingleColumnCube(&db, "t").ok());
    Random rng(42);
    uint64_t loaded = 0;
    uint64_t txns = 0;
    while (loaded < size) {
      const uint64_t n = std::min(kRowsPerTxn, size - loaded);
      CUBRICK_CHECK(db.Load("t", SingleColumnBatch(&rng, n)).ok());
      loaded += n;
      ++txns;
    }

    const cubrick::Query q = AggregationQuery();
    // Alternate SI and RU within the same run, exactly as the paper's
    // single-thread experiment does.
    const SiRuLatencies lat = MeasureSiRu(
        &db, "t", [&](ScanMode mode) { return db.Query("t", q, mode); },
        kReps);
    std::printf("%12" PRIu64 " %10" PRIu64 " %12.0f %14.0f %12.0f %9.2f%% "
                "%13.2f%%\n",
                size, txns, lat.si, lat.si_cold, lat.ru,
                OverheadPct(lat.si, lat.ru), OverheadPct(lat.si_cold, lat.ru));
    std::fflush(stdout);
  }
  std::printf(
      "\nShape check: SI latency should track RU within a small margin — "
      "the paper reports the SI overhead as minor.\n");
  return 0;
}
