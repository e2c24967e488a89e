// Figure 9 — Query latency: SI vs RU under transactional-history pressure.
//
// Second §VI-B experiment: the dataset size is fixed, but the number of
// transactions that loaded it (and hence epochs-vector entries) and the
// number of still-pending transactions at query time vary. SI pays for
// (a) walking the epochs vector to build the visibility bitmap and
// (b) testing epochs against the deps set; RU pays for neither.
// Expected shape: SI overhead grows mildly with entries/pending count but
// stays a small fraction of total scan time; after purge recycles entries,
// SI converges back to RU.
//
// Each pending transaction appends one uncommitted record to every brick
// before the reader begins, so the reader's deps name runs in every brick
// and its SI scans build bitmaps. With no pending transaction the reader
// sees every brick whole and needs none. Every SI rep builds its bitmaps
// again, as the paper builds one per query (§III-C3; DESIGN.md §4c).

#include <cinttypes>

#include "bench_common.h"

using namespace cubrick;
using namespace cubrick::bench;

int main() {
  InitBenchObs();
  const uint64_t kRows = Scaled(200'000);
  const int kReps = 15;
  const std::vector<uint64_t> kTxnCounts = {1, 10, 100, 1000, 10000};
  const std::vector<size_t> kPendingCounts = {0, 16, 256};
  // One record in each of the cube's 16 bricks (shard_key 0-15).
  std::vector<Record> one_per_brick;
  for (int64_t k = 0; k < 16; ++k) one_per_brick.push_back({k, k});

  std::printf(
      "Figure 9: query latency SI vs RU vs transactional history "
      "(fixed %" PRIu64 " rows)\n\n",
      kRows);
  std::printf("%8s %9s %12s %12s %10s\n", "txns", "pending", "si_p50_us",
              "ru_p50_us", "overhead");

  for (uint64_t txns : kTxnCounts) {
    if (txns > kRows) continue;
    for (size_t pending : kPendingCounts) {
      Database db;
      CUBRICK_CHECK(CreateSingleColumnCube(&db, "t").ok());
      Random rng(7);
      const uint64_t per_txn = kRows / txns;
      for (uint64_t t = 0; t < txns; ++t) {
        CUBRICK_CHECK(db.Load("t", SingleColumnBatch(&rng, per_txn)).ok());
      }
      // Leave RW transactions pending, each with one uncommitted record per
      // brick. RO queries run at LCE with empty deps, so to exercise deps
      // we query inside an explicit RW transaction that observed the
      // pending set.
      std::vector<aosi::Txn> open;
      for (size_t p = 0; p < pending; ++p) {
        open.push_back(db.Begin());
        CUBRICK_CHECK(db.LoadIn(open.back(), "t", one_per_brick).ok());
      }
      const aosi::Txn reader = db.Begin();  // deps = all `pending` open txns

      const cubrick::Query q = AggregationQuery();
      const SiRuLatencies lat = MeasureSiRu(
          [&](ScanMode mode) { return db.QueryIn(reader, "t", q, mode); },
          kReps);
      std::printf("%8" PRIu64 " %9zu %12.0f %12.0f %9.2f%%\n", txns, pending,
                  lat.si, lat.ru, OverheadPct(lat.si, lat.ru));
      std::fflush(stdout);

      CUBRICK_CHECK(db.Commit(reader).ok());
      for (auto& txn : open) {
        CUBRICK_CHECK(db.Commit(txn).ok());
      }
    }
  }

  // Purge convergence: after recycling entries, SI cost collapses.
  {
    Database db;
    CUBRICK_CHECK(CreateSingleColumnCube(&db, "t").ok());
    Random rng(7);
    for (uint64_t t = 0; t < 10000; ++t) {
      CUBRICK_CHECK(db.Load("t", SingleColumnBatch(&rng, kRows / 10000)).ok());
    }
    const cubrick::Query q = AggregationQuery();
    const auto run = [&](ScanMode mode) { return db.Query("t", q, mode); };
    const SiRuLatencies before = MeasureSiRu(run, kReps);
    db.txns().TryAdvanceLSE(db.txns().LCE());
    db.PurgeAll();
    const SiRuLatencies after = MeasureSiRu(run, kReps);
    std::printf(
        "\nPurge effect (10000 txns): SI p50 %.0f us before purge, %.0f us "
        "after, RU %.0f us\n",
        before.si, after.si, after.ru);
  }
  return 0;
}
