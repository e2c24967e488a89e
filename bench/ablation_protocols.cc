// Ablation — AOSI vs MVCC vs 2PL (google-benchmark).
//
// Quantifies the §II design argument: dropping record updates and single
// record deletes buys (a) appends without per-record timestamp writes,
// (b) scans whose concurrency-control cost is per-transaction-range, not
// per-record, and (c) readers that never block writers.
//
// To isolate the concurrency-control cost, the scan benchmarks use the same
// tight sum loop on all three substrates; only the visibility mechanism
// differs (range bitmap vs per-record timestamps vs locks). Engine-level
// numbers (parse + shard dispatch + generic aggregation) are measured
// separately in fig8/fig9.

#include <benchmark/benchmark.h>

#include <atomic>
#include <thread>

#include "aosi/visibility.h"
#include "bench_common.h"
#include "engine/table.h"
#include "mvcc/mvcc_store.h"
#include "mvcc/two_pl_store.h"

using namespace cubrick;
using namespace cubrick::bench;

namespace {

constexpr uint64_t kBatch = 1000;
constexpr uint64_t kScanRows = 100'000;
constexpr uint64_t kScanTxns = 100;

std::shared_ptr<const CubeSchema> RawSchema() {
  return CubeSchema::Make("t", {{"k", 16, 1, false}},
                          {{"v", DataType::kInt64}})
      .value();
}

EncodedBatch EncodedRows(const CubeSchema& schema, Random* rng,
                         uint64_t rows) {
  std::vector<Record> records;
  records.reserve(rows);
  for (uint64_t i = 0; i < rows; ++i) {
    records.push_back({static_cast<int64_t>(rng->Uniform(16)),
                       static_cast<int64_t>(rng->Next() & 0xffffff)});
  }
  return ParseRecords(schema, records).value().batches;
}

// --- Append throughput (parse excluded everywhere) --------------------------

void BM_Append_AOSI(benchmark::State& state) {
  auto schema = RawSchema();
  Table table(schema, 1, /*threaded=*/false);
  Random rng(1);
  const BatchView batch = EncodedRows(*schema, &rng, kBatch);
  aosi::TxnManager tm;
  for (auto _ : state) {
    // Append only reads the shared batch, so every round reuses it.
    aosi::Txn txn = tm.BeginReadWrite();
    CUBRICK_CHECK(table.Append(txn.epoch, batch).ok());
    CUBRICK_CHECK(tm.Commit(txn).ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kBatch));
}
BENCHMARK(BM_Append_AOSI);

void BM_Append_MVCC(benchmark::State& state) {
  mvcc::MvccStore store(2);
  Random rng(1);
  std::vector<std::vector<int64_t>> rows;
  for (uint64_t i = 0; i < kBatch; ++i) {
    rows.push_back({static_cast<int64_t>(rng.Uniform(16)),
                    static_cast<int64_t>(rng.Next() & 0xffffff)});
  }
  for (auto _ : state) {
    auto txn = store.Begin();
    for (const auto& row : rows) {
      CUBRICK_CHECK(store.Insert(&txn, row).ok());
    }
    CUBRICK_CHECK(store.Commit(&txn).ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kBatch));
}
BENCHMARK(BM_Append_MVCC);

void BM_Append_2PL(benchmark::State& state) {
  mvcc::TwoPLStore store(2, 16);
  Random rng(1);
  std::vector<std::vector<int64_t>> rows;
  for (uint64_t i = 0; i < kBatch; ++i) {
    rows.push_back({static_cast<int64_t>(rng.Uniform(16)),
                    static_cast<int64_t>(rng.Next() & 0xffffff)});
  }
  for (auto _ : state) {
    auto txn = store.Begin();
    for (const auto& row : rows) {
      CUBRICK_CHECK(store.Insert(&txn, row).ok());
    }
    CUBRICK_CHECK(store.Commit(&txn).ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kBatch));
}
BENCHMARK(BM_Append_2PL);

// --- Scan: same tight sum loop, different visibility mechanisms -------------

void BM_ScanCC_AOSI_Bitmap(benchmark::State& state) {
  auto schema = RawSchema();
  Table table(schema, 1, /*threaded=*/false);
  Random rng(2);
  aosi::TxnManager tm;
  for (uint64_t t = 0; t < kScanTxns; ++t) {
    aosi::Txn txn = tm.BeginReadWrite();
    CUBRICK_CHECK(
        table.Append(txn.epoch,
                     EncodedRows(*schema, &rng, kScanRows / kScanTxns))
            .ok());
    CUBRICK_CHECK(tm.Commit(txn).ok());
  }
  for (auto _ : state) {
    aosi::Txn reader = tm.BeginReadOnly();
    int64_t sum = 0;
    table.shard(0).bricks().ForEach([&](const Brick& brick) {
      // Range-based visibility: one bitmap per brick, then a branch-free
      // walk of the set bits.
      Bitmap visible =
          aosi::BuildVisibilityBitmap(brick.history(), reader.snapshot());
      const auto& ints = brick.metric(0).ints();
      visible.ForEachSet([&](size_t row) { sum += ints[row]; });
    });
    benchmark::DoNotOptimize(sum);
    tm.EndReadOnly(reader);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * kScanRows));
}
BENCHMARK(BM_ScanCC_AOSI_Bitmap);

void BM_ScanCC_MVCC_Timestamps(benchmark::State& state) {
  mvcc::MvccStore store(2);
  Random rng(2);
  for (uint64_t t = 0; t < kScanTxns; ++t) {
    auto txn = store.Begin();
    for (uint64_t i = 0; i < kScanRows / kScanTxns; ++i) {
      CUBRICK_CHECK(
          store
              .Insert(&txn, {static_cast<int64_t>(rng.Uniform(16)),
                             static_cast<int64_t>(rng.Next() & 0xffffff)})
              .ok());
    }
    CUBRICK_CHECK(store.Commit(&txn).ok());
  }
  for (auto _ : state) {
    auto probe = store.Begin();
    // Per-record begin/end timestamp test on every row.
    benchmark::DoNotOptimize(store.ScanSum(probe.begin_ts, 1));
    CUBRICK_CHECK(store.Commit(&probe).ok());
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * kScanRows));
}
BENCHMARK(BM_ScanCC_MVCC_Timestamps);

void BM_ScanCC_2PL_Locked(benchmark::State& state) {
  mvcc::TwoPLStore store(2, 16);
  Random rng(2);
  {
    auto txn = store.Begin();
    for (uint64_t i = 0; i < kScanRows; ++i) {
      CUBRICK_CHECK(
          store
              .Insert(&txn, {static_cast<int64_t>(rng.Uniform(16)),
                             static_cast<int64_t>(rng.Next() & 0xffffff)})
              .ok());
    }
    CUBRICK_CHECK(store.Commit(&txn).ok());
  }
  for (auto _ : state) {
    auto txn = store.Begin();
    benchmark::DoNotOptimize(store.ScanSum(&txn, 1));
    CUBRICK_CHECK(store.Commit(&txn).ok());
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * kScanRows));
}
BENCHMARK(BM_ScanCC_2PL_Locked);

// --- Reader latency under a concurrent writer ------------------------------
// AOSI is lock-free: a reader's snapshot never blocks or aborts.
// 2PL (wait-die): the read retries until its S locks win; we measure the
// time to a *successful* read including retries.

void BM_ReadWhileWriting_AOSI(benchmark::State& state) {
  DatabaseOptions options;
  options.threaded_shards = true;
  Database db(options);
  CUBRICK_CHECK(CreateSingleColumnCube(&db, "t").ok());
  Random rng(3);
  CUBRICK_CHECK(db.Load("t", SingleColumnBatch(&rng, 50'000)).ok());
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Random wrng(4);
    while (!stop.load(std::memory_order_seq_cst)) {
      CUBRICK_CHECK(db.Load("t", SingleColumnBatch(&wrng, 500)).ok());
    }
  });
  const cubrick::Query q = AggregationQuery(false);
  for (auto _ : state) {
    auto result = db.Query("t", q, ScanMode::kSnapshotIsolation);
    benchmark::DoNotOptimize(result);
  }
  stop.store(true, std::memory_order_seq_cst);
  writer.join();
  state.counters["retries"] = 0;  // lock-free: reads never retry
}
BENCHMARK(BM_ReadWhileWriting_AOSI)->Unit(benchmark::kMicrosecond);

void BM_ReadWhileWriting_2PL(benchmark::State& state) {
  mvcc::TwoPLStore store(2, 4);
  Random rng(3);
  {
    auto txn = store.Begin();
    for (uint64_t i = 0; i < 50'000; ++i) {
      CUBRICK_CHECK(
          store
              .Insert(&txn, {static_cast<int64_t>(rng.Uniform(16)),
                             static_cast<int64_t>(rng.Next() & 0xffffff)})
              .ok());
    }
    CUBRICK_CHECK(store.Commit(&txn).ok());
  }
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Random wrng(4);
    while (!stop.load(std::memory_order_seq_cst)) {
      auto txn = store.Begin();
      bool ok = true;
      for (int i = 0; i < 500 && ok; ++i) {
        ok = store
                 .Insert(&txn, {static_cast<int64_t>(wrng.Uniform(16)),
                                static_cast<int64_t>(wrng.Next() & 0xffff)})
                 .ok();
      }
      CUBRICK_CHECK((ok ? store.Commit(&txn) : store.Abort(&txn)).ok());
    }
  });
  int64_t retries = 0;
  for (auto _ : state) {
    // Retry until the read commits: wait-die may kill it repeatedly while
    // the writer holds partition locks.
    while (true) {
      auto txn = store.Begin();
      auto sum = store.ScanSum(&txn, 1);
      if (sum.ok()) {
        benchmark::DoNotOptimize(*sum);
        CUBRICK_CHECK(store.Commit(&txn).ok());
        break;
      }
      ++retries;
      CUBRICK_CHECK(store.Abort(&txn).ok());
    }
  }
  stop.store(true, std::memory_order_seq_cst);
  writer.join();
  state.counters["retries"] = static_cast<double>(retries);
}
BENCHMARK(BM_ReadWhileWriting_2PL)->Unit(benchmark::kMicrosecond);

// --- Memory overhead side-by-side ------------------------------------------

void BM_MemoryOverhead(benchmark::State& state) {
  for (auto _ : state) {
    Database db;
    CUBRICK_CHECK(CreateSingleColumnCube(&db, "t").ok());
    Random rng(5);
    for (int t = 0; t < 20; ++t) {
      CUBRICK_CHECK(db.Load("t", SingleColumnBatch(&rng, 5000)).ok());
    }
    mvcc::MvccStore mvcc_store(2);
    auto txn = mvcc_store.Begin();
    for (int i = 0; i < 100'000; ++i) {
      CUBRICK_CHECK(mvcc_store.Insert(&txn, {1, 2}).ok());
    }
    CUBRICK_CHECK(mvcc_store.Commit(&txn).ok());
    state.counters["aosi_bytes"] =
        static_cast<double>(db.HistoryMemoryUsage());
    state.counters["mvcc_bytes"] =
        static_cast<double>(mvcc_store.TimestampOverhead());
  }
}
BENCHMARK(BM_MemoryOverhead)->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
