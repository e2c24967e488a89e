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

#include <atomic>
#include <cinttypes>
#include <memory>
#include <thread>

#include "bench_common.h"
#include "check/online_checker.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "engine/table.h"

using namespace cubrick;
using namespace cubrick::bench;

namespace {

double MedianLatencyUs(Database* db, const cubrick::Query& q, ScanMode mode,
                       int reps) {
  obs::LatencyRecorder recorder;
  for (int i = 0; i < reps; ++i) {
    Stopwatch timer;
    auto result = db->Query("t", q, mode);
    CUBRICK_CHECK(result.ok());
    recorder.Record(timer.ElapsedMicros());
  }
  return static_cast<double>(recorder.Percentile(50));
}

}  // namespace

int main() {
  InitBenchObs();
  const uint64_t kRows = Scaled(200'000);
  const int kReps = 15;
  const std::vector<uint64_t> kTxnCounts = {1, 10, 100, 1000, 10000};
  const std::vector<size_t> kPendingCounts = {0, 16, 256};

  std::printf(
      "Figure 9: query latency SI vs RU vs transactional history "
      "(fixed %" PRIu64 " rows)\n\n",
      kRows);
  std::printf("%8s %9s %12s %12s %10s\n", "txns", "pending", "si_p50_us",
              "ru_p50_us", "overhead");

  double last_si = 0.0, last_ru = 0.0;
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
      // Open (and leave pending) RW transactions so that RO queries carry a
      // non-trivial exclusion set... RO queries run at LCE with empty deps,
      // so to exercise deps we query inside an explicit RW transaction that
      // observed the pending set.
      std::vector<aosi::Txn> open;
      for (size_t p = 0; p < pending; ++p) {
        open.push_back(db.Begin());
      }
      aosi::Txn reader = db.Begin();  // deps = all `pending` open txns

      const cubrick::Query q = AggregationQuery();
      (void)db.QueryIn(reader, "t", q, ScanMode::kSnapshotIsolation);
      (void)db.QueryIn(reader, "t", q, ScanMode::kReadUncommitted);
      obs::LatencyRecorder si_rec, ru_rec;
      for (int i = 0; i < kReps; ++i) {
        Stopwatch t1;
        CUBRICK_CHECK(
            db.QueryIn(reader, "t", q, ScanMode::kSnapshotIsolation).ok());
        si_rec.Record(t1.ElapsedMicros());
        Stopwatch t2;
        CUBRICK_CHECK(
            db.QueryIn(reader, "t", q, ScanMode::kReadUncommitted).ok());
        ru_rec.Record(t2.ElapsedMicros());
      }
      const double si = static_cast<double>(si_rec.Percentile(50));
      const double ru = static_cast<double>(ru_rec.Percentile(50));
      std::printf("%8" PRIu64 " %9zu %12.0f %12.0f %9.2f%%\n", txns, pending,
                  si, ru, ru == 0 ? 0.0 : 100.0 * (si - ru) / ru);
      std::fflush(stdout);
      last_si = si;
      last_ru = ru;

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
    const double before =
        MedianLatencyUs(&db, q, ScanMode::kSnapshotIsolation, kReps);
    db.txns().TryAdvanceLSE(db.txns().LCE());
    db.PurgeAll();
    const double after =
        MedianLatencyUs(&db, q, ScanMode::kSnapshotIsolation, kReps);
    const double ru = MedianLatencyUs(&db, q, ScanMode::kReadUncommitted,
                                      kReps);
    std::printf(
        "\nPurge effect (10000 txns): SI p50 %.0f us before purge, %.0f us "
        "after, RU %.0f us\n",
        before, after, ru);

    // The canonical machine-readable baseline for CI: the fig9 headline
    // numbers plus the full registry snapshot of this run's AOSI gauges,
    // query histograms and purge counters.
    EmitBenchJson("baseline",
                  {{"si_p50_us", last_si},
                   {"ru_p50_us", last_ru},
                   {"purge_si_before_us", before},
                   {"purge_si_after_us", after},
                   {"purge_ru_us", ru}});
  }

  // Morsel-parallel scan sweep: the same SI aggregation over a fixed
  // dataset, fanning bricks out over the shared thread pool at 1/2/4/8
  // workers per shard. The headline number is the 4-thread speedup over
  // the serial executor; scripts/check_bench_baseline.py validates the
  // JSON shape in CI. Speedup tracks the machine's core count — a
  // single-core container reports ~1.0x by construction.
  {
    Database db;
    CUBRICK_CHECK(CreateSingleColumnCube(&db, "t").ok());
    Random rng(7);
    // Many medium loads: every one of the 16 bricks carries a multi-entry
    // history, so per-morsel work includes real bitmap construction.
    for (uint64_t t = 0; t < 64; ++t) {
      CUBRICK_CHECK(db.Load("t", SingleColumnBatch(&rng, kRows / 64)).ok());
    }
    Table* table = db.FindTable("t");
    CUBRICK_CHECK(table != nullptr);
    aosi::Txn ro = db.BeginReadOnly();
    const cubrick::Query q = AggregationQuery();
    const QueryResult reference =
        table->Scan(ro.snapshot(), ScanMode::kSnapshotIsolation, q);

    std::printf("\nMorsel-parallel scan (fixed %" PRIu64 " rows, %zu pool "
                "threads available)\n",
                kRows, ThreadPool::Global().num_threads());
    std::printf("%8s %12s %9s\n", "threads", "p50_us", "speedup");
    std::vector<double> p50_by_threads;
    for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      obs::LatencyRecorder rec;
      for (int i = 0; i < kReps; ++i) {
        Stopwatch timer;
        const QueryResult result = table->Scan(
            ro.snapshot(), ScanMode::kSnapshotIsolation, q, nullptr, threads);
        rec.Record(timer.ElapsedMicros());
        // Parallel merge must reproduce the serial answer exactly (integer
        // metric values: double sums are exact, order-independent).
        CUBRICK_CHECK(result.num_groups() == reference.num_groups());
        for (const auto& [key, states] : reference.groups()) {
          CUBRICK_CHECK(result.Value(key, 0, AggSpec::Fn::kSum) ==
                        states[0].Finalize(AggSpec::Fn::kSum));
          CUBRICK_CHECK(result.Value(key, 1, AggSpec::Fn::kCount) ==
                        states[1].Finalize(AggSpec::Fn::kCount));
        }
      }
      const double p50 = static_cast<double>(rec.Percentile(50));
      p50_by_threads.push_back(p50);
      std::printf("%8zu %12.0f %8.2fx\n", threads, p50,
                  p50 == 0 ? 0.0 : p50_by_threads[0] / p50);
      std::fflush(stdout);
    }
    db.txns().EndReadOnly(ro);

    const double serial = p50_by_threads[0];
    EmitBenchJson(
        "fig9_parallel",
        {{"serial_p50_us", serial},
         {"par1_p50_us", p50_by_threads[0]},
         {"par2_p50_us", p50_by_threads[1]},
         {"par4_p50_us", p50_by_threads[2]},
         {"par8_p50_us", p50_by_threads[3]},
         {"speedup_4t",
          p50_by_threads[2] == 0 ? 0.0 : serial / p50_by_threads[2]}});
  }

  // Visibility-bitmap cache sweep (DESIGN.md §4c): steady state — no
  // concurrent writers — so every cached scan after the first is a pure
  // cache hit. Uncached SI rebuilds each brick's bitmap per scan (cost
  // grows with epochs-vector entries); cached SI should sit within ~10% of
  // RU regardless of history length. Every rep asserts exact-result
  // equivalence: cached vs uncached, serial vs parallel.
  {
    std::printf("\nVisibility-cache sweep (fixed %" PRIu64
                " rows, steady state)\n",
                kRows);
    std::printf("%8s %14s %16s %12s %10s\n", "txns", "si_cached_us",
                "si_uncached_us", "ru_us", "overhead");
    double cached_p50 = 0.0, uncached_p50 = 0.0, ru_p50 = 0.0;
    for (uint64_t txns : {uint64_t{100}, uint64_t{1000}, uint64_t{10000}}) {
      if (txns > kRows) continue;
      Database db;
      CUBRICK_CHECK(CreateSingleColumnCube(&db, "t").ok());
      Random rng(7);
      for (uint64_t t = 0; t < txns; ++t) {
        CUBRICK_CHECK(db.Load("t", SingleColumnBatch(&rng, kRows / txns)).ok());
      }
      Table* table = db.FindTable("t");
      CUBRICK_CHECK(table != nullptr);
      aosi::Txn ro = db.BeginReadOnly();
      const cubrick::Query q = AggregationQuery();
      const QueryResult reference = table->Scan(
          ro.snapshot(), ScanMode::kSnapshotIsolation, q, nullptr, 1,
          /*visibility_cache=*/false);
      const auto check_equal = [&reference](const QueryResult& result) {
        CUBRICK_CHECK(result.num_groups() == reference.num_groups());
        for (const auto& [key, states] : reference.groups()) {
          CUBRICK_CHECK(result.Value(key, 0, AggSpec::Fn::kSum) ==
                        states[0].Finalize(AggSpec::Fn::kSum));
          CUBRICK_CHECK(result.Value(key, 1, AggSpec::Fn::kCount) ==
                        states[1].Finalize(AggSpec::Fn::kCount));
        }
      };
      // Warm the cache, then verify a parallel cached scan also reproduces
      // the uncached serial answer bit-for-bit (integer metrics: double
      // aggregation is exact, so merge order cannot matter).
      check_equal(table->Scan(ro.snapshot(), ScanMode::kSnapshotIsolation, q,
                              nullptr, 1, /*visibility_cache=*/true));
      check_equal(table->Scan(ro.snapshot(), ScanMode::kSnapshotIsolation, q,
                              nullptr, 4, /*visibility_cache=*/true));

      obs::LatencyRecorder cached_rec, uncached_rec, ru_rec;
      for (int i = 0; i < kReps; ++i) {
        Stopwatch t1;
        const QueryResult cached =
            table->Scan(ro.snapshot(), ScanMode::kSnapshotIsolation, q,
                        nullptr, 1, /*visibility_cache=*/true);
        cached_rec.Record(t1.ElapsedMicros());
        Stopwatch t2;
        const QueryResult uncached =
            table->Scan(ro.snapshot(), ScanMode::kSnapshotIsolation, q,
                        nullptr, 1, /*visibility_cache=*/false);
        uncached_rec.Record(t2.ElapsedMicros());
        Stopwatch t3;
        CUBRICK_CHECK(
            !table
                 ->Scan(ro.snapshot(), ScanMode::kReadUncommitted, q, nullptr,
                        1, /*visibility_cache=*/true)
                 .empty());
        ru_rec.Record(t3.ElapsedMicros());
        check_equal(cached);
        check_equal(uncached);
      }
      db.txns().EndReadOnly(ro);
      cached_p50 = static_cast<double>(cached_rec.Percentile(50));
      uncached_p50 = static_cast<double>(uncached_rec.Percentile(50));
      ru_p50 = static_cast<double>(ru_rec.Percentile(50));
      std::printf("%8" PRIu64 " %14.0f %16.0f %12.0f %9.2f%%\n", txns,
                  cached_p50, uncached_p50, ru_p50,
                  ru_p50 == 0 ? 0.0
                              : 100.0 * (cached_p50 - ru_p50) / ru_p50);
      std::fflush(stdout);
    }
    // Headline numbers from the deepest history (10000 txns), where the
    // uncached bitmap build is most expensive and the cache matters most.
    EmitBenchJson(
        "fig9_cache",
        {{"si_cached_p50_us", cached_p50},
         {"si_uncached_p50_us", uncached_p50},
         {"ru_p50_us", ru_p50},
         {"cached_overhead_vs_ru",
          ru_p50 == 0 ? 0.0 : (cached_p50 - ru_p50) / ru_p50},
         {"cache_speedup",
          cached_p50 == 0 ? 0.0 : uncached_p50 / cached_p50}});
  }

  // Online-checker overhead sweep: the same SI aggregation, checker off vs
  // on at full sampling (every scan observed, validated on the background
  // thread). The checker-on cost per sampled scan is one history decode
  // plus two bitmap popcount passes — cheap next to the aggregation kernel
  // — so the headline overhead must stay within noise of zero;
  // scripts/check_bench_baseline.py fails CI when it exceeds 5%.
  {
    const uint64_t kTxns = 1000;
    const int kOverheadReps = 31;
    const auto build = [&](bool online) {
      DatabaseOptions options;
      options.online_check = online;
      auto db = std::make_unique<Database>(options);
      CUBRICK_CHECK(CreateSingleColumnCube(db.get(), "t").ok());
      Random rng(7);
      for (uint64_t t = 0; t < kTxns; ++t) {
        CUBRICK_CHECK(
            db->Load("t", SingleColumnBatch(&rng, kRows / kTxns)).ok());
      }
      return db;
    };
    auto db_off = build(false);
    auto db_on = build(true);
    check::OnlineChecker* checker = db_on->online_checker();
    const cubrick::Query q = AggregationQuery();
    // Interleave the two sides rep by rep: the checker hook is
    // process-global, so it is uninstalled for every checker-off rep (or
    // db_off's scans would be sampled too), and both medians see the same
    // machine conditions — measuring the halves back to back lets minutes
    // of container drift masquerade as checker overhead. The toggling
    // happens outside the timed region.
    obs::LatencyRecorder rec_off;
    obs::LatencyRecorder rec_on;
    checker->Uninstall();
    (void)db_off->Query("t", q, ScanMode::kSnapshotIsolation);  // warm-up
    checker->Install();
    (void)db_on->Query("t", q, ScanMode::kSnapshotIsolation);  // warm-up
    for (int i = 0; i < kOverheadReps; ++i) {
      checker->Uninstall();
      {
        Stopwatch timer;
        CUBRICK_CHECK(db_off->Query("t", q, ScanMode::kSnapshotIsolation).ok());
        rec_off.Record(timer.ElapsedMicros());
      }
      checker->Install();
      {
        Stopwatch timer;
        CUBRICK_CHECK(db_on->Query("t", q, ScanMode::kSnapshotIsolation).ok());
        rec_on.Record(timer.ElapsedMicros());
      }
    }
    // Final drain, so the registry snapshot below reflects every sample.
    checker->Uninstall();
    const double off_p50 = static_cast<double>(rec_off.Percentile(50));
    const double on_p50 = static_cast<double>(rec_on.Percentile(50));
    const double overhead_pct =
        off_p50 == 0 ? 0.0 : 100.0 * (on_p50 - off_p50) / off_p50;
    std::printf(
        "\nOnline-checker overhead (%" PRIu64 " txns, full sampling): "
        "off p50 %.0f us, on p50 %.0f us, overhead %.2f%%\n",
        kTxns, off_p50, on_p50, overhead_pct);
    EmitBenchJson("fig9_online_check",
                  {{"checker_off_p50_us", off_p50},
                   {"checker_on_p50_us", on_p50},
                   {"overhead_pct", overhead_pct}});
  }

  // Purge-pause sweep: the §III-C4 compaction pause with a scan thread live
  // the whole time. The phased purge pipeline does its O(bytes) copy and
  // plan off-shard, so `aosi.purge.pause_us` records only the short
  // shard-occupancy slices scans actually wait behind; the headline is that
  // histogram's p50/p99 plus the live scans' p99.
  {
    const uint64_t kTxns = 512;
    const int kPurgeRounds = 8;
    Database db;
    CUBRICK_CHECK(CreateSingleColumnCube(&db, "t").ok());
    Random rng(7);
    for (uint64_t t = 0; t < kTxns; ++t) {
      CUBRICK_CHECK(db.Load("t", SingleColumnBatch(&rng, kRows / kTxns)).ok());
    }
    obs::Histogram* pause =
        obs::MetricsRegistry::Global().GetHistogram("aosi.purge.pause_us");
    pause->ResetForTest();
    std::atomic<bool> stop{false};
    obs::LatencyRecorder scan_rec;
    std::thread scanner([&db, &stop, &scan_rec] {
      const cubrick::Query q = AggregationQuery();
      while (!stop.load(std::memory_order_acquire)) {
        Stopwatch timer;
        CUBRICK_CHECK(db.Query("t", q, ScanMode::kSnapshotIsolation).ok());
        scan_rec.Record(timer.ElapsedMicros());
      }
    });
    // Each round reloads a slice of fresh history so every purge has real
    // compaction to do (round 1 reclaims the deep initial history; later
    // rounds the reload's worth).
    for (int r = 0; r < kPurgeRounds; ++r) {
      CUBRICK_CHECK(db.Load("t", SingleColumnBatch(&rng, kRows / kTxns)).ok());
      db.txns().TryAdvanceLSE(db.txns().LCE());
      db.PurgeAll();
    }
    stop.store(true, std::memory_order_release);
    scanner.join();
    const obs::HistogramSnapshot snap = pause->Read();
    const double pause_p50 = static_cast<double>(snap.Percentile(50));
    const double pause_p99 = static_cast<double>(snap.Percentile(99));
    const double scan_p99 = static_cast<double>(scan_rec.Percentile(99));
    std::printf(
        "\nPurge pause with scans live (%d rounds): pause p99 %.0f us "
        "(scan p99 %.0f us)\n",
        kPurgeRounds, pause_p99, scan_p99);
    EmitBenchJson("fig9_purge_pause",
                  {{"concurrent_pause_p50_us", pause_p50},
                   {"concurrent_pause_p99_us", pause_p99},
                   {"concurrent_scan_p99_us", scan_p99}});
  }

  // SIMD kernel sweep (DESIGN.md §4e): the same scans with the scalar
  // backend vs the best backend this CPU supports, interleaved rep by rep
  // (like the online-check sweep: back-to-back halves would let container
  // drift masquerade as speedup; the backend toggle happens outside the
  // timed region). Two query shapes: an ungrouped multi-agg fold over the
  // wide cube (the per-word typed fold kernels) and the same with a
  // partial-coverage range filter (the compare-to-bitmask filter kernel).
  // Every rep asserts the two backends' results are identical — the
  // fold-order contract at bench scale. scripts/check_bench_baseline.py
  // gates simd_speedup >= 1.3x behind the machine stamp (>= 2 cores, no
  // sanitizer, simd_backend != scalar).
  {
    const simd::Backend native = simd::Detect();
    Database db;
    CUBRICK_CHECK(CreateWideCube(&db, "w").ok());
    Random rng(7);
    for (int t = 0; t < 8; ++t) {
      CUBRICK_CHECK(db.Load("w", WideBatch(&rng, kRows / 8)).ok());
    }
    cubrick::Query fold_q;
    fold_q.aggs = {{AggSpec::Fn::kSum, 0},  {AggSpec::Fn::kMin, 0},
                   {AggSpec::Fn::kMax, 0},  {AggSpec::Fn::kSum, 30},
                   {AggSpec::Fn::kMin, 30}, {AggSpec::Fn::kMax, 30},
                   {AggSpec::Fn::kCount, 0}};
    cubrick::Query filter_q = fold_q;
    FilterClause channel;
    channel.dim = 2;  // card 8, one range: never covered, never pruned
    channel.op = FilterClause::Op::kRange;
    channel.range_lo = 1;
    channel.range_hi = 6;
    filter_q.filters = {channel};

    const auto run = [&db](const cubrick::Query& q) {
      auto result = db.Query("w", q, ScanMode::kSnapshotIsolation);
      CUBRICK_CHECK(result.ok());
      return std::move(result).value();
    };
    const auto expect_same = [](const QueryResult& a, const QueryResult& b) {
      CUBRICK_CHECK(a.num_groups() == b.num_groups());
      for (const auto& [key, states] : a.groups()) {
        const auto& other = b.groups().at(key);
        for (size_t i = 0; i < states.size(); ++i) {
          CUBRICK_CHECK(states[i].sum == other[i].sum);
          CUBRICK_CHECK(states[i].count == other[i].count);
          CUBRICK_CHECK(states[i].min == other[i].min);
          CUBRICK_CHECK(states[i].max == other[i].max);
        }
      }
    };

    CUBRICK_CHECK(simd::SetBackend(simd::Backend::kScalar));
    const QueryResult ref_fold = run(fold_q);  // warm-up + reference
    const QueryResult ref_filter = run(filter_q);
    CUBRICK_CHECK(simd::SetBackend(native));
    expect_same(ref_fold, run(fold_q));  // warm-up + cross-backend identity
    expect_same(ref_filter, run(filter_q));

    obs::LatencyRecorder scalar_fold, simd_fold, scalar_filter, simd_filter;
    for (int i = 0; i < kReps; ++i) {
      CUBRICK_CHECK(simd::SetBackend(simd::Backend::kScalar));
      {
        Stopwatch timer;
        const QueryResult r = run(fold_q);
        scalar_fold.Record(timer.ElapsedMicros());
        expect_same(ref_fold, r);
      }
      {
        Stopwatch timer;
        const QueryResult r = run(filter_q);
        scalar_filter.Record(timer.ElapsedMicros());
        expect_same(ref_filter, r);
      }
      CUBRICK_CHECK(simd::SetBackend(native));
      {
        Stopwatch timer;
        const QueryResult r = run(fold_q);
        simd_fold.Record(timer.ElapsedMicros());
        expect_same(ref_fold, r);
      }
      {
        Stopwatch timer;
        const QueryResult r = run(filter_q);
        simd_filter.Record(timer.ElapsedMicros());
        expect_same(ref_filter, r);
      }
    }
    const double scalar_p50 = static_cast<double>(scalar_fold.Percentile(50));
    const double simd_p50 = static_cast<double>(simd_fold.Percentile(50));
    const double scalar_filter_p50 =
        static_cast<double>(scalar_filter.Percentile(50));
    const double simd_filter_p50 =
        static_cast<double>(simd_filter.Percentile(50));
    std::printf(
        "\nSIMD kernels (%s vs scalar, %" PRIu64 " rows): fold p50 "
        "%.0f -> %.0f us (%.2fx), filtered fold p50 %.0f -> %.0f us "
        "(%.2fx)\n",
        simd::BackendName(native), kRows, scalar_p50, simd_p50,
        simd_p50 == 0 ? 0.0 : scalar_p50 / simd_p50, scalar_filter_p50,
        simd_filter_p50,
        simd_filter_p50 == 0 ? 0.0 : scalar_filter_p50 / simd_filter_p50);
    // Emitted with the native backend active, so the machine stamp's
    // simd_backend field records what "simd" meant on this runner.
    EmitBenchJson(
        "fig9_simd",
        {{"scalar_p50_us", scalar_p50},
         {"simd_p50_us", simd_p50},
         {"simd_speedup", simd_p50 == 0 ? 0.0 : scalar_p50 / simd_p50},
         {"scalar_filter_p50_us", scalar_filter_p50},
         {"simd_filter_p50_us", simd_filter_p50},
         {"filter_speedup",
          simd_filter_p50 == 0 ? 0.0 : scalar_filter_p50 / simd_filter_p50}});
  }
  return 0;
}
