// Instrument contract. Every registry name that the ledger's per-layer
// breakdown (bench/ledger/traced.cc) or an operator (docs/OBSERVABILITY.md)
// reads must exist, and a small workload touching every layer must move
// the ones it drives. Without this, a rename in src/ would silently zero a
// ledger metric. Every check reads registry-snapshot deltas, so test order
// and earlier tests in the same process do not matter.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/random.h"
#include "common/simd.h"
#include "cubrick/database.h"
#include "obs/metrics.h"

namespace cubrick {
namespace {

using obs::MetricsRegistry;
using obs::MetricsSnapshot;

// Every name bench/ledger/traced.cc reads through its registry delta.
const std::vector<std::string> kLedgerCounters = {
    "ingest.dict_snapshot_hits",
    "ingest.dict_batch_misses",
    "ingest.group_appends",
    "aosi.purge.conflicts",
    "aosi.purge.bricks_examined",
    "query.vis_cache_hits",
    "query.vis_cache_misses",
    "query.bricks_pruned",
    "query.bricks_scanned",
    "query.rows_scanned",
    "query.rows_considered",
    "query.kernel_simd_words",
    "query.kernel_simd_fallback",
    "cluster.rpc.begin_broadcasts",
    "cluster.rpc.horizon_registrations",
    "cluster.rpc.finish_broadcasts",
    "cluster.rpc.append_forwards",
    "pool.tasks_total",
    "pool.steals_total",
};
const std::vector<std::string> kLedgerHistograms = {
    "aosi.purge.pause_us",
    "query.visibility_us",
    "query.filter_us",
    "query.agg_us",
    "query.parallel_merge_us",
};

// The AOSI health gauges docs/OBSERVABILITY.md documents for operators.
const std::vector<std::string> kHealthGauges = {
    "aosi.ec_lce_lag",
    "aosi.lce_lse_lag",
    "aosi.pending_txs",
};

// Documented counters the workload below need not move: the row filter
// leaves no dense word for the aggregation pass, nothing is rejected, and
// the checker must find no violation.
const std::vector<std::string> kUndrivenCounters = {
    "query.kernel_words_dense",
    "ingest.records_rejected",
    "check.online.violations",
};

// Counters the workload below must move. A timing-dependent one
// (ingest.group_appends) only has to exist, and so do four the ledger reads
// that never move: aosi.purge.conflicts (purge plans and installs in one
// shard op, so nothing refuses an install), query.vis_cache_{hits,misses}
// (no scan consults a cache) and pool.steals_total (one queue, no steals).
const std::vector<std::string> kDrivenCounters = {
    "ingest.records_accepted",
    "ingest.batches_total",
    "ingest.dict_snapshot_hits",
    "ingest.dict_batch_misses",
    "query.scans_total",
    "query.vis_whole_bricks",
    "query.bricks_pruned",
    "query.bricks_scanned",
    "query.rows_scanned",
    "query.rows_considered",
    "query.kernel_words_scanned",
    "aosi.purge.rounds_total",
    "aosi.purge.bricks_examined",
    "aosi.purge.records_reclaimed",
    "check.online.sampled_txns",
    "check.online.observations",
    "check.online.validated",
    "cluster.rpc.begin_broadcasts",
    "cluster.rpc.horizon_registrations",
    "cluster.rpc.finish_broadcasts",
    "cluster.rpc.append_forwards",
    "pool.tasks_total",
};
const std::vector<std::string> kDrivenHistograms = {
    "ingest.parse_us",
    "ingest.flush_us",
    "query.latency_us",
    "query.visibility_us",
    "query.filter_us",
    "query.agg_us",
    "query.parallel_merge_us",
    "query.result_merge_us",
    "query.kernel_dense_words_permille",
    "aosi.purge.pause_us",
    "aosi.purge.round_us",
};

uint64_t CounterDelta(const MetricsSnapshot& before,
                      const MetricsSnapshot& after, const std::string& name) {
  const auto a = after.counters.find(name);
  if (a == after.counters.end()) return 0;
  const auto b = before.counters.find(name);
  return a->second - (b == before.counters.end() ? 0 : b->second);
}

uint64_t HistogramCountDelta(const MetricsSnapshot& before,
                             const MetricsSnapshot& after,
                             const std::string& name) {
  const auto a = after.histograms.find(name);
  if (a == after.histograms.end()) return 0;
  const auto b = before.histograms.find(name);
  return a->second.count -
         (b == before.histograms.end() ? 0 : b->second.count);
}

std::vector<Record> Rows(Random* rng, size_t n) {
  std::vector<Record> records;
  records.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    records.push_back({"region-" + std::to_string(rng->Uniform(64)),
                       static_cast<int64_t>(rng->Uniform(8)),
                       static_cast<int64_t>(rng->Next() & 0xffff)});
  }
  return records;
}

Status MakeCube(Database* db) {
  return db->CreateCube("c",
                        {{"region", 64, 4, /*is_string=*/true},
                         {"day", 8, 2, /*is_string=*/false}},
                        {{"n", DataType::kInt64}});
}

// One load, commit and scatter-gather query on a 2-node cluster: the bus
// hops behind cluster.rpc.*.
void RunClusterWorkload() {
  cluster::ClusterOptions options;
  options.num_nodes = 2;
  cluster::Cluster cluster(options);
  ASSERT_TRUE(cluster
                  .CreateCube("c", {{"k", 64, 4, false}},
                              {{"n", DataType::kInt64}})
                  .ok());
  std::vector<Record> records;
  for (int64_t k = 0; k < 64; ++k) records.push_back({k, k});
  auto txn = cluster.BeginReadWrite(1);
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(cluster.Append(&*txn, "c", records).ok());
  ASSERT_TRUE(cluster.Commit(&*txn).ok());
  Query q;
  q.aggs = {{AggSpec::Fn::kCount, 0}};
  auto result = cluster.QueryOnce(2, "c", q);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->Single(0, AggSpec::Fn::kCount), 64.0);
}

TEST(EngineInstrumentsTest, WorkloadDrivesEveryListedInstrument) {
  ASSERT_TRUE(obs::Enabled());
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  {
    DatabaseOptions options;
    options.online_check = true;
    options.query_parallelism = 4;
    options.threaded_shards = true;
    Database db(options);
    ASSERT_TRUE(MakeCube(&db).ok());
    Random rng(11);
    // The second load re-encodes regions the first one inserted, so its
    // dictionary lookups find them.
    ASSERT_TRUE(db.Load("c", Rows(&rng, 8000)).ok());
    ASSERT_TRUE(db.Load("c", Rows(&rng, 8000)).ok());

    // One region keeps a quarter of each surviving brick's rows: the other
    // region partitions are pruned, the survivors take the row filter, and
    // with several survivors per shard the scan fans out and merges. An
    // open transaction's uncommitted rows keep the queries from seeing the
    // surviving bricks whole, so both queries build their bitmaps.
    const aosi::Txn pending = db.Begin();
    ASSERT_TRUE(db.LoadIn(pending, "c", Rows(&rng, 2000)).ok());
    auto region = db.EqFilter("c", "region", Value("region-5"));
    ASSERT_TRUE(region.ok());
    Query q;
    q.filters = {*region};
    q.group_by = {1};
    q.aggs = {{AggSpec::Fn::kSum, 0}, {AggSpec::Fn::kCount, 0}};
    auto first = db.Query("c", q);
    auto second = db.Query("c", q);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(first->num_groups(), second->num_groups());
    ASSERT_TRUE(db.Commit(pending).ok());

    // Purge reclaims the deleted partition and compacts the three loads'
    // runs. A delete applies once it is strictly below LSE, so an empty
    // transaction commits after it to move LCE past the delete epoch.
    auto day = db.RangeFilter("c", "day", 0, 1);
    ASSERT_TRUE(day.ok());
    ASSERT_TRUE(db.DeletePartitions("c", {*day}).ok());
    ASSERT_TRUE(db.Commit(db.Begin()).ok());
    db.txns().TryAdvanceLSE(db.txns().LCE());
    const PurgeStats purged = db.PurgeAll();
    EXPECT_GT(purged.records_removed, 0u);
    EXPECT_EQ(db.online_checker()->ViolationCount(), 0u);
  }  // ~Database uninstalls the checker, validating every sample.
  RunClusterWorkload();
  const MetricsSnapshot after = MetricsRegistry::Global().Snapshot();

  for (const auto& name : kLedgerCounters) {
    EXPECT_EQ(after.counters.count(name), 1u) << name;
  }
  for (const auto& name : kLedgerHistograms) {
    EXPECT_EQ(after.histograms.count(name), 1u) << name;
  }
  for (const auto& name : kHealthGauges) {
    EXPECT_EQ(after.gauges.count(name), 1u) << name;
  }
  for (const auto& name : kUndrivenCounters) {
    EXPECT_EQ(after.counters.count(name), 1u) << name;
  }

  for (const auto& name : kDrivenCounters) {
    EXPECT_GT(CounterDelta(before, after, name), 0u) << name;
  }
  for (const auto& name : kDrivenHistograms) {
    EXPECT_GT(HistogramCountDelta(before, after, name), 0u) << name;
  }
  EXPECT_EQ(CounterDelta(before, after, "check.online.violations"), 0u);
}

// A dense word through the filter kernels counts as a vector word under a
// vector backend and as a fallback word under the scalar one. The same
// filtered scan runs under the scalar reference and under Detect()'s
// backend, so one run on an AVX2 host checks both branches.
TEST(EngineInstrumentsTest, KernelWordsFollowTheActiveBackend) {
  Database db;
  ASSERT_TRUE(MakeCube(&db).ok());
  Random rng(12);
  // About 125 rows per brick: every brick has a dense word.
  ASSERT_TRUE(db.Load("c", Rows(&rng, 8000)).ok());
  auto region = db.EqFilter("c", "region", Value("region-5"));
  ASSERT_TRUE(region.ok());
  Query q;
  q.filters = {*region};
  q.aggs = {{AggSpec::Fn::kCount, 0}};
  const simd::Backend saved = simd::Active();
  for (simd::Backend backend : {simd::Backend::kScalar, simd::Detect()}) {
    ASSERT_TRUE(simd::SetBackend(backend));
    const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
    ASSERT_TRUE(db.Query("c", q).ok());
    const MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
    const uint64_t vector_words =
        CounterDelta(before, after, "query.kernel_simd_words");
    const uint64_t fallback_words =
        CounterDelta(before, after, "query.kernel_simd_fallback");
    if (backend == simd::Backend::kScalar) {
      EXPECT_EQ(vector_words, 0u);
      EXPECT_GT(fallback_words, 0u);
    } else {
      EXPECT_GT(vector_words, 0u) << simd::BackendName(backend);
    }
  }
  simd::SetBackend(saved);
}

}  // namespace
}  // namespace cubrick
