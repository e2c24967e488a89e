// Scan instrument totals: a table of known bricks (pruned, seen whole, with
// empty visibility, cut by a filter, covered by it) is scanned at one
// worker and at more workers than shards, in both shard modes, and every
// per-brick instrument must move by exactly the sum over its bricks,
// computed here brick by brick from the bricks themselves.

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "aosi/visibility.h"
#include "engine/table.h"
#include "ingest/parser.h"
#include "obs/metrics.h"
#include "query/executor.h"

namespace cubrick {
namespace {

/// Region ranges of two regions, one brick per (region range, kind).
std::shared_ptr<CubeSchema> MakeSchema() {
  return CubeSchema::Make("events",
                          {{"region", 16, 2, false}, {"kind", 4, 1, false}},
                          {{"n", DataType::kInt64}})
      .value();
}

void Append(Table& table, const CubeSchema& schema, aosi::Epoch epoch,
            const std::vector<Record>& records) {
  auto parsed = ParseRecords(schema, records);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(table.Append(epoch, std::move(parsed->batches)).ok());
}

/// Regions 0-11 hold 20 to 72 rows per (region, kind) at epoch 1, so some
/// bricks have dense words and all have a ragged tail; regions 0-3 get more
/// rows at epoch 2, which the snapshot below has pending (sparse words).
/// Regions 12-15 hold rows of epoch 5 only, after the snapshot.
void Fill(Table& table, const CubeSchema& schema) {
  std::vector<Record> first, second, late;
  for (int64_t r = 0; r < 16; ++r) {
    for (int64_t k = 0; k < 4; ++k) {
      const int64_t rows = 20 + 13 * ((r + k) % 5);
      for (int64_t i = 0; i < rows; ++i) {
        (r < 12 ? first : late).push_back({r, k, r * 100 + k * 10 + i});
        if (r < 4 && i % 3 == 0) second.push_back({r, k, i});
      }
    }
  }
  Append(table, schema, 1, first);
  Append(table, schema, 2, second);
  Append(table, schema, 5, late);
}

const aosi::Snapshot kSnapshot{3, aosi::EpochSet({2})};

/// The filter keeps regions 1-12: it cuts the [0, 1] bricks (visible rows
/// fail it), covers [2, 3] to [10, 11], meets [12, 13] (whose rows are all
/// invisible) and prunes [14, 15].
std::vector<Query> Queries() {
  FilterClause f;
  f.dim = 0;
  f.op = FilterClause::Op::kRange;
  f.range_lo = 1;
  f.range_hi = 12;
  Query ungrouped;
  ungrouped.filters = {f};
  ungrouped.aggs = {{AggSpec::Fn::kSum, 0}, {AggSpec::Fn::kCount, 0}};
  Query grouped = ungrouped;
  grouped.group_by = {1, 0};
  return {ungrouped, grouped};
}

/// What one scan of `query` must add to each instrument, summed brick by
/// brick.
struct Expected {
  uint64_t bricks_scanned = 0;
  uint64_t bricks_pruned = 0;
  uint64_t rows_considered = 0;
  uint64_t rows_scanned = 0;
  uint64_t words_scanned = 0;
  uint64_t words_skipped = 0;
  uint64_t words_dense = 0;
  uint64_t bricks_visible = 0;  // bricks that reach the filter phase
  uint64_t bricks_whole = 0;    // bricks the snapshot sees whole
  uint64_t density_sum = 0;     // of query.bitmap_density_permille
  uint64_t dense_permille_sum = 0;  // of query.kernel_dense_words_permille
};

Expected PerBrickSums(Table& table, const Query& query) {
  Expected e;
  table.VisitBricks([&](const Brick& brick) {
    if (brick.num_records() == 0 || !BrickIntersectsFilters(brick, query)) {
      ++e.bricks_pruned;
      return;
    }
    ++e.bricks_scanned;
    e.rows_considered += brick.num_records();
    Bitmap mask = aosi::BuildVisibilityBitmap(brick.history(), kSnapshot);
    // The fixture has no delete marker and no dep between two stamps of a
    // brick, so a brick is seen whole exactly when all its rows are visible.
    if (mask.All()) ++e.bricks_whole;
    if (mask.None()) return;
    ++e.bricks_visible;
    for (size_t row = 0; row < mask.size(); ++row) {
      for (const FilterClause& f : query.filters) {
        if (mask.Get(row) && !f.Matches(brick.DimCoord(row, f.dim))) {
          mask.Clear(row);
        }
      }
    }
    const uint64_t rows = mask.CountSet();
    uint64_t dense = 0;
    for (size_t w = 0; w < mask.num_words(); ++w) {
      if (mask.Word(w) == 0) ++e.words_skipped;
      if (mask.Word(w) == ~uint64_t{0}) ++dense;
    }
    e.rows_scanned += rows;
    e.words_scanned += mask.num_words();
    e.words_dense += dense;
    e.density_sum += rows * 1000 / brick.num_records();
    e.dense_permille_sum += dense * 1000 / mask.num_words();
  });
  return e;
}

uint64_t CounterDelta(const obs::MetricsSnapshot& before,
                      const obs::MetricsSnapshot& after,
                      const std::string& name) {
  const auto b = before.counters.find(name);
  const auto a = after.counters.find(name);
  const uint64_t was = b == before.counters.end() ? 0 : b->second;
  return (a == after.counters.end() ? 0 : a->second) - was;
}

obs::HistogramSnapshot HistogramDelta(const obs::MetricsSnapshot& before,
                                      const obs::MetricsSnapshot& after,
                                      const std::string& name) {
  obs::HistogramSnapshot delta;
  const auto a = after.histograms.find(name);
  if (a == after.histograms.end()) return delta;
  delta = a->second;
  const auto b = before.histograms.find(name);
  if (b != before.histograms.end()) {
    delta.count -= b->second.count;
    delta.sum -= b->second.sum;
  }
  return delta;
}

/// Turns metrics back on however the test leaves its scope.
struct EnableMetricsOnExit {
  ~EnableMetricsOnExit() { obs::SetEnabled(true); }
};

TEST(ScanInstrumentsTest, TalliesMatchPerBrickCounts) {
  ASSERT_TRUE(obs::Enabled());
  auto schema = MakeSchema();
  auto& reg = obs::MetricsRegistry::Global();
  for (bool threaded : {false, true}) {
    Table table(schema, 4, threaded);
    Fill(table, *schema);
    for (const Query& query : Queries()) {
      const Expected want = PerBrickSums(table, query);
      // The fixture must hold every kind of brick the test is about.
      ASSERT_GT(want.bricks_pruned, 0u);
      ASSERT_GT(want.bricks_scanned, want.bricks_visible);
      ASSERT_GT(want.rows_considered, want.rows_scanned);
      ASSERT_GT(want.words_dense, 0u);
      ASSERT_GT(want.bricks_whole, 0u);
      ASSERT_GT(want.bricks_scanned, want.bricks_whole);
      for (size_t parallelism : {1u, 6u, 8u}) {
        SCOPED_TRACE(std::string(threaded ? "threaded" : "inline") +
                     " group_by " + std::to_string(query.group_by.size()) +
                     " P " + std::to_string(parallelism));
        const obs::MetricsSnapshot before = reg.Snapshot();
        table.Scan(kSnapshot, ScanMode::kSnapshotIsolation, query, nullptr,
                   parallelism);
        const obs::MetricsSnapshot after = reg.Snapshot();
        const auto counter = [&](const char* name) {
          return CounterDelta(before, after, name);
        };
        const auto histogram = [&](const char* name) {
          return HistogramDelta(before, after, name);
        };
        EXPECT_EQ(counter("query.bricks_scanned"), want.bricks_scanned);
        EXPECT_EQ(counter("query.bricks_pruned"), want.bricks_pruned);
        EXPECT_EQ(counter("query.rows_considered"), want.rows_considered);
        EXPECT_EQ(counter("query.rows_scanned"), want.rows_scanned);
        EXPECT_EQ(counter("query.kernel_words_scanned"), want.words_scanned);
        EXPECT_EQ(counter("query.kernel_words_skipped"), want.words_skipped);
        EXPECT_EQ(counter("query.kernel_words_dense"), want.words_dense);
        EXPECT_EQ(counter("query.vis_whole_bricks"), want.bricks_whole);
        EXPECT_EQ(counter("query.vis_cache_hits") +
                      counter("query.vis_cache_misses") +
                      counter("query.vis_whole_bricks"),
                  want.bricks_scanned);
        EXPECT_EQ(histogram("query.visibility_us").count,
                  want.bricks_scanned);
        for (const char* name : {"query.filter_us", "query.agg_us",
                                 "query.bitmap_density_permille",
                                 "query.kernel_dense_words_permille"}) {
          EXPECT_EQ(histogram(name).count, want.bricks_visible) << name;
        }
        EXPECT_EQ(histogram("query.bitmap_density_permille").sum,
                  want.density_sum);
        EXPECT_EQ(histogram("query.kernel_dense_words_permille").sum,
                  want.dense_permille_sum);
        // More workers than shards fans some shard op out to pool workers
        // (28 candidate bricks on 4 shards leave one with at least 2), and
        // their tallies count above like the shard threads'.
        EXPECT_EQ(histogram("query.worker_scan_us").count > 0,
                  parallelism > 4);
        // One merge of the shard ops' group tables and one result build
        // per Table::Scan, whatever the fan-out.
        EXPECT_EQ(histogram("query.result_merge_us").count, 1u);
      }
      // With metrics off no query.* instrument moves.
      {
        const EnableMetricsOnExit restore;
        const obs::MetricsSnapshot before = reg.Snapshot();
        obs::SetEnabled(false);
        for (size_t parallelism : {1u, 8u}) {
          table.Scan(kSnapshot, ScanMode::kSnapshotIsolation, query, nullptr,
                     parallelism);
        }
        obs::SetEnabled(true);
        const obs::MetricsSnapshot after = reg.Snapshot();
        for (const auto& [name, value] : after.counters) {
          if (name.rfind("query.", 0) != 0) continue;
          EXPECT_EQ(CounterDelta(before, after, name), 0u) << name;
        }
        for (const auto& [name, snap] : after.histograms) {
          if (name.rfind("query.", 0) != 0) continue;
          EXPECT_EQ(HistogramDelta(before, after, name).count, 0u) << name;
        }
      }
    }
  }
}

}  // namespace
}  // namespace cubrick
