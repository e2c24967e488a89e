// Morsel-parallel scan equivalence tests: for every query shape, the
// parallel executor (request budgets that give the 4-shard tables' ops 1,
// 2, 4 and 8 workers on the shared thread pool) must produce exactly the
// result of the serial path. Metric values are small integers, so double
// aggregation is exact and any divergence is a real bug in morsel
// planning, worker-local accumulation or the final merge — not
// floating-point reassociation.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "cubrick/database.h"
#include "engine/table.h"
#include "ingest/parser.h"
#include "obs/metrics.h"

namespace cubrick {
namespace {

std::shared_ptr<CubeSchema> MakeSchema() {
  return CubeSchema::Make(
             "events",
             {{"region", 16, 2, false}, {"kind", 4, 1, false}},
             {{"n", DataType::kInt64}})
      .value();
}

EncodedBatch Batches(const CubeSchema& schema,
                     const std::vector<std::array<int64_t, 3>>& rows) {
  std::vector<Record> records;
  for (const auto& r : rows) {
    records.push_back({r[0], r[1], r[2]});
  }
  auto parsed = ParseRecords(schema, records);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed->batches;
}

aosi::Snapshot Snap(aosi::Epoch e) { return aosi::Snapshot{e, {}}; }

/// `parallelism` values for the 4-shard tables: a request's budget is split
/// over the shard ops, so 2 is one worker per op, 6 gives two ops a second
/// worker, and 8, 16 and 32 give every op 2, 4 and 8 workers.
constexpr size_t kBudgets[] = {2, 6, 8, 16, 32};

/// Exact structural equality: same groups, same finalized value for every
/// aggregate under every finalizer its AggState carries.
void ExpectSameResult(const QueryResult& serial, const QueryResult& parallel) {
  ASSERT_EQ(serial.num_aggs(), parallel.num_aggs());
  ASSERT_EQ(serial.num_groups(), parallel.num_groups());
  for (const auto& [key, states] : serial.groups()) {
    auto it = parallel.groups().find(key);
    ASSERT_NE(it, parallel.groups().end()) << "group missing in parallel";
    ASSERT_EQ(states.size(), it->second.size());
    for (size_t a = 0; a < states.size(); ++a) {
      EXPECT_EQ(states[a].sum, it->second[a].sum);
      EXPECT_EQ(states[a].count, it->second[a].count);
      EXPECT_EQ(states[a].min, it->second[a].min);
      EXPECT_EQ(states[a].max, it->second[a].max);
    }
  }
}

class ParallelScanTest : public ::testing::TestWithParam<bool> {
 protected:
  bool threaded() const { return GetParam(); }

  /// Many epochs, every brick populated, one visible partition delete —
  /// the richest history the serial/parallel diff can disagree on.
  void FillTable(Table& table, const CubeSchema& schema) {
    std::vector<std::array<int64_t, 3>> rows;
    for (int64_t epoch = 1; epoch <= 6; ++epoch) {
      rows.clear();
      for (int64_t r = 0; r < 16; ++r) {
        for (int64_t k = 0; k < 4; ++k) {
          rows.push_back({r, k, epoch * 100 + r * 4 + k});
        }
      }
      ASSERT_TRUE(table.Append(epoch, Batches(schema, rows)).ok());
    }
    // Delete the region range [2,3] at epoch 4 (range size is 2, so the
    // predicate is partition-granular): readers at >= 4 must apply the
    // cleanup identically on both paths.
    FilterClause del;
    del.dim = 0;
    del.op = FilterClause::Op::kRange;
    del.range_lo = 2;
    del.range_hi = 3;
    ASSERT_TRUE(table.DeleteWhere(4, {del}).ok());
  }
};

INSTANTIATE_TEST_SUITE_P(InlineAndThreaded, ParallelScanTest,
                         ::testing::Values(false, true),
                         [](const auto& info) {
                           return info.param ? "Threaded" : "Inline";
                         });

TEST_P(ParallelScanTest, UngroupedMatchesSerial) {
  auto schema = MakeSchema();
  Table table(schema, 4, threaded());
  FillTable(table, *schema);
  Query q;
  q.aggs = {{AggSpec::Fn::kSum, 0},
            {AggSpec::Fn::kCount, 0},
            {AggSpec::Fn::kMin, 0},
            {AggSpec::Fn::kMax, 0}};
  for (aosi::Epoch e : {1u, 3u, 4u, 6u}) {
    auto serial = table.Scan(Snap(e), ScanMode::kSnapshotIsolation, q);
    for (size_t par : kBudgets) {
      auto parallel = table.Scan(Snap(e), ScanMode::kSnapshotIsolation, q,
                                 nullptr, par);
      ExpectSameResult(serial, parallel);
    }
  }
}

TEST_P(ParallelScanTest, GroupedMatchesSerial) {
  auto schema = MakeSchema();
  Table table(schema, 4, threaded());
  FillTable(table, *schema);
  Query q;
  q.group_by = {0, 1};
  q.aggs = {{AggSpec::Fn::kSum, 0}, {AggSpec::Fn::kCount, 0}};
  auto serial = table.Scan(Snap(5), ScanMode::kSnapshotIsolation, q);
  EXPECT_GT(serial.num_groups(), 1u);
  for (size_t par : kBudgets) {
    auto parallel =
        table.Scan(Snap(5), ScanMode::kSnapshotIsolation, q, nullptr, par);
    ExpectSameResult(serial, parallel);
  }
}

TEST_P(ParallelScanTest, GroupedFullyDenseBrickMatchesSerial) {
  // 100% dense bricks: no deletes and each brick's row count is an exact
  // multiple of 64, so every visibility word is ~0ULL and the grouped
  // slot fold decodes whole words. Serial and parallel must agree exactly,
  // and the totals are known in closed form.
  auto schema = MakeSchema();
  Table table(schema, 4, threaded());
  // Each brick covers 2 regions x 1 kind; repeating the full 16x4 grid 32
  // times puts exactly 64 rows in every brick.
  std::vector<std::array<int64_t, 3>> rows;
  for (int rep = 0; rep < 32; ++rep) {
    for (int64_t r = 0; r < 16; ++r) {
      for (int64_t k = 0; k < 4; ++k) rows.push_back({r, k, r + k});
    }
  }
  ASSERT_TRUE(table.Append(1, Batches(*schema, rows)).ok());
  Query q;
  q.group_by = {0, 1};
  q.aggs = {{AggSpec::Fn::kSum, 0},
            {AggSpec::Fn::kCount, 0},
            {AggSpec::Fn::kMin, 0},
            {AggSpec::Fn::kMax, 0}};
  auto serial = table.Scan(Snap(1), ScanMode::kSnapshotIsolation, q);
  ASSERT_EQ(serial.num_groups(), 64u);
  for (const auto& [key, states] : serial.groups()) {
    (void)key;
    EXPECT_EQ(states[1].count, 32u);  // every (region, kind) seen 32x
    EXPECT_EQ(states[0].sum, states[2].min * 32.0);
    EXPECT_EQ(states[2].min, states[3].max);
  }
  for (size_t par : kBudgets) {
    auto parallel =
        table.Scan(Snap(1), ScanMode::kSnapshotIsolation, q, nullptr, par);
    ExpectSameResult(serial, parallel);
  }
}

TEST_P(ParallelScanTest, FilteredMatchesSerial) {
  // Regions [2, 9] cover or prune whole bricks (range size 2). Regions
  // [3, 8] cut the bricks of regions [2, 3] and [8, 9] row by row, and at
  // snapshots 3 and 5 later epochs' runs are pending, so every brick builds
  // its bitmap and the filter narrows it. Each case sees every region of
  // its range.
  struct Case {
    uint64_t lo;
    uint64_t hi;
    aosi::Epoch snapshot;
    size_t groups;
  };
  auto schema = MakeSchema();
  Table table(schema, 4, threaded());
  FillTable(table, *schema);
  for (const Case& c : {Case{2, 9, 6, 8}, Case{3, 8, 3, 6}, Case{3, 8, 5, 6}}) {
    SCOPED_TRACE("regions [" + std::to_string(c.lo) + ", " +
                 std::to_string(c.hi) + "] at snapshot " +
                 std::to_string(c.snapshot));
    Query q;
    FilterClause f;
    f.dim = 0;
    f.op = FilterClause::Op::kRange;
    f.range_lo = c.lo;
    f.range_hi = c.hi;
    q.filters = {f};
    q.group_by = {0};
    q.aggs = {{AggSpec::Fn::kSum, 0}, {AggSpec::Fn::kCount, 0}};
    auto serial =
        table.Scan(Snap(c.snapshot), ScanMode::kSnapshotIsolation, q);
    EXPECT_EQ(serial.num_groups(), c.groups);
    for (size_t par : kBudgets) {
      auto parallel = table.Scan(Snap(c.snapshot),
                                 ScanMode::kSnapshotIsolation, q, nullptr, par);
      ExpectSameResult(serial, parallel);
    }
  }
}

TEST_P(ParallelScanTest, ReadUncommittedMatchesSerial) {
  auto schema = MakeSchema();
  Table table(schema, 4, threaded());
  FillTable(table, *schema);
  Query q;
  q.group_by = {1};
  q.aggs = {{AggSpec::Fn::kSum, 0}, {AggSpec::Fn::kCount, 0}};
  auto serial = table.Scan(Snap(2), ScanMode::kReadUncommitted, q);
  for (size_t par : kBudgets) {
    auto parallel =
        table.Scan(Snap(2), ScanMode::kReadUncommitted, q, nullptr, par);
    ExpectSameResult(serial, parallel);
  }
}

TEST_P(ParallelScanTest, InFilterAcrossSnapshotsMatchesSerial) {
  // Exact serial == parallel equivalence of filtered scans: each worker's
  // per-brick masks (the all-ones mask for a brick seen whole, else one
  // built for the scan) and the word-wise kernels must reproduce the
  // serial result bit for bit at every worker budget, under SI and RU.
  auto schema = MakeSchema();
  Table table(schema, 4, threaded());
  FillTable(table, *schema);
  Query q;
  FilterClause f;
  f.dim = 1;
  f.op = FilterClause::Op::kIn;
  f.values = {0, 2, 3};
  q.filters = {f};
  q.group_by = {0};
  q.aggs = {{AggSpec::Fn::kSum, 0},
            {AggSpec::Fn::kCount, 0},
            {AggSpec::Fn::kMin, 0},
            {AggSpec::Fn::kMax, 0}};
  for (aosi::Epoch e : {1u, 4u, 6u}) {
    const auto serial = table.Scan(Snap(e), ScanMode::kSnapshotIsolation, q);
    for (size_t par : kBudgets) {
      const auto parallel =
          table.Scan(Snap(e), ScanMode::kSnapshotIsolation, q, nullptr, par);
      ExpectSameResult(serial, parallel);
    }
  }
  const auto ru_serial = table.Scan(Snap(2), ScanMode::kReadUncommitted, q);
  const auto ru_parallel =
      table.Scan(Snap(9), ScanMode::kReadUncommitted, q, nullptr, 16);
  ExpectSameResult(ru_serial, ru_parallel);
}

TEST_P(ParallelScanTest, ParallelismIsTheRequestsWorkerBudget) {
  // `parallelism` P is split over the S = 4 shard ops: P / S workers each,
  // one more for the first P % S ops, never fewer than the op's own
  // thread. Every worker past an op's first is one pool task, so P = 1 and
  // P = 4 submit none, P = 6 two and P = 8 four.
  auto schema = MakeSchema();
  Table table(schema, 4, threaded());
  FillTable(table, *schema);
  // Each op needs at least two scannable bricks, or ScanBricks would cap
  // its workers at its brick count.
  std::vector<size_t> bricks_per_shard(table.num_shards());
  table.VisitBricks([&](const Brick& brick) {
    if (brick.num_records() > 0) {
      ++bricks_per_shard[table.ShardOf(brick.bid())];
    }
  });
  for (size_t n : bricks_per_shard) ASSERT_GE(n, 2u);
  Query q;
  q.group_by = {0, 1};
  q.aggs = {{AggSpec::Fn::kSum, 0},
            {AggSpec::Fn::kCount, 0},
            {AggSpec::Fn::kMin, 0},
            {AggSpec::Fn::kMax, 0}};
  obs::Counter* tasks =
      obs::MetricsRegistry::Global().GetCounter("pool.tasks_total");
  const auto serial = table.Scan(Snap(6), ScanMode::kSnapshotIsolation, q);
  ASSERT_GT(serial.num_groups(), 1u);
  const std::vector<std::pair<size_t, uint64_t>> budgets = {
      {1, 0}, {4, 0}, {6, 2}, {8, 4}};
  for (const auto& [parallelism, want_tasks] : budgets) {
    const uint64_t before = tasks->Value();
    const auto got = table.Scan(Snap(6), ScanMode::kSnapshotIsolation, q,
                                nullptr, parallelism);
    EXPECT_EQ(tasks->Value() - before, want_tasks)
        << "parallelism " << parallelism;
    ExpectSameResult(serial, got);
  }
}

TEST_P(ParallelScanTest, EmptyTableAndOverParallelism) {
  auto schema = MakeSchema();
  Table table(schema, 2, threaded());
  Query q;
  q.aggs = {{AggSpec::Fn::kSum, 0}, {AggSpec::Fn::kCount, 0}};
  // No bricks: fan-out degenerates gracefully.
  auto empty = table.Scan(Snap(5), ScanMode::kSnapshotIsolation, q,
                          nullptr, 8);
  EXPECT_DOUBLE_EQ(empty.Single(1, AggSpec::Fn::kCount), 0.0);
  // One brick, parallelism far above morsel count.
  ASSERT_TRUE(table.Append(1, Batches(*schema, {{0, 0, 7}})).ok());
  auto one = table.Scan(Snap(1), ScanMode::kSnapshotIsolation, q,
                        nullptr, 16);
  EXPECT_DOUBLE_EQ(one.Single(0, AggSpec::Fn::kSum), 7.0);
  EXPECT_DOUBLE_EQ(one.Single(1, AggSpec::Fn::kCount), 1.0);
}

TEST(ParallelScanDatabaseTest, QueryParallelismOptionMatchesSerial) {
  // The DatabaseOptions knob routes every implicit and explicit query
  // through the morsel executor; results must match a serial database
  // fed the identical workload.
  auto run = [](size_t parallelism) {
    DatabaseOptions options;
    options.query_parallelism = parallelism;
    auto db = std::make_unique<Database>(options);
    EXPECT_TRUE(db->CreateCube("events",
                               {{"region", 16, 2, false}, {"kind", 4, 1, false}},
                               {{"n", DataType::kInt64}})
                    .ok());
    std::vector<Record> rows;
    for (int64_t r = 0; r < 16; ++r) {
      for (int64_t k = 0; k < 4; ++k) rows.push_back({r, k, r * 10 + k});
    }
    EXPECT_TRUE(db->Load("events", rows).ok());
    Query q;
    q.group_by = {0};
    q.aggs = {{AggSpec::Fn::kSum, 0}, {AggSpec::Fn::kCount, 0}};
    auto result = db->Query("events", q);
    EXPECT_TRUE(result.ok());
    return *result;
  };
  const QueryResult serial = run(1);
  const QueryResult parallel = run(4);
  ASSERT_EQ(serial.num_groups(), parallel.num_groups());
  for (const auto& [key, states] : serial.groups()) {
    auto it = parallel.groups().find(key);
    ASSERT_NE(it, parallel.groups().end());
    for (size_t a = 0; a < states.size(); ++a) {
      EXPECT_EQ(states[a].sum, it->second[a].sum);
      EXPECT_EQ(states[a].count, it->second[a].count);
    }
  }
}

}  // namespace
}  // namespace cubrick
