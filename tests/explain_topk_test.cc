// Tests for scan-plan introspection (granular-partitioning pruning) and the
// Top-K result helper, plus DDL-parser robustness fuzzing.

#include <gtest/gtest.h>

#include "common/random.h"
#include "cubrick/database.h"

namespace cubrick {
namespace {

TEST(ExplainScanTest, FiltersPruneBricks) {
  Database db;
  // 8 region ranges x 4 day ranges = up to 32 bricks.
  ASSERT_TRUE(db.ExecuteDdl("CREATE CUBE t ("
                            "region int CARDINALITY 32 RANGE 4, "
                            "day int CARDINALITY 16 RANGE 4, v int)")
                  .ok());
  std::vector<Record> rows;
  for (int64_t region = 0; region < 32; region += 4) {
    for (int64_t day = 0; day < 16; day += 4) {
      rows.push_back({region, day, 1});
    }
  }
  ASSERT_TRUE(db.Load("t", rows).ok());
  Table* table = db.FindTable("t");
  ASSERT_EQ(table->NumBricks(), 32u);

  // No filters: everything scanned.
  ScanPlanStats all = table->ExplainScan({});
  EXPECT_EQ(all.bricks_total, 32u);
  EXPECT_EQ(all.bricks_pruned, 0u);
  EXPECT_EQ(all.bricks_scanned, 32u);

  // region in one range: 3/4 of bricks pruned without touching a row.
  Query q;
  q.filters = {{0, FilterClause::Op::kRange, {}, 0, 3}};
  ScanPlanStats pruned = table->ExplainScan(q);
  EXPECT_EQ(pruned.bricks_pruned, 28u);
  EXPECT_EQ(pruned.bricks_scanned, 4u);
  // The range filter exactly covers the surviving bricks' ranges: it is
  // never evaluated per row.
  EXPECT_EQ(pruned.filters_skipped_covered, 4u);
  EXPECT_EQ(pruned.rows_considered, 4u);

  // Two filters: intersection pruning through any dimension combination.
  q.filters.push_back({1, FilterClause::Op::kRange, {}, 8, 11});
  ScanPlanStats both = table->ExplainScan(q);
  EXPECT_EQ(both.bricks_scanned, 1u);
  EXPECT_EQ(both.bricks_pruned, 31u);
}

TEST(ExplainScanTest, MisalignedFilterStillEvaluatedPerRow) {
  Database db;
  ASSERT_TRUE(db.ExecuteDdl("CREATE CUBE t ("
                            "k int CARDINALITY 16 RANGE 4, v int)")
                  .ok());
  ASSERT_TRUE(db.Load("t", {{0, 1}, {1, 1}, {5, 1}}).ok());
  Query q;
  q.filters = {{0, FilterClause::Op::kEq, {1}, 0, 0}};  // half a range
  ScanPlanStats stats = db.FindTable("t")->ExplainScan(q);
  EXPECT_EQ(stats.bricks_scanned, 1u);
  EXPECT_EQ(stats.filters_skipped_covered, 0u);
}

TEST(TopKTest, RanksGroupsDescending) {
  QueryResult result(1);
  result.Accumulate({1}, 0, 10);
  result.Accumulate({2}, 0, 30);
  result.Accumulate({3}, 0, 20);
  result.Accumulate({2}, 0, 5);
  auto top2 = result.TopK(0, AggSpec::Fn::kSum, 2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0].first, (QueryResult::GroupKey{2}));
  EXPECT_DOUBLE_EQ(top2[0].second, 35.0);
  EXPECT_EQ(top2[1].first, (QueryResult::GroupKey{3}));
}

TEST(TopKTest, TiesBrokenByKey) {
  QueryResult result(1);
  result.Accumulate({9}, 0, 7);
  result.Accumulate({1}, 0, 7);
  auto top = result.TopK(0, AggSpec::Fn::kSum, 2);
  EXPECT_EQ(top[0].first, (QueryResult::GroupKey{1}));
  EXPECT_EQ(top[1].first, (QueryResult::GroupKey{9}));
}

TEST(TopKTest, KLargerThanGroups) {
  QueryResult result(1);
  result.Accumulate({1}, 0, 1);
  EXPECT_EQ(result.TopK(0, AggSpec::Fn::kSum, 10).size(), 1u);
  QueryResult empty(1);
  EXPECT_TRUE(empty.TopK(0, AggSpec::Fn::kSum, 3).empty());
}

TEST(TopKTest, EndToEndDashboardQuery) {
  Database db;
  ASSERT_TRUE(db.ExecuteDdl("CREATE CUBE s (region string CARDINALITY 8 "
                            "RANGE 1, rev int)")
                  .ok());
  ASSERT_TRUE(db.Load("s", {{"US", 100},
                            {"BR", 300},
                            {"DE", 50},
                            {"US", 250},
                            {"JP", 120}})
                  .ok());
  Query q;
  q.group_by = {0};
  q.aggs = {{AggSpec::Fn::kSum, 0}};
  auto result = db.Query("s", q);
  auto top2 = result->TopK(0, AggSpec::Fn::kSum, 2);
  auto schema = db.FindSchema("s");
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(schema->dictionary(0)->Decode(top2[0].first[0]).value(), "US");
  EXPECT_DOUBLE_EQ(top2[0].second, 350.0);
  EXPECT_EQ(schema->dictionary(0)->Decode(top2[1].first[0]).value(), "BR");
}

TEST(DdlFuzzTest, MutatedStatementsNeverCrash) {
  const std::string base =
      "CREATE CUBE test_cube (region string CARDINALITY 4 RANGE 2, "
      "gender string CARDINALITY 4 RANGE 1, likes int, comments int)";
  Random rng(1234);
  int parsed_ok = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::string mutated = base;
    const int mutations = 1 + static_cast<int>(rng.Uniform(4));
    for (int m = 0; m < mutations; ++m) {
      const size_t pos = rng.Uniform(mutated.size());
      switch (rng.Uniform(3)) {
        case 0:  // flip a character
          mutated[pos] = static_cast<char>(' ' + rng.Uniform(95));
          break;
        case 1:  // delete a span
          mutated.erase(pos, 1 + rng.Uniform(5));
          break;
        default:  // duplicate a span
          mutated.insert(pos, mutated.substr(pos, 1 + rng.Uniform(5)));
          break;
      }
      if (mutated.empty()) mutated.push_back('x');
    }
    auto result = ParseCreateCube(mutated);  // must not crash or hang
    if (result.ok()) ++parsed_ok;
  }
  // Sanity: the fuzzer actually hit both outcomes.
  EXPECT_GT(parsed_ok, 0);
  EXPECT_LT(parsed_ok, 3000);
}

TEST(CsvFuzzTest, MutatedLinesNeverCrash) {
  auto schema = CubeSchema::Make(
                    "c", {{"d", 16, 4, true}},
                    {{"m", DataType::kInt64}, {"x", DataType::kDouble}})
                    .value();
  Random rng(99);
  const std::string base = "hello,42,3.25";
  for (int trial = 0; trial < 3000; ++trial) {
    std::string mutated = base;
    const size_t pos = rng.Uniform(mutated.size());
    mutated[pos] = static_cast<char>(rng.Uniform(256));
    (void)ParseCsvLine(*schema, mutated);  // any Status is fine; no crash
  }
  SUCCEED();
}

}  // namespace
}  // namespace cubrick
