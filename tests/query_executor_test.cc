// Query-model and brick-scan executor tests: filters, group-by, aggregation,
// brick pruning, SI vs RU scan modes, and the grouped slot fold against the
// SI oracle.

#include "query/executor.h"

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "aosi/epoch.h"
#include "check/si_oracle.h"
#include "common/simd.h"
#include "engine/table.h"
#include "ingest/parser.h"

namespace cubrick {
namespace {

std::shared_ptr<CubeSchema> MakeSchema() {
  return CubeSchema::Make(
             "sales",
             {{"region", 8, 4, false}, {"day", 32, 8, false}},
             {{"units", DataType::kInt64}, {"revenue", DataType::kDouble}})
      .value();
}

aosi::Snapshot Snap(aosi::Epoch e, std::vector<aosi::Epoch> deps = {}) {
  return aosi::Snapshot{e, aosi::EpochSet(std::move(deps))};
}

/// Appends one record with explicit coordinates to the right brick in a
/// two-brick test fixture.
void AppendOne(Brick& brick, aosi::Epoch epoch, uint64_t region_off,
               uint64_t day_off, int64_t units, double revenue) {
  EncodedBatch batch(brick.schema());
  batch.num_rows = 1;
  batch.dim_offsets[0].push_back(region_off);
  batch.dim_offsets[1].push_back(day_off);
  batch.metric_ints[0].push_back(units);
  batch.metric_doubles[1].push_back(revenue);
  batch.ClosePartition(brick.bid());
  brick.AppendBatch(epoch, batch, 0);
}

TEST(FilterClauseTest, MatchSemantics) {
  FilterClause eq{0, FilterClause::Op::kEq, {5}, 0, 0};
  EXPECT_TRUE(eq.Matches(5));
  EXPECT_FALSE(eq.Matches(4));

  FilterClause in{0, FilterClause::Op::kIn, {1, 3, 7}, 0, 0};
  EXPECT_TRUE(in.Matches(3));
  EXPECT_FALSE(in.Matches(2));

  FilterClause range{0, FilterClause::Op::kRange, {}, 10, 20};
  EXPECT_TRUE(range.Matches(10));
  EXPECT_TRUE(range.Matches(20));
  EXPECT_FALSE(range.Matches(9));
  EXPECT_FALSE(range.Matches(21));
}

TEST(FilterClauseTest, IntersectsAndCovers) {
  FilterClause range{0, FilterClause::Op::kRange, {}, 10, 20};
  EXPECT_TRUE(range.Intersects(15, 30));
  EXPECT_TRUE(range.Intersects(0, 10));
  EXPECT_FALSE(range.Intersects(21, 40));
  EXPECT_TRUE(range.Covers(12, 18));
  EXPECT_FALSE(range.Covers(12, 25));

  FilterClause eq{0, FilterClause::Op::kEq, {5}, 0, 0};
  EXPECT_TRUE(eq.Intersects(0, 10));
  EXPECT_FALSE(eq.Intersects(6, 10));
  EXPECT_TRUE(eq.Covers(5, 5));
  EXPECT_FALSE(eq.Covers(4, 5));

  FilterClause in{0, FilterClause::Op::kIn, {2, 3}, 0, 0};
  EXPECT_TRUE(in.Covers(2, 3));
  EXPECT_FALSE(in.Covers(1, 3));
}

TEST(AggStateTest, AccumulateAndFinalize) {
  AggState s;
  s.Accumulate(3);
  s.Accumulate(7);
  s.Accumulate(-2);
  EXPECT_DOUBLE_EQ(s.Finalize(AggSpec::Fn::kSum), 8.0);
  EXPECT_DOUBLE_EQ(s.Finalize(AggSpec::Fn::kCount), 3.0);
  EXPECT_DOUBLE_EQ(s.Finalize(AggSpec::Fn::kMin), -2.0);
  EXPECT_DOUBLE_EQ(s.Finalize(AggSpec::Fn::kMax), 7.0);
  EXPECT_NEAR(s.Finalize(AggSpec::Fn::kAvg), 8.0 / 3.0, 1e-12);
}

TEST(AggStateTest, MergeCombines) {
  AggState a, b;
  a.Accumulate(1);
  a.Accumulate(5);
  b.Accumulate(10);
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.Finalize(AggSpec::Fn::kSum), 16.0);
  EXPECT_DOUBLE_EQ(a.Finalize(AggSpec::Fn::kMax), 10.0);
  EXPECT_DOUBLE_EQ(a.Finalize(AggSpec::Fn::kCount), 3.0);
}

TEST(QueryResultTest, MergePreservesGroups) {
  QueryResult a(1), b(1);
  a.Accumulate({1}, 0, 10);
  b.Accumulate({1}, 0, 5);
  b.Accumulate({2}, 0, 7);
  a.Merge(b);
  EXPECT_EQ(a.num_groups(), 2u);
  EXPECT_DOUBLE_EQ(a.Value({1}, 0, AggSpec::Fn::kSum), 15.0);
  EXPECT_DOUBLE_EQ(a.Value({2}, 0, AggSpec::Fn::kSum), 7.0);
  EXPECT_DOUBLE_EQ(a.Value({3}, 0, AggSpec::Fn::kSum), 0.0);
}

TEST(ScanBrickTest, UngroupedAggregation) {
  auto schema = MakeSchema();
  // Brick for region range [4,7], day range [8,15].
  Brick brick(schema, schema->BidFor({4, 8}).value());
  AppendOne(brick, 1, 0, 0, 10, 1.5);  // region 4, day 8
  AppendOne(brick, 1, 1, 2, 20, 2.5);  // region 5, day 10
  AppendOne(brick, 1, 3, 7, 30, 3.0);  // region 7, day 15

  Query q;
  q.aggs = {{AggSpec::Fn::kSum, 0},
            {AggSpec::Fn::kCount, 0},
            {AggSpec::Fn::kSum, 1}};
  QueryResult result(q.aggs.size());
  ScanBrick(brick, Snap(5), ScanMode::kSnapshotIsolation, q, &result);
  EXPECT_DOUBLE_EQ(result.Single(0, AggSpec::Fn::kSum), 60.0);
  EXPECT_DOUBLE_EQ(result.Single(1, AggSpec::Fn::kCount), 3.0);
  EXPECT_DOUBLE_EQ(result.Single(2, AggSpec::Fn::kSum), 7.0);
}

TEST(ScanBrickTest, FilterOnDimension) {
  auto schema = MakeSchema();
  Brick brick(schema, schema->BidFor({4, 8}).value());
  AppendOne(brick, 1, 0, 0, 10, 0);
  AppendOne(brick, 1, 1, 0, 20, 0);
  AppendOne(brick, 1, 1, 1, 40, 0);

  Query q;
  q.filters = {{0, FilterClause::Op::kEq, {5}, 0, 0}};  // region == 5
  q.aggs = {{AggSpec::Fn::kSum, 0}};
  QueryResult result(1);
  ScanBrick(brick, Snap(1), ScanMode::kSnapshotIsolation, q, &result);
  EXPECT_DOUBLE_EQ(result.Single(0, AggSpec::Fn::kSum), 60.0);
}

TEST(ScanBrickTest, GroupByDimension) {
  auto schema = MakeSchema();
  Brick brick(schema, schema->BidFor({4, 8}).value());
  AppendOne(brick, 1, 0, 0, 1, 0);
  AppendOne(brick, 1, 0, 1, 2, 0);
  AppendOne(brick, 1, 2, 0, 4, 0);

  Query q;
  q.group_by = {0};  // by region
  q.aggs = {{AggSpec::Fn::kSum, 0}};
  QueryResult result(1);
  ScanBrick(brick, Snap(1), ScanMode::kSnapshotIsolation, q, &result);
  EXPECT_EQ(result.num_groups(), 2u);
  EXPECT_DOUBLE_EQ(result.Value({4}, 0, AggSpec::Fn::kSum), 3.0);
  EXPECT_DOUBLE_EQ(result.Value({6}, 0, AggSpec::Fn::kSum), 4.0);
}

TEST(ScanBrickTest, BrickPrunedByRange) {
  auto schema = MakeSchema();
  // Brick covers region [4,7]; filter wants region 0-3: prune.
  Brick brick(schema, schema->BidFor({4, 8}).value());
  AppendOne(brick, 1, 0, 0, 10, 0);
  Query q;
  q.filters = {{0, FilterClause::Op::kRange, {}, 0, 3}};
  q.aggs = {{AggSpec::Fn::kCount, 0}};
  EXPECT_FALSE(BrickIntersectsFilters(brick, q));
  QueryResult result(1);
  ScanBrick(brick, Snap(1), ScanMode::kSnapshotIsolation, q, &result);
  EXPECT_TRUE(result.empty());
}

TEST(ScanBrickTest, SnapshotHidesUncommittedAndFuture) {
  auto schema = MakeSchema();
  Brick brick(schema, schema->BidFor({4, 8}).value());
  AppendOne(brick, 1, 0, 0, 10, 0);
  AppendOne(brick, 2, 0, 0, 20, 0);  // pending for this reader
  AppendOne(brick, 5, 0, 0, 40, 0);  // future

  Query q;
  q.aggs = {{AggSpec::Fn::kSum, 0}};
  QueryResult si(1);
  ScanBrick(brick, Snap(3, {2}), ScanMode::kSnapshotIsolation, q, &si);
  EXPECT_DOUBLE_EQ(si.Single(0, AggSpec::Fn::kSum), 10.0);

  // RU sees all three regardless of snapshot.
  QueryResult ru(1);
  ScanBrick(brick, Snap(3, {2}), ScanMode::kReadUncommitted, q, &ru);
  EXPECT_DOUBLE_EQ(ru.Single(0, AggSpec::Fn::kSum), 70.0);
}

TEST(ScanBrickTest, DeleteVisibleToScan) {
  auto schema = MakeSchema();
  Brick brick(schema, schema->BidFor({4, 8}).value());
  AppendOne(brick, 1, 0, 0, 10, 0);
  brick.MarkDeleted(2);
  AppendOne(brick, 3, 0, 0, 5, 0);

  Query q;
  q.aggs = {{AggSpec::Fn::kSum, 0}};
  QueryResult r1(1);
  ScanBrick(brick, Snap(1), ScanMode::kSnapshotIsolation, q, &r1);
  EXPECT_DOUBLE_EQ(r1.Single(0, AggSpec::Fn::kSum), 10.0);
  QueryResult r3(1);
  ScanBrick(brick, Snap(3), ScanMode::kSnapshotIsolation, q, &r3);
  EXPECT_DOUBLE_EQ(r3.Single(0, AggSpec::Fn::kSum), 5.0);
}

TEST(ScanBrickTest, EmptyBrickNoGroups) {
  auto schema = MakeSchema();
  Brick brick(schema, 0);
  Query q;
  q.aggs = {{AggSpec::Fn::kCount, 0}};
  QueryResult result(1);
  ScanBrick(brick, Snap(9), ScanMode::kSnapshotIsolation, q, &result);
  EXPECT_TRUE(result.empty());
}

TEST(ScanBrickTest, GroupedCountLeavesTheUngroupedCountState) {
  // The grouped fold only counts a COUNT's rows and sets its sum, min and
  // max as the slot merges; the ungrouped one folds a popcount per word.
  // Over rows of one group both must leave every AggState field the same,
  // which DiffResults (finalized values only) would not catch. The narrow
  // schema's 2-bit region key takes the direct slot array, the wide
  // schema's 20-bit key the GroupSlots table.
  constexpr uint64_t kWide = uint64_t{1} << 20;
  auto wide = CubeSchema::Make("wide",
                               {{"x", kWide, kWide, false},
                                {"day", 32, 8, false}},
                               {{"units", DataType::kInt64},
                                {"revenue", DataType::kDouble}})
                  .value();
  for (const auto& schema : {MakeSchema(), wide}) {
    Brick brick(schema, schema->BidFor({0, 8}).value());
    for (int i = 0; i < 100; ++i) {
      // Every third row is from a future epoch, so the mask's words are
      // sparse.
      AppendOne(brick, i % 3 == 0 ? 9 : 1, 1, i % 8, i, 0.5 * i);
    }
    Query ungrouped;
    ungrouped.aggs = {{AggSpec::Fn::kCount, 0}};
    Query grouped = ungrouped;
    grouped.group_by = {0};
    QueryResult want(1);
    QueryResult got(1);
    ScanBrick(brick, Snap(5), ScanMode::kSnapshotIsolation, ungrouped, &want);
    ScanBrick(brick, Snap(5), ScanMode::kSnapshotIsolation, grouped, &got);
    ASSERT_EQ(want.num_groups(), 1u);
    ASSERT_EQ(got.num_groups(), 1u);
    const AggState& w = want.groups().begin()->second[0];
    const AggState& g = got.groups().begin()->second[0];
    EXPECT_EQ(g.count, 66u);
    EXPECT_EQ(g.count, w.count);
    EXPECT_EQ(g.sum, w.sum);
    EXPECT_EQ(g.min, w.min);
    EXPECT_EQ(g.max, w.max);
  }
}

TEST(ScanBrickTest, MultiFilterConjunction) {
  auto schema = MakeSchema();
  Brick brick(schema, schema->BidFor({4, 8}).value());
  AppendOne(brick, 1, 0, 0, 1, 0);  // region 4, day 8
  AppendOne(brick, 1, 0, 3, 2, 0);  // region 4, day 11
  AppendOne(brick, 1, 1, 3, 4, 0);  // region 5, day 11

  Query q;
  q.filters = {{0, FilterClause::Op::kEq, {4}, 0, 0},
               {1, FilterClause::Op::kRange, {}, 10, 12}};
  q.aggs = {{AggSpec::Fn::kSum, 0}};
  QueryResult result(1);
  ScanBrick(brick, Snap(1), ScanMode::kSnapshotIsolation, q, &result);
  EXPECT_DOUBLE_EQ(result.Single(0, AggSpec::Fn::kSum), 2.0);
}

/// The grouped slot fold against the oracle's row-at-a-time Eval: one cube
/// loaded into a single-shard Table and a check::SiOracle under the same
/// epochs, compared exactly (check::DiffResults) for every query and
/// snapshot, at one and three scan workers, on every SIMD backend this CPU
/// supports. Metric values are small integers and dyadic doubles, so every
/// sum is exact whatever the fold order.
class GroupedOracleFixture {
 public:
  explicit GroupedOracleFixture(std::shared_ptr<const CubeSchema> schema)
      : schema_(schema), table_(schema, 1, false), oracle_(schema) {}

  /// Appends `num_rows` rows whose coordinate in dimension d is
  /// pick(d, rng), with one int64 and one dyadic double metric.
  template <typename PickFn>
  void Append(aosi::Epoch epoch, size_t num_rows, PickFn pick) {
    std::vector<Record> records(num_rows);
    for (Record& r : records) {
      for (size_t d = 0; d < schema_->num_dimensions(); ++d) {
        r.values.emplace_back(static_cast<int64_t>(pick(d, rng_)));
      }
      r.values.emplace_back(static_cast<int64_t>(rng_() % 1001) - 500);
      r.values.emplace_back(static_cast<double>(rng_() % 8001) / 8.0 - 500.0);
    }
    auto parsed = ParseRecords(*schema_, records);
    ASSERT_TRUE(parsed.ok());
    ASSERT_TRUE(table_.Append(epoch, std::move(parsed->batches)).ok());
    oracle_.Append(epoch, records);
    if (first_bid_ == kNoBid) {
      std::vector<uint64_t> coords;
      for (size_t d = 0; d < schema_->num_dimensions(); ++d) {
        coords.push_back(
            static_cast<uint64_t>(records[0].values[d].as_int64()));
      }
      first_bid_ = schema_->BidFor(coords).value();
    }
  }

  /// Marks the brick of the first appended row deleted at `epoch`.
  void DeleteFirstBrick(aosi::Epoch epoch) {
    table_.ApplyToBrick(first_bid_,
                        [epoch](Brick& b) { b.MarkDeleted(epoch); });
    oracle_.Delete(epoch, {first_bid_});
  }

  bool HasRaggedBrick() {
    bool ragged = false;
    table_.VisitBricks(
        [&](const Brick& b) { ragged = ragged || b.num_records() % 64 != 0; });
    return ragged;
  }

  void ExpectMatches(const std::vector<Query>& queries,
                     const std::vector<aosi::Snapshot>& snapshots) {
    std::vector<simd::Backend> backends = {simd::Backend::kScalar};
    if (simd::Supported(simd::Backend::kAvx2)) {
      backends.push_back(simd::Backend::kAvx2);
    }
    const simd::Backend saved = simd::Active();
    for (simd::Backend backend : backends) {
      ASSERT_TRUE(simd::SetBackend(backend));
      for (size_t s = 0; s < snapshots.size(); ++s) {
        for (size_t q = 0; q < queries.size(); ++q) {
          const QueryResult want = oracle_.Eval(snapshots[s], queries[q]);
          EXPECT_GT(want.num_groups(), 0u);
          for (size_t workers : {1u, 3u}) {
            const QueryResult got =
                table_.Scan(snapshots[s], ScanMode::kSnapshotIsolation,
                            queries[q], nullptr, workers);
            EXPECT_EQ(check::DiffResults(want, got, queries[q]), "")
                << simd::BackendName(backend) << " snapshot " << s
                << " query " << q << " workers " << workers;
          }
        }
      }
    }
    simd::SetBackend(saved);
  }

 private:
  static constexpr Bid kNoBid = ~Bid{0};
  std::shared_ptr<const CubeSchema> schema_;
  Table table_;
  check::SiOracle oracle_;
  std::mt19937_64 rng_{7};
  Bid first_bid_ = kNoBid;
};

/// Every aggregate function over both metric types (0 = int64, 1 = double).
std::vector<AggSpec> AllAggs() {
  std::vector<AggSpec> aggs;
  for (size_t m : {0u, 1u}) {
    for (AggSpec::Fn fn : {AggSpec::Fn::kSum, AggSpec::Fn::kCount,
                           AggSpec::Fn::kMin, AggSpec::Fn::kMax,
                           AggSpec::Fn::kAvg}) {
      aggs.push_back({fn, m});
    }
  }
  return aggs;
}

/// Epochs 1, 2, 4 and 5 append; epoch 3 deletes the first row's brick.
/// Snapshots: everything, epoch 2 or 4 still pending, and before the delete.
template <typename PickFn>
std::vector<aosi::Snapshot> LoadHistory(GroupedOracleFixture* fx,
                                        size_t rows_per_epoch, PickFn pick) {
  fx->Append(1, rows_per_epoch, pick);
  fx->Append(2, rows_per_epoch, pick);
  fx->DeleteFirstBrick(3);
  fx->Append(4, rows_per_epoch, pick);
  fx->Append(5, rows_per_epoch, pick);
  return {Snap(5), Snap(5, {2}), Snap(5, {4}), Snap(2)};
}

TEST(GroupedFoldOracleTest, KeysWiderThan64Bits) {
  // Three dimensions of two 2^30-wide ranges each: a brick's group box
  // spans 2^90 offset combinations, far more than its rows. Most offsets
  // come from a few values at both ends of each range, so groups repeat;
  // the rest are random, so each brick also holds hundreds of one-row
  // groups and its slot table grows several times mid-scan.
  constexpr uint64_t kRange = uint64_t{1} << 30;
  auto schema = CubeSchema::Make("wide",
                                 {{"x", 2 * kRange, kRange, false},
                                  {"y", 2 * kRange, kRange, false},
                                  {"z", 2 * kRange, kRange, false}},
                                 {{"i", DataType::kInt64},
                                  {"d", DataType::kDouble}})
                    .value();
  GroupedOracleFixture fx(schema);
  const uint64_t offsets[] = {0, 7, kRange - 1};
  const auto snapshots =
      LoadHistory(&fx, 600, [&](size_t, std::mt19937_64& rng) {
        const uint64_t offset =
            rng() % 4 == 0 ? rng() % kRange : offsets[rng() % 3];
        return (rng() % 2) * kRange + offset;
      });
  ASSERT_TRUE(fx.HasRaggedBrick());
  Query q;
  q.group_by = {0, 1, 2};
  q.aggs = AllAggs();
  Query reversed = q;
  reversed.group_by = {2, 0, 1};
  fx.ExpectMatches({q, reversed}, snapshots);
}

TEST(GroupedFoldOracleTest, NarrowCubeSingleAndMultiDimGroups) {
  // Dimension c's last range is partial ([4, 5] of range_size 4).
  auto schema = CubeSchema::Make("narrow",
                                 {{"a", 16, 4, false},
                                  {"b", 8, 8, false},
                                  {"c", 6, 4, false}},
                                 {{"i", DataType::kInt64},
                                  {"d", DataType::kDouble}})
                    .value();
  GroupedOracleFixture fx(schema);
  const uint64_t cards[] = {16, 8, 6};
  const auto snapshots =
      LoadHistory(&fx, 500, [&](size_t d, std::mt19937_64& rng) {
        return rng() % cards[d];
      });
  ASSERT_TRUE(fx.HasRaggedBrick());
  std::vector<Query> queries;
  for (std::vector<size_t> group_by :
       {std::vector<size_t>{0}, {1}, {2}, {2, 0}, {0, 1, 2}}) {
    Query q;
    q.group_by = group_by;
    q.aggs = AllAggs();
    queries.push_back(q);
  }
  // A filter that cuts through bricks adds filter-cleared sparse words.
  Query filtered = queries[3];
  filtered.filters = {{1, FilterClause::Op::kRange, {}, 2, 5}};
  queries.push_back(filtered);
  fx.ExpectMatches(queries, snapshots);
}

TEST(GroupedFoldOracleTest, KeyAtTheDirectSlotLimitAndOneBitPast) {
  // Group-by {a, b} packs into 3 + 3 = 6 bits, the widest key the grouped
  // fold indexes directly (64 slots). Adding c's bit makes 7 bits, one past
  // the limit, so {a, b, c} and {c, a, b} take GroupSlots.
  auto schema = CubeSchema::Make("edge",
                                 {{"a", 8, 8, false},
                                  {"b", 8, 8, false},
                                  {"c", 2, 2, false}},
                                 {{"i", DataType::kInt64},
                                  {"d", DataType::kDouble}})
                    .value();
  GroupedOracleFixture fx(schema);
  const uint64_t cards[] = {8, 8, 2};
  auto pick = [&](size_t d, std::mt19937_64& rng) {
    return rng() % cards[d];
  };
  // One brick; runs of 250, 262, 300 and 212 rows end mid-word, so a
  // pending epoch leaves sparse words.
  fx.Append(1, 250, pick);
  fx.Append(2, 262, pick);
  fx.DeleteFirstBrick(3);
  fx.Append(4, 300, pick);
  fx.Append(5, 212, pick);
  std::vector<Query> queries;
  for (std::vector<size_t> group_by :
       {std::vector<size_t>{0, 1}, {0, 1, 2}, {2, 0, 1}}) {
    Query q;
    q.group_by = group_by;
    q.aggs = AllAggs();
    queries.push_back(q);
  }
  for (size_t q = 0; q < 2; ++q) {
    Query filtered = queries[q];
    filtered.filters = {{0, FilterClause::Op::kRange, {}, 2, 5}};
    queries.push_back(filtered);
  }
  fx.ExpectMatches(queries,
                   {Snap(5), Snap(5, {2}), Snap(5, {4}), Snap(2)});
}

}  // namespace
}  // namespace cubrick
