// Morsel-parallel ingestion tests (DESIGN.md §4f): the morsel plan's
// floor, max_rejected threshold semantics, error-string retention order
// under parallel parse, and the serial==parallel equivalence contract —
// identical dictionary ids, brick contents and epochs-vector state
// regardless of fan-out. Every parallel side moves pool.tasks_total, so
// each comparison is against a real fan-out.

#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cubrick/database.h"
#include "engine/table.h"
#include "ingest/parser.h"
#include "ingest_random_load.h"
#include "obs/metrics.h"

namespace cubrick {
namespace {

// Enough records that a fan-out of 4 plans 4 morsels: the planner gives
// every morsel at least kMinMorselRecords.
constexpr size_t kManyRecords = 4 * kMinMorselRecords;
// Enough for the widest fan-out below, 13 morsels.
constexpr size_t kFanOut13Records = 13 * kMinMorselRecords;

/// Tasks submitted to the shared pool so far. A parse of k > 1 morsels
/// submits k per phase: the dictionary lookup phase (only with a string
/// column) and the encode phase.
uint64_t PoolTasks() {
  return obs::MetricsRegistry::Global().GetCounter("pool.tasks_total")->Value();
}

/// ParseRecords, expecting it to submit pool tasks exactly when
/// `parallelism` > 1.
Result<ParseOutput> ParseExpectingFanOut(const CubeSchema& schema,
                                         const std::vector<Record>& records,
                                         const ParseOptions& options,
                                         size_t parallelism) {
  const uint64_t before = PoolTasks();
  auto out = ParseRecords(schema, records, options, parallelism);
  if (parallelism > 1) {
    EXPECT_GT(PoolTasks(), before) << "fan-out " << parallelism;
  } else {
    EXPECT_EQ(PoolTasks(), before);
  }
  return out;
}

std::shared_ptr<CubeSchema> StringSchema() {
  return CubeSchema::Make(
             "ingest", {{"region", 64, 4, /*is_string=*/true}},
             {{"n", DataType::kInt64}, {"tag", DataType::kString}})
      .value();
}

/// A record mix with string dims/metrics in deliberately unsorted order and
/// a rejection (bad metric type) at every index where `reject(i)` holds.
std::vector<Record> MixedRecords(size_t n,
                                 const std::function<bool(size_t)>& reject) {
  std::vector<Record> records;
  records.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    // Descending suffix so first-encounter order != sorted order.
    const std::string region = "region-" + std::to_string(31 - (i % 32));
    const std::string tag = "tag-" + std::to_string((n - i) % 48);
    if (reject && reject(i)) {
      records.push_back({region, Value("not-an-int"), tag});
    } else {
      records.push_back({region, static_cast<int64_t>(i), tag});
    }
  }
  return records;
}

TEST(IngestParallelTest, MorselPlanKeepsTheFloor) {
  // At fan-out 4 the plan rounds records / kMinMorselRecords down: a load
  // under twice the floor parses on the caller, twice the floor splits in
  // two and four times the floor in four. Each morsel is one pool task per
  // phase, so the string cube submits twice the int-only cube's tasks.
  const auto int_only = CubeSchema::Make("ints", {{"d", 1000, 100, false}},
                                         {{"m", DataType::kInt64}})
                            .value();
  const auto strings = StringSchema();
  const std::vector<std::pair<size_t, uint64_t>> plans = {
      {2 * kMinMorselRecords - 1, 0},
      {2 * kMinMorselRecords, 2},
      {4 * kMinMorselRecords, 4}};
  for (const auto& [n, morsels] : plans) {
    std::vector<Record> ints;
    for (size_t i = 0; i < n; ++i) {
      ints.push_back({static_cast<int64_t>(i % 1000), static_cast<int64_t>(i)});
    }
    uint64_t before = PoolTasks();
    auto out = ParseRecords(*int_only, ints, {}, /*parallelism=*/4);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out->accepted, n);
    EXPECT_EQ(PoolTasks() - before, morsels) << n << " int-only records";

    before = PoolTasks();
    out = ParseRecords(*strings, MixedRecords(n, nullptr), {},
                       /*parallelism=*/4);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out->accepted, n);
    EXPECT_EQ(PoolTasks() - before, 2 * morsels) << n << " string records";
  }
}

TEST(IngestParallelTest, RejectedExactlyAtThresholdIsAccepted) {
  for (size_t parallelism : {size_t{1}, size_t{4}}) {
    auto schema = StringSchema();
    ParseOptions opts;
    opts.max_rejected = 5;
    // Five rejections: two in the first morsel, one in each other.
    auto records = MixedRecords(
        kManyRecords, [](size_t i) { return i % (kManyRecords / 5) == 7; });
    auto out = ParseExpectingFanOut(*schema, records, opts, parallelism);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out->rejected, opts.max_rejected);
    EXPECT_EQ(out->accepted, kManyRecords - opts.max_rejected);
  }
}

TEST(IngestParallelTest, OneOverThresholdDiscardsBatch) {
  for (size_t parallelism : {size_t{1}, size_t{4}}) {
    auto schema = StringSchema();
    ParseOptions opts;
    opts.max_rejected = 4;  // the workload rejects 5
    auto records = MixedRecords(
        kManyRecords, [](size_t i) { return i % (kManyRecords / 5) == 7; });
    auto out = ParseExpectingFanOut(*schema, records, opts, parallelism);
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(out.status().ToString().find("max_rejected=4"),
              std::string::npos);
  }
}

TEST(IngestParallelTest, AllRejectedBatch) {
  auto schema = StringSchema();
  ParseOptions opts;
  opts.max_rejected = kManyRecords;
  auto records = MixedRecords(kManyRecords, [](size_t) { return true; });
  auto out = ParseExpectingFanOut(*schema, records, opts, /*parallelism=*/4);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->accepted, 0u);
  EXPECT_EQ(out->rejected, kManyRecords);
  EXPECT_EQ(out->batches.num_rows, 0u);
  EXPECT_EQ(out->batches.num_partitions(), 0u);
  EXPECT_EQ(out->errors.size(), opts.max_errors);
}

TEST(IngestParallelTest, EmptyBatch) {
  auto schema = StringSchema();
  auto out = ParseRecords(*schema, {}, {}, /*parallelism=*/4);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->accepted, 0u);
  EXPECT_EQ(out->rejected, 0u);
  EXPECT_EQ(out->batches.num_rows, 0u);
  EXPECT_EQ(out->batches.num_partitions(), 0u);
  EXPECT_TRUE(out->errors.empty());
}

TEST(IngestParallelTest, ErrorRetentionOrderMatchesRecordOrder) {
  // Rejections land in each of the four morsels; each carries a
  // distinguishable message (the dimension value), so retention order is
  // checkable.
  auto schema = CubeSchema::Make("c", {{"d", 1000, 100, false}},
                                 {{"m", DataType::kInt64}})
                    .value();
  std::vector<Record> records;
  constexpr size_t k = kMinMorselRecords;
  std::vector<size_t> reject_at = {3, k + 71, 2 * k + 142, 2 * k + 260,
                                   3 * k + 388};
  for (size_t i = 0; i < kManyRecords; ++i) {
    const bool bad =
        std::find(reject_at.begin(), reject_at.end(), i) != reject_at.end();
    // Out-of-cardinality coordinate 1000+i names the record in the error.
    records.push_back({static_cast<int64_t>(bad ? 1000 + i : i % 1000),
                       static_cast<int64_t>(i)});
  }
  ParseOptions opts;
  opts.max_rejected = 10;
  opts.max_errors = 3;  // fewer than the rejection count: must truncate
  auto serial = ParseExpectingFanOut(*schema, records, opts, 1);
  auto parallel = ParseExpectingFanOut(*schema, records, opts, 4);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ(serial->errors.size(), 3u);
  EXPECT_EQ(serial->errors, parallel->errors);
  for (size_t k = 0; k < 3; ++k) {
    EXPECT_NE(
        serial->errors[k].find("value " + std::to_string(1000 + reject_at[k])),
        std::string::npos)
        << serial->errors[k];
  }
}

TEST(IngestParallelTest, SerialAndParallelProduceIdenticalState) {
  auto records =
      MixedRecords(kFanOut13Records, [](size_t i) { return i % 1000 == 50; });
  ParseOptions opts;
  opts.max_rejected = 20;

  auto run = [&](size_t parallelism) {
    auto schema = StringSchema();
    auto out = ParseExpectingFanOut(*schema, records, opts, parallelism);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return std::make_pair(schema, std::move(*out));
  };
  auto [serial_schema, serial] = run(1);
  for (size_t parallelism : {size_t{2}, size_t{4}, size_t{13}}) {
    auto [par_schema, parallel] = run(parallelism);

    EXPECT_EQ(serial.accepted, parallel.accepted);
    EXPECT_EQ(serial.rejected, parallel.rejected);
    EXPECT_EQ(serial.errors, parallel.errors);

    // Identical dictionary ids: same size, and every id decodes to the
    // same string on both sides (dimension 0 and string metric).
    for (size_t col : {size_t{0}, size_t{2}}) {
      const StringDictionary* a = serial_schema->dictionary(col);
      const StringDictionary* b = par_schema->dictionary(col);
      ASSERT_EQ(a->size(), b->size()) << "column " << col;
      for (uint64_t id = 0; id < a->size(); ++id) {
        EXPECT_EQ(a->Decode(id).value(), b->Decode(id).value())
            << "column " << col << " id " << id;
      }
    }

    // Identical batch, field by field: partition bids and bounds, then
    // every column row for row.
    const EncodedBatch& a = serial.batches;
    const EncodedBatch& b = parallel.batches;
    EXPECT_EQ(a.num_rows, b.num_rows);
    EXPECT_EQ(a.bids, b.bids);
    EXPECT_EQ(a.starts, b.starts);
    EXPECT_EQ(a.dim_offsets, b.dim_offsets);
    EXPECT_EQ(a.metric_ints, b.metric_ints);
    EXPECT_EQ(a.metric_doubles, b.metric_doubles);
  }
}

TEST(IngestParallelTest, RandomLoadsPartitionIdenticallyAtAnyFanOut) {
  // 13 * kMinMorselRecords records plan 13 morsels at fan-out 13; every
  // fan-out must give the serial batch and dictionaries exactly, and each
  // output must meet the partition contract on its own.
  for (auto make_cube : {ingest_test::StringDimCube, ingest_test::WideBidCube}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      const auto load = ingest_test::MakeRandomLoad(
          *make_cube(), kFanOut13Records, 100 + seed);
      ParseOptions opts;
      opts.max_rejected = load.records.size();
      auto run = [&](size_t parallelism) {
        auto schema = make_cube();
        auto out =
            ParseExpectingFanOut(*schema, load.records, opts, parallelism);
        EXPECT_TRUE(out.ok()) << out.status().ToString();
        return std::make_pair(schema, std::move(*out));
      };
      const auto [serial_schema, serial] = run(1);
      for (size_t parallelism : {size_t{1}, size_t{2}, size_t{4}, size_t{13}}) {
        SCOPED_TRACE(serial_schema->cube_name() + " seed " +
                     std::to_string(seed) + " fan-out " +
                     std::to_string(parallelism));
        const auto [schema, parallel] = run(parallelism);
        ingest_test::ExpectPartitionedLoad(*schema, load, parallel);
        EXPECT_EQ(serial.accepted, parallel.accepted);
        EXPECT_EQ(serial.rejected, parallel.rejected);
        EXPECT_EQ(serial.errors, parallel.errors);
        const EncodedBatch& a = serial.batches;
        const EncodedBatch& b = parallel.batches;
        EXPECT_EQ(a.num_rows, b.num_rows);
        EXPECT_EQ(a.bids, b.bids);
        EXPECT_EQ(a.starts, b.starts);
        EXPECT_EQ(a.dim_offsets, b.dim_offsets);
        EXPECT_EQ(a.metric_ints, b.metric_ints);
        EXPECT_EQ(a.metric_doubles, b.metric_doubles);
        for (size_t c = 0; c < schema->num_columns(); ++c) {
          const StringDictionary* da = serial_schema->dictionary(c);
          const StringDictionary* db = schema->dictionary(c);
          if (da == nullptr) continue;
          ASSERT_EQ(da->size(), db->size()) << "column " << c;
          for (uint64_t id = 0; id < da->size(); ++id) {
            EXPECT_EQ(da->Decode(id).value(), db->Decode(id).value());
          }
        }
      }
    }
  }
}

TEST(IngestParallelTest, DatabaseLoadEquivalentAcrossParallelism) {
  // End-to-end: identical queries and epochs-vector footprint whether the
  // loads ran through the serial or the morsel-parallel pipeline.
  auto run = [&](size_t parallelism) {
    const uint64_t before = PoolTasks();
    DatabaseOptions db_opts;
    db_opts.ingest_parallelism = parallelism;
    auto db = std::make_unique<Database>(db_opts);
    EXPECT_TRUE(db->ExecuteDdl("CREATE CUBE c (region string CARDINALITY 64, "
                               "n int)")
                    .ok());
    for (int load = 0; load < 3; ++load) {
      std::vector<Record> records;
      for (size_t i = 0; i < kManyRecords; ++i) {
        records.push_back(
            {std::string("r").append(
                 std::to_string((i * 7 + load) % 50)),
             static_cast<int64_t>(i + load)});
      }
      EXPECT_TRUE(db->Load("c", records).ok());
    }
    if (parallelism > 1) {
      EXPECT_GT(PoolTasks(), before);
    }
    return db;
  };
  auto serial = run(1);
  auto parallel = run(4);

  EXPECT_EQ(serial->TotalRecords(), parallel->TotalRecords());
  EXPECT_EQ(serial->HistoryMemoryUsage(), parallel->HistoryMemoryUsage());
  Query q;
  q.aggs = {{AggSpec::Fn::kSum, 0}, {AggSpec::Fn::kCount, 0}};
  q.group_by = {0};
  auto qa = serial->Query("c", q);
  auto qb = parallel->Query("c", q);
  ASSERT_TRUE(qa.ok());
  ASSERT_TRUE(qb.ok());
  ASSERT_EQ(qa->num_groups(), qb->num_groups());
  for (const auto& [key, states] : qa->groups()) {
    // Same dictionary ids on both sides, so group keys line up directly.
    EXPECT_DOUBLE_EQ(qa->Value(key, 0, AggSpec::Fn::kSum),
                     qb->Value(key, 0, AggSpec::Fn::kSum));
    EXPECT_DOUBLE_EQ(qa->Value(key, 0, AggSpec::Fn::kCount),
                     qb->Value(key, 0, AggSpec::Fn::kCount));
  }
}

// Eight loaders call Append at once on threaded shards, so a shard's drain
// op can pick up several staged requests (group appends). The name is kept
// from the former asynchronous append flavour, now folded into Append.
TEST(IngestParallelTest, ConcurrentStringLoadsShareOneDictionary) {
  // Four threads load overlapping sets of known and new strings into one
  // string dimension at once, on threaded shards; at fan-out 4 each load's
  // two morsels race as well. A load's lookup and its insert take the
  // dictionary lock separately, so another load can add a string between
  // them, and the insert must then return the id that load gave it.
  constexpr size_t kThreads = 4;
  constexpr size_t kLoads = 32;
  constexpr size_t kRecordsPerLoad = 2 * kMinMorselRecords;
  constexpr size_t kKnown = 32;
  constexpr size_t kNewPerLoad = 16;
  // Load k carries a known string in its even records and one of new-k to
  // new-(k + 15) in its odd ones, so any two loads less than 16 apart, as
  // concurrent loads are, bring mostly the same new strings.
  const auto region = [](size_t k, size_t i) {
    if (i % 2 == 0) return "known-" + std::to_string((i / 2 + k) % kKnown);
    return "new-" + std::to_string(k + i / 2 % kNewPerLoad);
  };
  const auto make_load = [&region](size_t k) {
    std::vector<Record> records;
    for (size_t i = 0; i < kRecordsPerLoad; ++i) {
      records.push_back({region(k, i), static_cast<int64_t>(i)});
    }
    return records;
  };
  std::map<std::string, double> expected;
  for (size_t k = 0; k < kKnown; ++k) ++expected["known-" + std::to_string(k)];
  for (size_t k = 0; k < kLoads; ++k) {
    for (size_t i = 0; i < kRecordsPerLoad; ++i) ++expected[region(k, i)];
  }

  for (size_t parallelism : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("fan-out " + std::to_string(parallelism));
    const uint64_t before = PoolTasks();
    DatabaseOptions opts;
    opts.threaded_shards = true;
    opts.shards_per_cube = 4;
    opts.ingest_parallelism = parallelism;
    Database db(opts);
    ASSERT_TRUE(
        db.ExecuteDdl("CREATE CUBE c (region string CARDINALITY 128, n int)")
            .ok());
    std::vector<Record> known;
    for (size_t k = 0; k < kKnown; ++k) {
      known.push_back({"known-" + std::to_string(k), int64_t{0}});
    }
    ASSERT_TRUE(db.Load("c", known).ok());

    // The threads take loads in order from one counter.
    std::vector<Status> statuses(kLoads);
    std::atomic<size_t> next_load{0};
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        const auto take = [&] {
          return next_load.fetch_add(1, std::memory_order_relaxed);
        };
        for (size_t k = take(); k < kLoads; k = take()) {
          statuses[k] = db.Load("c", make_load(k));
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (const Status& status : statuses) {
      ASSERT_TRUE(status.ok()) << status.ToString();
    }
    if (parallelism > 1) {
      EXPECT_GT(PoolTasks(), before);
    }

    // Ids are dense and unique, and every string round-trips.
    const StringDictionary* dict = db.FindSchema("c")->dictionary(0);
    ASSERT_EQ(dict->size(), expected.size());
    std::set<uint64_t> ids;
    for (const auto& [value, count] : expected) {
      const auto id = dict->Encode(value);
      ASSERT_TRUE(id.ok()) << value;
      EXPECT_EQ(dict->Decode(*id).value(), value);
      ids.insert(*id);
    }
    ASSERT_EQ(ids.size(), expected.size());
    EXPECT_EQ(*ids.rbegin(), expected.size() - 1);

    Query q;
    q.group_by = {0};
    q.aggs = {{AggSpec::Fn::kCount, 0}};
    auto result = db.Query("c", q);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::map<std::string, double> counted;
    for (const auto& [key, states] : result->groups()) {
      counted[dict->Decode(key[0]).value()] =
          states[0].Finalize(AggSpec::Fn::kCount);
    }
    EXPECT_EQ(counted, expected);
  }
}

TEST(IngestParallelTest, AppendAsyncOverlapsAndGroupAppendsCoalesce) {
  auto schema = CubeSchema::Make("events",
                                 {{"k", 16, 2, /*is_string=*/false}},
                                 {{"n", DataType::kInt64}})
                    .value();
  Table table(schema, 2, /*threaded=*/true);
  std::vector<std::thread> loaders;
  for (aosi::Epoch e = 1; e <= 8; ++e) {
    loaders.emplace_back([&table, &schema, e] {
      std::vector<Record> records;
      for (int64_t k = 0; k < 16; ++k) {
        records.push_back({k, static_cast<int64_t>(e)});
      }
      auto parsed = ParseRecords(*schema, records);
      ASSERT_TRUE(parsed.ok());
      EXPECT_TRUE(table.Append(e, std::move(parsed->batches)).ok());
    });
  }
  for (auto& loader : loaders) loader.join();
  EXPECT_EQ(table.TotalRecords(), 8u * 16u);
  // Each epoch keeps its own stamp even when drains coalesce requests.
  auto result = table.Scan(aosi::Snapshot{4, {}},
                           ScanMode::kSnapshotIsolation, [] {
                             Query q;
                             q.aggs = {{AggSpec::Fn::kCount, 0}};
                             return q;
                           }());
  EXPECT_DOUBLE_EQ(result.Single(0, AggSpec::Fn::kCount), 4.0 * 16.0);
}

}  // namespace
}  // namespace cubrick
