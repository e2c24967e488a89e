// Ingestion tests beside the parser's own: max_rejected threshold
// semantics and error retention order on loads of thousands of records,
// concurrent loads racing new strings into one dictionary, and concurrent
// appends coalescing on threaded shards.

#include <atomic>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cubrick/database.h"
#include "engine/table.h"
#include "ingest/parser.h"

namespace cubrick {
namespace {

constexpr size_t kManyRecords = 2048;

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

TEST(IngestParallelTest, RejectedExactlyAtThresholdIsAccepted) {
  auto schema = StringSchema();
  ParseOptions opts;
  opts.max_rejected = 5;
  auto records = MixedRecords(
      kManyRecords, [](size_t i) { return i % (kManyRecords / 5) == 7; });
  auto out = ParseRecords(*schema, records, opts);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->rejected, opts.max_rejected);
  EXPECT_EQ(out->accepted, kManyRecords - opts.max_rejected);
}

TEST(IngestParallelTest, OneOverThresholdDiscardsBatch) {
  auto schema = StringSchema();
  ParseOptions opts;
  opts.max_rejected = 4;  // the workload rejects 5
  auto records = MixedRecords(
      kManyRecords, [](size_t i) { return i % (kManyRecords / 5) == 7; });
  auto out = ParseRecords(*schema, records, opts);
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(out.status().ToString().find("max_rejected=4"),
            std::string::npos);
}

TEST(IngestParallelTest, AllRejectedBatch) {
  auto schema = StringSchema();
  ParseOptions opts;
  opts.max_rejected = kManyRecords;
  auto records = MixedRecords(kManyRecords, [](size_t) { return true; });
  auto out = ParseRecords(*schema, records, opts);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->accepted, 0u);
  EXPECT_EQ(out->rejected, kManyRecords);
  EXPECT_EQ(out->batches.num_rows, 0u);
  EXPECT_EQ(out->batches.num_partitions(), 0u);
  EXPECT_EQ(out->errors.size(), opts.max_errors);
}

TEST(IngestParallelTest, EmptyBatch) {
  auto schema = StringSchema();
  auto out = ParseRecords(*schema, {});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->accepted, 0u);
  EXPECT_EQ(out->rejected, 0u);
  EXPECT_EQ(out->batches.num_rows, 0u);
  EXPECT_EQ(out->batches.num_partitions(), 0u);
  EXPECT_TRUE(out->errors.empty());
}

TEST(IngestParallelTest, ErrorRetentionOrderMatchesRecordOrder) {
  // Rejections spread over the load; each carries a distinguishable
  // message (the dimension value), so retention order is checkable.
  auto schema = CubeSchema::Make("c", {{"d", 1000, 100, false}},
                                 {{"m", DataType::kInt64}})
                    .value();
  std::vector<Record> records;
  const std::vector<size_t> reject_at = {3, 583, 1166, 1284, 1924};
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
  auto out = ParseRecords(*schema, records, opts);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->rejected, reject_at.size());
  ASSERT_EQ(out->errors.size(), 3u);
  for (size_t k = 0; k < 3; ++k) {
    EXPECT_NE(
        out->errors[k].find("value " + std::to_string(1000 + reject_at[k])),
        std::string::npos)
        << out->errors[k];
  }
}

TEST(IngestParallelTest, ConcurrentStringLoadsShareOneDictionary) {
  // Four threads load overlapping sets of known and new strings into one
  // string dimension at once, on threaded shards. A load's lookup and its
  // insert take the dictionary lock separately, so another load can add a
  // string between them, and the insert must then return the id that load
  // gave it.
  constexpr size_t kThreads = 4;
  constexpr size_t kLoads = 32;
  constexpr size_t kRecordsPerLoad = 1024;
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

  DatabaseOptions opts;
  opts.threaded_shards = true;
  opts.shards_per_cube = 4;
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

// Eight loaders call Append at once on threaded shards, so a shard's drain
// op can pick up several staged requests (group appends). The name is kept
// from the former asynchronous append flavour, now folded into Append.
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
