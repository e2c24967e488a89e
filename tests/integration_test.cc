// End-to-end integration tests: full single-node lifecycle across DDL,
// mixed implicit/explicit transactions, maintenance, checkpoint/recovery;
// plus failure injection on the persistence layer and shard machinery.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>

#include "common/random.h"
#include "cubrick/database.h"

namespace cubrick {
namespace {

namespace fs = std::filesystem;

cubrick::Query CountSum() {
  cubrick::Query q;
  q.aggs = {{AggSpec::Fn::kCount, 0}, {AggSpec::Fn::kSum, 0}};
  return q;
}

TEST(IntegrationTest, FullLifecycle) {
  const auto dir =
      fs::temp_directory_path() / "cubrick_integration_lifecycle";
  fs::remove_all(dir);
  fs::create_directories(dir);

  DatabaseOptions options;
  options.shards_per_cube = 2;
  options.threaded_shards = true;
  options.data_dir = dir.string();

  int64_t expected_sum = 0;
  uint64_t expected_rows = 0;
  {
    Database db(options);
    ASSERT_TRUE(db.ExecuteDdl("CREATE CUBE facts ("
                              "day int CARDINALITY 32 RANGE 1, "
                              "site string CARDINALITY 16 RANGE 4, "
                              "hits int, weight double)")
                    .ok());

    // Phase 1: daily loads from 3 concurrent clients.
    std::vector<std::thread> clients;
    std::atomic<int64_t> total{0};
    std::atomic<uint64_t> rows{0};
    for (int c = 0; c < 3; ++c) {
      clients.emplace_back([&, c] {
        Random rng(static_cast<uint64_t>(c) + 10);
        for (int batch = 0; batch < 10; ++batch) {
          std::vector<Record> records;
          for (int i = 0; i < 50; ++i) {
            const int64_t hits = static_cast<int64_t>(rng.Uniform(100));
            records.push_back(
                {static_cast<int64_t>(rng.Uniform(32)),
                 "site" + std::to_string(rng.Uniform(16)), hits,
                 rng.NextDouble()});
            total.fetch_add(hits, std::memory_order_relaxed);
            rows.fetch_add(1, std::memory_order_relaxed);
          }
          ASSERT_TRUE(db.Load("facts", records).ok());
        }
      });
    }
    for (auto& c : clients) c.join();
    expected_sum = total.load(std::memory_order_relaxed);
    expected_rows = rows.load(std::memory_order_relaxed);

    auto loaded = db.Query("facts", CountSum());
    ASSERT_TRUE(loaded.ok());
    EXPECT_DOUBLE_EQ(loaded->Single(0, AggSpec::Fn::kCount),
                     static_cast<double>(expected_rows));
    EXPECT_DOUBLE_EQ(loaded->Single(1, AggSpec::Fn::kSum),
                     static_cast<double>(expected_sum));

    // Phase 2: an explicit transaction mixing loads and an abort.
    aosi::Txn good = db.Begin();
    ASSERT_TRUE(db.LoadIn(good, "facts", {{0, "site0", 1000, 0.0}}).ok());
    aosi::Txn doomed = db.Begin();
    ASSERT_TRUE(db.LoadIn(doomed, "facts", {{1, "site1", 9999, 0.0}}).ok());
    ASSERT_TRUE(db.Rollback(doomed).ok());
    ASSERT_TRUE(db.Commit(good).ok());
    expected_sum += 1000;
    expected_rows += 1;

    // Phase 3: checkpoint everything.
    auto lse = db.Checkpoint();
    ASSERT_TRUE(lse.ok());
    EXPECT_EQ(*lse, db.txns().LCE());
  }

  // Phase 4: crash + recovery.
  Database db(options);
  ASSERT_TRUE(db.ExecuteDdl("CREATE CUBE facts ("
                            "day int CARDINALITY 32 RANGE 1, "
                            "site string CARDINALITY 16 RANGE 4, "
                            "hits int, weight double)")
                  .ok());
  ASSERT_TRUE(db.Recover().ok());
  auto recovered = db.Query("facts", CountSum());
  ASSERT_TRUE(recovered.ok());
  EXPECT_DOUBLE_EQ(recovered->Single(0, AggSpec::Fn::kCount),
                   static_cast<double>(expected_rows));
  EXPECT_DOUBLE_EQ(recovered->Single(1, AggSpec::Fn::kSum),
                   static_cast<double>(expected_sum));

  // Phase 5: retention delete + purge still work post-recovery.
  auto old_days = db.RangeFilter("facts", "day", 0, 15);
  ASSERT_TRUE(old_days.ok());
  ASSERT_TRUE(db.DeletePartitions("facts", {*old_days}).ok());
  ASSERT_TRUE(db.Load("facts", {{31, "site0", 5, 0.5}}).ok());
  db.txns().TryAdvanceLSE(db.txns().LCE());
  db.PurgeAll();
  auto pruned = db.Query("facts", CountSum());
  ASSERT_TRUE(pruned.ok());
  EXPECT_LT(pruned->Single(0, AggSpec::Fn::kCount),
            static_cast<double>(expected_rows + 1));
  fs::remove_all(dir);
}

TEST(IntegrationTest, ConcurrentReadersSeeMonotonicBatches) {
  DatabaseOptions options;
  options.threaded_shards = true;
  Database db(options);
  ASSERT_TRUE(db.ExecuteDdl("CREATE CUBE s (k int CARDINALITY 8, v int)")
                  .ok());
  constexpr uint64_t kBatch = 100;
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};

  std::thread writer([&] {
    Random rng(3);
    for (int b = 0; b < 50 && !stop.load(std::memory_order_seq_cst); ++b) {
      std::vector<Record> records;
      for (uint64_t i = 0; i < kBatch; ++i) {
        records.push_back({static_cast<int64_t>(rng.Uniform(8)), 1});
      }
      ASSERT_TRUE(db.Load("s", records).ok());
    }
    stop.store(true, std::memory_order_seq_cst);
  });

  std::thread reader([&] {
    double last = 0;
    while (!stop.load(std::memory_order_seq_cst)) {
      auto result = db.Query("s", CountSum());
      if (!result.ok()) {
        failed.store(true, std::memory_order_seq_cst);
        return;
      }
      const double count = result->Single(0, AggSpec::Fn::kCount);
      // Counts are whole batches and never go backwards.
      if (static_cast<uint64_t>(count) % kBatch != 0 || count < last) {
        failed.store(true, std::memory_order_seq_cst);
        return;
      }
      last = count;
    }
  });

  writer.join();
  stop.store(true, std::memory_order_seq_cst);
  reader.join();
  EXPECT_FALSE(failed.load(std::memory_order_seq_cst));
  EXPECT_EQ(db.TotalRecords(), 50 * kBatch);
}

TEST(IntegrationTest, CorruptManifestFailsRecoveryCleanly) {
  const auto dir = fs::temp_directory_path() / "cubrick_corrupt_manifest";
  fs::remove_all(dir);
  fs::create_directories(dir);
  DatabaseOptions options;
  options.data_dir = dir.string();
  {
    Database db(options);
    ASSERT_TRUE(
        db.ExecuteDdl("CREATE CUBE c (k int CARDINALITY 4, v int)").ok());
    ASSERT_TRUE(db.Load("c", {{0, 1}}).ok());
    ASSERT_TRUE(db.Checkpoint().ok());
  }
  const auto seg = dir / "c.seg.1";
  const auto read_segment = [&seg] {
    std::ifstream in(seg, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const std::string flushed = read_segment();
  {
    std::ofstream f(dir / "c.manifest",
                    std::ios::binary | std::ios::trunc);
    f << "garbage";
  }
  Database db(options);
  ASSERT_TRUE(
      db.ExecuteDdl("CREATE CUBE c (k int CARDINALITY 4, v int)").ok());
  // An unreadable manifest is not "nothing flushed": recovery fails, and so
  // does the next checkpoint, instead of writing round 1 over c.seg.1.
  EXPECT_EQ(db.Recover().code(), StatusCode::kIOError);
  ASSERT_TRUE(db.Load("c", {{1, 2}}).ok());
  EXPECT_EQ(db.Checkpoint().status().code(), StatusCode::kIOError);
  EXPECT_EQ(read_segment(), flushed);
  fs::remove_all(dir);
}

TEST(IntegrationTest, TruncatedSegmentFailsRecoveryWithIOError) {
  const auto dir = fs::temp_directory_path() / "cubrick_truncated_segment";
  fs::remove_all(dir);
  fs::create_directories(dir);
  DatabaseOptions options;
  options.data_dir = dir.string();
  {
    Database db(options);
    ASSERT_TRUE(
        db.ExecuteDdl("CREATE CUBE c (k int CARDINALITY 4, v int)").ok());
    std::vector<Record> rows;
    for (int i = 0; i < 1000; ++i) rows.push_back({i % 4, i});
    ASSERT_TRUE(db.Load("c", rows).ok());
    ASSERT_TRUE(db.Checkpoint().ok());
  }
  // Truncate the segment the manifest references.
  const auto seg = dir / "c.seg.1";
  ASSERT_TRUE(fs::exists(seg));
  fs::resize_file(seg, fs::file_size(seg) / 2);

  Database db(options);
  ASSERT_TRUE(
      db.ExecuteDdl("CREATE CUBE c (k int CARDINALITY 4, v int)").ok());
  EXPECT_EQ(db.Recover().code(), StatusCode::kIOError);
  fs::remove_all(dir);
}

TEST(IntegrationTest, DictionaryMismatchDetected) {
  const auto dir = fs::temp_directory_path() / "cubrick_bad_dict";
  fs::remove_all(dir);
  fs::create_directories(dir);
  DatabaseOptions options;
  options.data_dir = dir.string();
  {
    Database db(options);
    ASSERT_TRUE(db.ExecuteDdl("CREATE CUBE c (k string CARDINALITY 4, "
                              "v int)")
                    .ok());
    ASSERT_TRUE(db.Load("c", {{"a", 1}}).ok());
    ASSERT_TRUE(db.Checkpoint().ok());
  }
  {
    std::ofstream f(dir / "c.dict", std::ios::binary | std::ios::trunc);
    f << "not a dictionary";
  }
  Database db(options);
  ASSERT_TRUE(
      db.ExecuteDdl("CREATE CUBE c (k string CARDINALITY 4, v int)").ok());
  EXPECT_EQ(db.Recover().code(), StatusCode::kIOError);
  fs::remove_all(dir);
}

TEST(IntegrationTest, ShardExceptionPropagatesToCaller) {
  auto schema =
      CubeSchema::Make("t", {{"k", 4, 1, false}}, {{"v", DataType::kInt64}})
          .value();
  Shard shard(schema, /*threaded=*/true);
  auto fut = shard.Enqueue(
      [](BrickMap&) { throw std::runtime_error("injected fault"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
  // The shard thread survives the exception and keeps serving.
  auto ok = shard.Enqueue([](BrickMap&) {});
  ok.get();
}

TEST(IntegrationTest, TwoCubesAreIsolated) {
  Database db;
  ASSERT_TRUE(
      db.ExecuteDdl("CREATE CUBE a (k int CARDINALITY 4, v int)").ok());
  ASSERT_TRUE(
      db.ExecuteDdl("CREATE CUBE b (k int CARDINALITY 4, v int)").ok());
  ASSERT_TRUE(db.Load("a", {{0, 10}}).ok());
  ASSERT_TRUE(db.Load("b", {{0, 20}, {1, 30}}).ok());
  auto qa = db.Query("a", CountSum());
  auto qb = db.Query("b", CountSum());
  EXPECT_DOUBLE_EQ(qa->Single(1, AggSpec::Fn::kSum), 10.0);
  EXPECT_DOUBLE_EQ(qb->Single(1, AggSpec::Fn::kSum), 50.0);
  // A cross-cube explicit transaction commits atomically for both.
  aosi::Txn txn = db.Begin();
  ASSERT_TRUE(db.LoadIn(txn, "a", {{1, 1}}).ok());
  ASSERT_TRUE(db.LoadIn(txn, "b", {{2, 2}}).ok());
  ASSERT_TRUE(db.Commit(txn).ok());
  EXPECT_DOUBLE_EQ(db.Query("a", CountSum())->Single(1, AggSpec::Fn::kSum),
                   11.0);
  EXPECT_DOUBLE_EQ(db.Query("b", CountSum())->Single(1, AggSpec::Fn::kSum),
                   52.0);
  // Rollback of a cross-cube transaction removes from both.
  aosi::Txn bad = db.Begin();
  ASSERT_TRUE(db.LoadIn(bad, "a", {{2, 100}}).ok());
  ASSERT_TRUE(db.LoadIn(bad, "b", {{3, 100}}).ok());
  ASSERT_TRUE(db.Rollback(bad).ok());
  EXPECT_DOUBLE_EQ(db.Query("a", CountSum())->Single(1, AggSpec::Fn::kSum),
                   11.0);
  EXPECT_DOUBLE_EQ(db.Query("b", CountSum())->Single(1, AggSpec::Fn::kSum),
                   52.0);
}

TEST(IntegrationTest, DropCubeReleasesName) {
  Database db;
  ASSERT_TRUE(
      db.ExecuteDdl("CREATE CUBE c (k int CARDINALITY 4, v int)").ok());
  ASSERT_TRUE(db.Load("c", {{0, 1}}).ok());
  ASSERT_TRUE(db.DropCube("c").ok());
  EXPECT_EQ(db.FindTable("c"), nullptr);
  EXPECT_EQ(db.DropCube("c").code(), StatusCode::kNotFound);
  ASSERT_TRUE(
      db.ExecuteDdl("CREATE CUBE c (k int CARDINALITY 8, v int)").ok());
  EXPECT_EQ(db.TotalRecords(), 0u);
}

}  // namespace
}  // namespace cubrick
