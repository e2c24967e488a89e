// Brick, bess-column and dictionary tests.

#include "storage/brick.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "aosi/visibility.h"
#include "common/random.h"
#include "storage/bess_column.h"
#include "storage/brick_map.h"
#include "storage/dictionary.h"

namespace cubrick {
namespace {

TEST(DictionaryTest, EncodeAssignsDenseMonotonicIds) {
  StringDictionary dict;
  EXPECT_EQ(dict.EncodeOrAdd("US"), 0u);
  EXPECT_EQ(dict.EncodeOrAdd("BR"), 1u);
  EXPECT_EQ(dict.EncodeOrAdd("US"), 0u);  // idempotent
  EXPECT_EQ(dict.EncodeOrAdd("FR"), 2u);
  EXPECT_EQ(dict.size(), 3u);
}

TEST(DictionaryTest, DecodeRoundTrip) {
  StringDictionary dict;
  dict.EncodeOrAdd("male");
  dict.EncodeOrAdd("female");
  EXPECT_EQ(dict.Decode(0).value(), "male");
  EXPECT_EQ(dict.Decode(1).value(), "female");
  EXPECT_EQ(dict.Decode(2).status().code(), StatusCode::kOutOfRange);
}

TEST(DictionaryTest, EncodeWithoutInsert) {
  StringDictionary dict;
  dict.EncodeOrAdd("a");
  EXPECT_EQ(dict.Encode("a").value(), 0u);
  EXPECT_EQ(dict.Encode("b").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(dict.size(), 1u);
}

TEST(DictionaryTest, LookupFindsKnownStringsAndInsertsNothing) {
  StringDictionary dict;
  dict.EncodeOrAdd("US");
  dict.EncodeOrAdd("BR");
  const std::vector<uint64_t> ids = dict.Lookup({"BR", "FR", "US", "BR", ""});
  EXPECT_EQ(ids, (std::vector<uint64_t>{1, StringDictionary::kMissing, 0, 1,
                                        StringDictionary::kMissing}));
  EXPECT_TRUE(dict.Lookup({}).empty());
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.Encode("FR").status().code(), StatusCode::kNotFound);
}

TEST(DictionaryTest, BatchInsertAssignsSortedDenseIdsAndSkipsPresent) {
  StringDictionary dict;
  dict.EncodeOrAdd("m");
  // Sorted and deduplicated, as the parse's phase 2 hands it over; "m" is
  // already present and keeps its id, and the absent strings are numbered
  // in list order.
  size_t added = 0;
  EXPECT_EQ(dict.InsertSorted({"a", "m", "z"}, &added),
            (std::vector<uint64_t>{1, 0, 2}));
  EXPECT_EQ(added, 2u);
  EXPECT_EQ(dict.Encode("m").value(), 0u);
  EXPECT_EQ(dict.Encode("a").value(), 1u);
  EXPECT_EQ(dict.Encode("z").value(), 2u);
  EXPECT_EQ(dict.InsertSorted({"a", "z"}, &added),
            (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(added, 0u);
  EXPECT_TRUE(dict.InsertSorted({}, &added).empty());
  EXPECT_EQ(added, 0u);
  EXPECT_EQ(dict.InsertSorted({"b", "n", "z"}, &added),
            (std::vector<uint64_t>{3, 4, 2}));
  EXPECT_EQ(added, 2u);
  EXPECT_EQ(dict.size(), 5u);
  EXPECT_EQ(dict.Decode(2).value(), "z");
  EXPECT_EQ(dict.Decode(4).value(), "n");
  EXPECT_EQ(dict.Lookup({"n", "b"}), (std::vector<uint64_t>{4, 3}));
}

TEST(BessColumnTest, PacksAndUnpacksOffsets) {
  BessColumn bess({3, 0, 5});
  EXPECT_EQ(bess.bits_per_record(), 8u);
  bess.Append({7, 0, 31});
  bess.Append({1, 0, 2});
  bess.Append({0, 0, 0});
  EXPECT_EQ(bess.num_records(), 3u);
  EXPECT_EQ(bess.Get(0, 0), 7u);
  EXPECT_EQ(bess.Get(0, 1), 0u);
  EXPECT_EQ(bess.Get(0, 2), 31u);
  EXPECT_EQ(bess.Get(1, 0), 1u);
  EXPECT_EQ(bess.Get(1, 2), 2u);
  EXPECT_EQ(bess.Get(2, 2), 0u);
}

TEST(BessColumnTest, ZeroBitRecordsStoreNothing) {
  BessColumn bess({0, 0});
  for (int i = 0; i < 1000; ++i) bess.Append({0, 0});
  EXPECT_EQ(bess.num_records(), 1000u);
  EXPECT_EQ(bess.MemoryUsage(), 0u);
  EXPECT_EQ(bess.Get(999, 1), 0u);
}

TEST(BessColumnTest, CrossWordBoundaries) {
  // 17 bits per record guarantees fields straddle 64-bit word boundaries.
  BessColumn bess({17});
  Random rng(7);
  std::vector<uint64_t> expected;
  for (int i = 0; i < 500; ++i) {
    const uint64_t v = rng.Uniform(1ULL << 17);
    expected.push_back(v);
    bess.Append({v});
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(bess.Get(i, 0), expected[i]) << "row " << i;
  }
}

TEST(BessColumnTest, WideFieldsUpTo64Bits) {
  BessColumn bess({64, 1});
  bess.Append({~0ULL, 1});
  bess.Append({12345678901234567ULL, 0});
  EXPECT_EQ(bess.Get(0, 0), ~0ULL);
  EXPECT_EQ(bess.Get(0, 1), 1u);
  EXPECT_EQ(bess.Get(1, 0), 12345678901234567ULL);
}

TEST(BessColumnTest, DecodeDimMatchesGetAtEveryWidth) {
  // Layout {5, width, pad} puts a field of every width from 0 to 64 between
  // two narrow ones, in a record whose width is not a multiple of 8, so the
  // fields' first bits walk through every offset within a byte. Every start
  // row decodes every count up to and including the column's last row:
  // rows whose 8 bytes lie inside the column take DecodeDim's one-load
  // path, the column's last bytes and fields wider than 57 bits ReadBits.
  Random rng(11);
  for (uint32_t width = 0; width <= 64; ++width) {
    const uint32_t pad = width % 8 == 1 ? 3 : 2;
    const std::vector<uint32_t> bits = {5, width, pad};
    for (uint64_t rows : {1u, 13u, 40u}) {
      BessColumn bess(bits);
      ASSERT_NE(bess.bits_per_record() % 8, 0u);
      for (uint64_t r = 0; r < rows; ++r) {
        std::vector<uint64_t> offsets;
        for (uint32_t b : bits) {
          offsets.push_back(b == 64 ? rng.Next()
                                    : rng.Next() & ((uint64_t{1} << b) - 1));
        }
        bess.Append(offsets);
      }
      std::vector<uint64_t> out(rows);
      for (size_t dim = 0; dim < bits.size(); ++dim) {
        for (uint64_t start = 0; start < rows; ++start) {
          for (uint64_t count = 1; start + count <= rows; ++count) {
            bess.DecodeDim(start, count, dim, out.data());
            for (uint64_t i = 0; i < count; ++i) {
              ASSERT_EQ(out[i], bess.Get(start + i, dim))
                  << "width " << width << " rows " << rows << " dim " << dim
                  << " start " << start << " count " << count << " i " << i;
            }
          }
        }
      }
    }
  }
}

TEST(BessColumnTest, CompactedCopyKeepsSelectedRows) {
  BessColumn bess({8});
  for (uint64_t i = 0; i < 10; ++i) bess.Append({i});
  BessColumn even = bess.CompactedCopy([](uint64_t row) {
    return row % 2 == 0;
  });
  EXPECT_EQ(even.num_records(), 5u);
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(even.Get(i, 0), i * 2);
  }
}

TEST(BessColumnTest, RejectsOverflowingValue) {
  BessColumn bess({2});
  EXPECT_THROW(bess.Append({4}), CheckFailure);
}

std::shared_ptr<CubeSchema> TestSchema() {
  return CubeSchema::Make(
             "t",
             {{"region", 8, 4, false}, {"tag", 16, 2, false}},
             {{"likes", DataType::kInt64}, {"score", DataType::kDouble}})
      .value();
}

/// `rows` random rows as one partition of brick `bid`.
EncodedBatch MakeBatch(const CubeSchema& schema, Bid bid, uint64_t rows,
                       uint64_t seed = 1) {
  EncodedBatch batch(schema);
  Random rng(seed);
  batch.num_rows = rows;
  for (uint64_t r = 0; r < rows; ++r) {
    batch.dim_offsets[0].push_back(rng.Uniform(4));
    batch.dim_offsets[1].push_back(rng.Uniform(2));
    batch.metric_ints[0].push_back(static_cast<int64_t>(r));
    batch.metric_doubles[1].push_back(static_cast<double>(r) * 0.5);
  }
  batch.ClosePartition(bid);
  return batch;
}

TEST(BrickTest, AppendsRecordsWithHistory) {
  auto schema = TestSchema();
  const Bid bid = schema->BidFor({5, 3}).value();
  Brick brick(schema, bid);
  brick.AppendBatch(1, MakeBatch(*schema, brick.bid(), 10), 0);
  brick.AppendBatch(2, MakeBatch(*schema, brick.bid(), 5), 0);
  EXPECT_EQ(brick.num_records(), 15u);
  EXPECT_EQ(brick.history().ToString(), "[1:0-9][2:10-14]");
  EXPECT_EQ(brick.metric(0).GetInt64(12), 2);
  EXPECT_DOUBLE_EQ(brick.metric(1).GetDouble(3), 1.5);
}

TEST(BrickTest, DimCoordAddsRangeBase) {
  auto schema = TestSchema();
  // region coord 5 -> range idx 1 (base 4); tag coord 3 -> range idx 1
  // (base 2).
  const Bid bid = schema->BidFor({5, 3}).value();
  Brick brick(schema, bid);
  EncodedBatch batch(*schema);
  batch.num_rows = 1;
  batch.dim_offsets[0].push_back(1);  // offset 1 within region range
  batch.dim_offsets[1].push_back(0);  // offset 0 within tag range
  batch.metric_ints[0].push_back(7);
  batch.metric_doubles[1].push_back(1.0);
  batch.ClosePartition(bid);
  brick.AppendBatch(3, batch, 0);
  EXPECT_EQ(brick.DimCoord(0, 0), 5u);
  EXPECT_EQ(brick.DimCoord(0, 1), 2u);
}

TEST(BrickTest, MarkDeletedThenCompact) {
  auto schema = TestSchema();
  Brick brick(schema, 0);
  brick.AppendBatch(1, MakeBatch(*schema, brick.bid(), 4), 0);
  brick.MarkDeleted(2);
  brick.AppendBatch(3, MakeBatch(*schema, brick.bid(), 2, /*seed=*/9), 0);
  const int64_t kept0 = brick.metric(0).GetInt64(4);

  auto plan = aosi::PlanPurge(brick.history(), /*lse=*/4);
  ASSERT_TRUE(plan.needed);
  brick.ApplyCompaction(plan);
  EXPECT_EQ(brick.num_records(), 2u);
  EXPECT_EQ(brick.history().ToString(), "[3:0-1]");
  EXPECT_EQ(brick.metric(0).GetInt64(0), kept0);
}

TEST(BrickTest, CompactionPreservesColumnAlignment) {
  auto schema = TestSchema();
  Brick brick(schema, 0);
  brick.AppendBatch(2, MakeBatch(*schema, brick.bid(), 50, 11), 0);
  brick.AppendBatch(5, MakeBatch(*schema, brick.bid(), 30, 22), 0);
  // Roll back epoch 5.
  auto plan = aosi::PlanRollback(brick.history(), 5);
  ASSERT_TRUE(plan.needed);
  // Capture surviving rows before compaction.
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<uint64_t> dims;
  for (uint64_t r = 0; r < 50; ++r) {
    ints.push_back(brick.metric(0).GetInt64(r));
    doubles.push_back(brick.metric(1).GetDouble(r));
    dims.push_back(brick.DimCoord(r, 0));
  }
  brick.ApplyCompaction(plan);
  ASSERT_EQ(brick.num_records(), 50u);
  for (uint64_t r = 0; r < 50; ++r) {
    EXPECT_EQ(brick.metric(0).GetInt64(r), ints[r]);
    EXPECT_DOUBLE_EQ(brick.metric(1).GetDouble(r), doubles[r]);
    EXPECT_EQ(brick.DimCoord(r, 0), dims[r]);
  }
}

TEST(BrickTest, HistoryMemoryIsPerTransactionNotPerRecord) {
  auto schema = TestSchema();
  Brick brick(schema, 0);
  brick.AppendBatch(1, MakeBatch(*schema, brick.bid(), 10000), 0);
  EXPECT_EQ(brick.HistoryMemoryUsage(), sizeof(aosi::EpochEntry));
  EXPECT_GT(brick.DataMemoryUsage(), 10000u * 8u);
}

TEST(BrickTest, BulkAppendFootprintMatchesRowAtATime) {
  // bytes_per_row is an end-to-end metric, so a brick's footprint must not
  // depend on how its rows were batched: appending partitions of 1..1000
  // rows must grow every column exactly as appending the same rows one at
  // a time.
  // The second cube packs 90 bess bits per record, two words per row.
  const auto wide = CubeSchema::Make(
                        "w",
                        {{"a", 1ULL << 30, 1ULL << 30, false},
                         {"b", 1ULL << 30, 1ULL << 30, false},
                         {"c", 1ULL << 30, 1ULL << 30, false}},
                        {{"n", DataType::kInt64}, {"x", DataType::kDouble}})
                        .value();
  for (const auto& schema : {TestSchema(), wide}) {
    Random rng(7);
    Brick bulk(schema, 0);
    Brick single(schema, 0);
    BessColumn reference_bess(bulk.bess());  // empty, same layout
    std::vector<int64_t> reference_metric;
    for (uint64_t n : {1, 2, 3, 63, 64, 65, 1000}) {
      EncodedBatch batch(*schema);
      batch.num_rows = n;
      for (uint64_t r = 0; r < n; ++r) {
        std::vector<uint64_t> offsets;
        for (size_t d = 0; d < schema->num_dimensions(); ++d) {
          offsets.push_back(rng.Uniform(schema->dimensions()[d].range_size));
          batch.dim_offsets[d].push_back(offsets.back());
        }
        batch.metric_ints[0].push_back(static_cast<int64_t>(rng.Next()));
        batch.metric_doubles[1].push_back(rng.NextDouble());
        reference_bess.Append(offsets);
        reference_metric.push_back(0);

        EncodedBatch one(*schema);
        one.num_rows = 1;
        for (size_t d = 0; d < schema->num_dimensions(); ++d) {
          one.dim_offsets[d] = {offsets[d]};
        }
        one.metric_ints[0] = {batch.metric_ints[0].back()};
        one.metric_doubles[1] = {batch.metric_doubles[1].back()};
        one.ClosePartition(0);
        single.AppendBatch(1, one, 0);
      }
      batch.ClosePartition(0);
      bulk.AppendBatch(1, batch, 0);

      const uint64_t total = bulk.num_records();
      ASSERT_EQ(single.num_records(), total);
      EXPECT_EQ(bulk.DataMemoryUsage(), single.DataMemoryUsage())
          << schema->cube_name() << " after " << total << " rows";
      EXPECT_EQ(bulk.bess().MemoryUsage(), reference_bess.MemoryUsage());
      EXPECT_EQ(bulk.metric(0).ints().capacity(), reference_metric.capacity());
      EXPECT_EQ(bulk.metric(1).doubles().capacity(),
                reference_metric.capacity());
      for (uint64_t r = 0; r < total; ++r) {
        for (size_t d = 0; d < schema->num_dimensions(); ++d) {
          ASSERT_EQ(bulk.bess().Get(r, d), single.bess().Get(r, d));
        }
        ASSERT_EQ(bulk.metric(0).GetInt64(r), single.metric(0).GetInt64(r));
      }
    }
  }
}

TEST(BrickTest, ValidateRejectsMalformedBatches) {
  // Recovery validates every run it reads before a shard appends it, so
  // Validate must reject each malformed shape without reading past the end
  // of a column (ASan checks the latter).
  const auto schema = TestSchema();  // 2 x 8 ranges: bids use 4 bits
  const auto two_bricks = [&] {
    EncodedBatch batch = MakeBatch(*schema, 0, 4);
    batch.bids = {0, 1};
    batch.starts = {0, 2, 4};
    return batch;
  };
  ASSERT_TRUE(two_bricks().Validate(*schema).ok());
  std::vector<EncodedBatch> bad;
  bad.push_back(two_bricks());
  bad.back().starts = {0, 10, 4};  // non-monotone: ends past the rows
  bad.push_back(two_bricks());
  bad.back().starts = {0, 0, 4};  // empty partition
  bad.push_back(two_bricks());
  bad.back().starts.back() = 3;  // bounds stop short of the rows
  bad.push_back(two_bricks());
  bad.back().bids = {1, 0};  // bids descend
  bad.push_back(two_bricks());
  bad.back().bids = {0, 16};  // a bit above bid_bits
  bad.push_back(two_bricks());
  bad.back().dim_offsets[0][3] = 4;  // offset == range_size
  bad.push_back(two_bricks());
  bad.back().metric_doubles[1].pop_back();  // short metric column
  bad.push_back(two_bricks());
  bad.back().dim_offsets[1].push_back(0);  // long dimension column
  for (size_t i = 0; i < bad.size(); ++i) {
    EXPECT_EQ(bad[i].Validate(*schema).code(), StatusCode::kInvalidArgument)
        << "case " << i;
  }
}

TEST(BrickMapTest, MaterializesOnDemand) {
  auto schema = TestSchema();
  BrickMap map(schema);
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.Find(3), nullptr);
  Brick& b = map.GetOrCreate(3);
  EXPECT_EQ(b.bid(), 3u);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.Find(3), &b);
  map.GetOrCreate(3);
  EXPECT_EQ(map.size(), 1u);
}

TEST(BrickMapTest, AggregatesAcrossBricks) {
  auto schema = TestSchema();
  BrickMap map(schema);
  map.GetOrCreate(0).AppendBatch(1, MakeBatch(*schema, 0, 10), 0);
  map.GetOrCreate(1).AppendBatch(1, MakeBatch(*schema, 1, 20), 0);
  EXPECT_EQ(map.TotalRecords(), 30u);
  EXPECT_GT(map.DataMemoryUsage(), 0u);
  EXPECT_EQ(map.HistoryMemoryUsage(), 2 * sizeof(aosi::EpochEntry));
  size_t seen = 0;
  map.ForEach([&](Brick& brick) { seen += brick.num_records(); });
  EXPECT_EQ(seen, 30u);
}

TEST(BrickTest, MutationsInvalidateVisibilityCache) {
  // Every brick mutation is a quiescent point: it must both bump the
  // history version (so stale keys can never match) and clear the cache
  // (freeing its entries). Covers append, delete-marker, and the
  // compaction paths used by purge and rollback.
  auto schema = TestSchema();
  Brick brick(schema, 0);
  brick.AppendBatch(1, MakeBatch(*schema, brick.bid(), 10), 0);

  auto prime = [&brick]() -> aosi::VisKey {
    const aosi::Snapshot snap{9, {}};
    const aosi::VisKey key =
        aosi::VisibilityCache::MakeKey(brick.history(), snap);
    if (brick.vis_cache().Lookup(key) == nullptr) {
      Bitmap bm = aosi::BuildVisibilityBitmap(brick.history(), snap);
      EXPECT_NE(brick.vis_cache().Publish(key, &bm).published, nullptr);
    }
    EXPECT_NE(brick.vis_cache().Lookup(key), nullptr);
    return key;
  };

  // Append.
  aosi::VisKey key = prime();
  uint64_t version = brick.history().version();
  brick.AppendBatch(2, MakeBatch(*schema, brick.bid(), 5), 0);
  EXPECT_GT(brick.history().version(), version);
  EXPECT_EQ(brick.vis_cache().Lookup(key), nullptr);

  // Delete marker.
  key = prime();
  version = brick.history().version();
  brick.MarkDeleted(3);
  EXPECT_GT(brick.history().version(), version);
  EXPECT_EQ(brick.vis_cache().Lookup(key), nullptr);

  // Purge compaction.
  brick.AppendBatch(4, MakeBatch(*schema, brick.bid(), 4), 0);
  key = prime();
  version = brick.history().version();
  auto purge = aosi::PlanPurge(brick.history(), /*lse=*/5);
  ASSERT_TRUE(purge.needed);
  brick.ApplyCompaction(purge);
  EXPECT_GT(brick.history().version(), version);
  EXPECT_EQ(brick.vis_cache().Lookup(key), nullptr);

  // Rollback compaction.
  brick.AppendBatch(6, MakeBatch(*schema, brick.bid(), 3), 0);
  key = prime();
  version = brick.history().version();
  auto rollback = aosi::PlanRollback(brick.history(), 6);
  ASSERT_TRUE(rollback.needed);
  brick.ApplyCompaction(rollback);
  EXPECT_GT(brick.history().version(), version);
  EXPECT_EQ(brick.vis_cache().Lookup(key), nullptr);
}

TEST(BrickTest, InstallRefusesAPlanMadeBeforeAnAppend) {
  // Table::Purge plans a brick and copies its columns in one shard op and
  // installs the filtered copies in a later one. An append in between must
  // refuse the install and leave the brick as the append left it.
  auto schema = TestSchema();
  Brick brick(schema, 0);
  brick.AppendBatch(1, MakeBatch(*schema, brick.bid(), 6), 0);
  brick.MarkDeleted(2);
  brick.AppendBatch(3, MakeBatch(*schema, brick.bid(), 4, /*seed=*/5), 0);

  struct Staged {
    uint64_t version = 0;
    aosi::CompactionPlan plan;
    std::optional<BessColumn> bess;
    std::vector<MetricColumn> metrics;
  };
  const auto plan_and_filter = [&brick]() {
    Staged staged;
    staged.version = brick.history().version();
    staged.plan = aosi::PlanPurge(brick.history(), /*lse=*/4);
    std::optional<BessColumn> bess;
    std::vector<MetricColumn> metrics;
    brick.SnapshotColumnsForCompaction(&bess, &metrics);
    const auto keep = [&staged](uint64_t row) {
      return staged.plan.keep.Get(row);
    };
    staged.bess.emplace(bess->CompactedCopy(keep));
    for (const auto& m : metrics) {
      staged.metrics.push_back(m.CompactedCopy(keep));
    }
    return staged;
  };
  const auto rows = [&brick]() {
    std::vector<std::tuple<uint64_t, uint64_t, int64_t, double>> out;
    for (uint64_t r = 0; r < brick.num_records(); ++r) {
      out.emplace_back(brick.DimCoord(r, 0), brick.DimCoord(r, 1),
                       brick.metric(0).GetInt64(r),
                       brick.metric(1).GetDouble(r));
    }
    return out;
  };

  Staged stale = plan_and_filter();
  ASSERT_TRUE(stale.plan.needed);
  brick.AppendBatch(4, MakeBatch(*schema, brick.bid(), 3, /*seed=*/7), 0);
  const aosi::EpochVector history = brick.history();
  const auto before = rows();
  EXPECT_FALSE(brick.InstallCompaction(stale.version, stale.plan,
                                       std::move(*stale.bess),
                                       std::move(stale.metrics)));
  EXPECT_EQ(brick.num_records(), 13u);
  EXPECT_EQ(brick.history(), history);
  EXPECT_EQ(brick.history().version(), history.version());
  EXPECT_EQ(rows(), before);

  // A fresh plan installs: epoch 1's records go with the applied marker.
  Staged fresh = plan_and_filter();
  ASSERT_TRUE(fresh.plan.needed);
  EXPECT_TRUE(brick.InstallCompaction(fresh.version, fresh.plan,
                                      std::move(*fresh.bess),
                                      std::move(fresh.metrics)));
  EXPECT_EQ(brick.history().ToString(), "[3:0-3][4:4-6]");
  EXPECT_EQ(rows(), std::vector(before.begin() + 6, before.end()));
}

TEST(BrickMapTest, EraseRemovesBrick) {
  auto schema = TestSchema();
  BrickMap map(schema);
  map.GetOrCreate(5);
  map.Erase(5);
  EXPECT_EQ(map.Find(5), nullptr);
  EXPECT_EQ(map.size(), 0u);
}

}  // namespace
}  // namespace cubrick
