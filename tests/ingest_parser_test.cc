// Ingestion parsing/validation tests: encoding, rejection, max_rejected
// batch-discard semantics, and CSV loading.

#include "ingest/parser.h"

#include <gtest/gtest.h>

#include "storage/dictionary.h"

#include "ingest_random_load.h"

namespace cubrick {
namespace {

std::shared_ptr<CubeSchema> MakeSchema() {
  return CubeSchema::Make(
             "test_cube",
             {{"region", 4, 2, /*is_string=*/true},
              {"gender", 4, 1, /*is_string=*/true}},
             {{"likes", DataType::kInt64}, {"comments", DataType::kInt64}})
      .value();
}

TEST(ParserTest, EncodesStringsThroughDictionary) {
  auto schema = MakeSchema();
  auto out = ParseRecords(*schema, {{"CA", "male", 1, 2},
                                    {"CA", "female", 3, 4},
                                    {"NY", "male", 5, 6}});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->accepted, 3u);
  EXPECT_EQ(out->rejected, 0u);
  EXPECT_EQ(schema->dictionary(0)->size(), 2u);  // CA, NY
  EXPECT_EQ(schema->dictionary(1)->size(), 2u);  // male, female
  // CA=0 and NY=1 share region range [0,1] -> same region range index; the
  // two gender values produce distinct bricks.
  EXPECT_EQ(out->batches.num_partitions(), 2u);
}

TEST(ParserTest, GroupsRecordsPerBrick) {
  auto schema = MakeSchema();
  auto out = ParseRecords(*schema, {{"a", "x", 1, 0},
                                    {"b", "x", 2, 0},
                                    {"a", "y", 4, 0}});
  ASSERT_TRUE(out.ok());
  // a=0,b=1 same region range; x and y different gender ranges: 2 bricks.
  const EncodedBatch& batch = out->batches;
  ASSERT_EQ(batch.num_partitions(), 2u);
  uint64_t total = 0;
  for (size_t p = 0; p < batch.num_partitions(); ++p) {
    total += batch.starts[p + 1] - batch.starts[p];
  }
  EXPECT_EQ(batch.metric_ints[0].size(), batch.num_rows);
  EXPECT_EQ(total, 3u);
}

TEST(ParserTest, RejectsWrongArity) {
  auto schema = MakeSchema();
  ParseOptions opts;
  opts.max_rejected = 10;
  auto out = ParseRecords(*schema, {{"a", "x", 1}}, opts);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->accepted, 0u);
  EXPECT_EQ(out->rejected, 1u);
  ASSERT_FALSE(out->errors.empty());
}

TEST(ParserTest, RejectsCardinalityOverflow) {
  auto schema = MakeSchema();
  ParseOptions opts;
  opts.max_rejected = 10;
  // 5 distinct region strings against cardinality 4: the 5th must reject.
  auto out = ParseRecords(*schema,
                          {{"r0", "x", 1, 1},
                           {"r1", "x", 1, 1},
                           {"r2", "x", 1, 1},
                           {"r3", "x", 1, 1},
                           {"r4", "x", 1, 1}},
                          opts);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->accepted, 4u);
  EXPECT_EQ(out->rejected, 1u);
  ASSERT_EQ(out->errors.size(), 1u);
  EXPECT_NE(out->errors[0].find("value 4 exceeds declared cardinality 4"),
            std::string::npos)
      << out->errors[0];
  // The rejected record's string takes no id.
  EXPECT_EQ(schema->dictionary(0)->size(), 4u);
  EXPECT_FALSE(schema->dictionary(0)->Encode("r4").ok());
}

TEST(ParserTest, RejectsBadMetricType) {
  auto schema = MakeSchema();
  ParseOptions opts;
  opts.max_rejected = 10;
  auto out = ParseRecords(*schema, {{"a", "x", "oops", 2}}, opts);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->rejected, 1u);
  EXPECT_EQ(schema->dictionary(0)->size(), 0u);
  EXPECT_EQ(schema->dictionary(1)->size(), 0u);
}

TEST(ParserTest, MaxRejectedDiscardsWholeBatch) {
  auto schema = MakeSchema();
  ParseOptions opts;
  opts.max_rejected = 1;
  auto out = ParseRecords(*schema,
                          {{"a", "x", 1, 1},
                           {"a", "x", "bad", 1},
                           {"a", "x", "bad", 1}},
                          opts);
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
  // A discarded load leaves the dictionaries as they were.
  EXPECT_EQ(schema->dictionary(0)->size(), 0u);
  EXPECT_EQ(schema->dictionary(1)->size(), 0u);
}

TEST(ParserTest, StringRejectionsTakeNoIdsAndKeepRecordOrder) {
  // Record 1's metric is bad, so its region r1 is never looked up: the
  // kept records' four new regions fit the cardinality of 4, and "zzz",
  // which sorts last, would take id 4. Its rejection is found after the
  // type checks', yet the retained errors stay in record order.
  auto schema = MakeSchema();
  ParseOptions opts;
  opts.max_rejected = 10;
  opts.max_errors = 2;
  auto out = ParseRecords(*schema,
                          {{"r0", "x", 1, 1},
                           {"r1", "x", "bad", 1},
                           {"zz", "x", 1, 1},
                           {"r2", "x", 1, 1},
                           {"r3", "x", 1, 1},
                           {"zzz", "x", 1, 1},
                           {"r0", "x", "bad", 1},
                           {"r0", "x", "bad", 1}},
                          opts);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->accepted, 4u);
  EXPECT_EQ(out->rejected, 4u);
  ASSERT_EQ(out->errors.size(), 2u);
  EXPECT_NE(out->errors[0].find("metric 'likes' expects int64"),
            std::string::npos)
      << out->errors[0];
  EXPECT_NE(out->errors[1].find("region' value 4 exceeds"), std::string::npos)
      << out->errors[1];
  const StringDictionary* regions = schema->dictionary(0);
  EXPECT_EQ(regions->size(), 4u);
  EXPECT_FALSE(regions->Encode("r1").ok());
  EXPECT_FALSE(regions->Encode("zzz").ok());
  EXPECT_EQ(regions->Encode("zz").value(), 3u);
  EXPECT_EQ(schema->dictionary(1)->size(), 1u);
}

TEST(ParserTest, IntDimensionValidation) {
  auto schema = CubeSchema::Make("c", {{"d", 10, 5, false}},
                                 {{"m", DataType::kInt64}})
                    .value();
  ParseOptions opts;
  opts.max_rejected = 10;
  auto out = ParseRecords(*schema,
                          {{3, 1}, {-1, 1}, {10, 1}, {"str", 1}}, opts);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->accepted, 1u);
  EXPECT_EQ(out->rejected, 3u);
}

TEST(ParserTest, DoubleMetricCoercesInt) {
  auto schema = CubeSchema::Make("c", {{"d", 4, 4, false}},
                                 {{"m", DataType::kDouble}})
                    .value();
  auto out = ParseRecords(*schema, {{0, 3}, {1, 2.5}});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->batches.num_partitions(), 1u);
  const auto& batch = out->batches;
  EXPECT_DOUBLE_EQ(batch.metric_doubles[0][0], 3.0);
  EXPECT_DOUBLE_EQ(batch.metric_doubles[0][1], 2.5);
}

TEST(ParserTest, StringMetricEncoded) {
  auto schema = CubeSchema::Make("c", {{"d", 4, 4, false}},
                                 {{"tag", DataType::kString}})
                    .value();
  auto out = ParseRecords(*schema, {{0, "alpha"}, {1, "beta"}, {2, "alpha"}});
  ASSERT_TRUE(out.ok());
  const auto& batch = out->batches;
  EXPECT_EQ(batch.metric_ints[0][0], 0);
  EXPECT_EQ(batch.metric_ints[0][1], 1);
  EXPECT_EQ(batch.metric_ints[0][2], 0);
}

TEST(ParserTest, DimOffsetsAreWithinRange) {
  auto schema = CubeSchema::Make("c", {{"d", 8, 4, false}},
                                 {{"m", DataType::kInt64}})
                    .value();
  auto out = ParseRecords(*schema, {{5, 1}});  // coord 5 = range 1, offset 1
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->batches.bids[0], 1u);
  EXPECT_EQ(out->batches.dim_offsets[0][0], 1u);
}

TEST(ParserTest, RandomLoadsPartitionByBrickInRecordOrder) {
  using ingest_test::MakeRandomLoad;
  for (auto make_cube : {ingest_test::StringDimCube, ingest_test::WideBidCube}) {
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      auto schema = make_cube();
      const auto load = MakeRandomLoad(*schema, 500, seed);
      ParseOptions opts;
      opts.max_rejected = load.records.size();
      auto out = ParseRecords(*schema, load.records, opts);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      SCOPED_TRACE(schema->cube_name() + " seed " + std::to_string(seed));
      ingest_test::ExpectPartitionedLoad(*schema, load, *out);
      EXPECT_GT(out->rejected, 0u);
    }
  }
  // The wide cube's bids really do reach the top bit.
  auto wide = ingest_test::WideBidCube();
  ASSERT_EQ(wide->bid_bits(), 64u);
  ParseOptions opts;
  opts.max_rejected = 64;
  auto out = ParseRecords(*wide, MakeRandomLoad(*wide, 64, 9).records, opts);
  ASSERT_TRUE(out.ok());
  EXPECT_GE(out->batches.bids.back(), uint64_t{1} << 63);
}

TEST(CsvTest, ParsesTypedLine) {
  auto schema = CubeSchema::Make(
                    "c",
                    {{"region", 8, 2, true}, {"day", 31, 31, false}},
                    {{"units", DataType::kInt64},
                     {"rev", DataType::kDouble}})
                    .value();
  auto rec = ParseCsvLine(*schema, "US,12,100,9.75");
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->values[0].as_string(), "US");
  EXPECT_EQ(rec->values[1].as_int64(), 12);
  EXPECT_EQ(rec->values[2].as_int64(), 100);
  EXPECT_DOUBLE_EQ(rec->values[3].as_double(), 9.75);
}

TEST(CsvTest, RejectsWrongFieldCount) {
  auto schema = CubeSchema::Make("c", {{"d", 4, 4, false}},
                                 {{"m", DataType::kInt64}})
                    .value();
  EXPECT_FALSE(ParseCsvLine(*schema, "1,2,3").ok());
  EXPECT_FALSE(ParseCsvLine(*schema, "1").ok());
}

TEST(CsvTest, RejectsBadNumbers) {
  auto schema = CubeSchema::Make("c", {{"d", 4, 4, false}},
                                 {{"m", DataType::kInt64}})
                    .value();
  EXPECT_FALSE(ParseCsvLine(*schema, "x,1").ok());
  EXPECT_FALSE(ParseCsvLine(*schema, "1,1.5x").ok());
}

}  // namespace
}  // namespace cubrick
