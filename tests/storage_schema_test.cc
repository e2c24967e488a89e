// Cube schema / granular-partitioning tests, reproducing the paper's
// Figure 4 example (the `test_cube` DDL with region/gender dimensions).

#include "storage/schema.h"

#include <gtest/gtest.h>

namespace cubrick {
namespace {

// CREATE CUBE test_cube (region string CARDINALITY 4 RANGE 2,
//                        gender string CARDINALITY 4 RANGE 1,
//                        likes int, comments int)
std::shared_ptr<CubeSchema> Figure4Schema() {
  auto result = CubeSchema::Make(
      "test_cube",
      {{"region", 4, 2, /*is_string=*/true},
       {"gender", 4, 1, /*is_string=*/true}},
      {{"likes", DataType::kInt64}, {"comments", DataType::kInt64}});
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.value();
}

TEST(SchemaTest, Figure4_BitLayout) {
  auto schema = Figure4Schema();
  // region: 4 values in ranges of 2 -> 2 ranges -> 1 bid bit.
  // gender: 4 values in ranges of 1 -> 4 ranges -> 2 bid bits.
  EXPECT_EQ(schema->dimensions()[0].num_ranges(), 2u);
  EXPECT_EQ(schema->dimensions()[1].num_ranges(), 4u);
  EXPECT_EQ(schema->bid_bits(), 3u);
  // bess: offsets within ranges need 1 bit for region, 0 for gender.
  EXPECT_EQ(schema->bess_bits(0), 1u);
  EXPECT_EQ(schema->bess_bits(1), 0u);
  EXPECT_EQ(schema->bess_bits_per_record(), 1u);
}

TEST(SchemaTest, Figure4_BidComputation) {
  auto schema = Figure4Schema();
  // coords = (region, gender). region range idx = coord / 2 (bit 0);
  // gender range idx = coord (bits 1-2).
  EXPECT_EQ(schema->BidFor({0, 0}).value(), 0u);
  EXPECT_EQ(schema->BidFor({1, 0}).value(), 0u);  // same region range
  EXPECT_EQ(schema->BidFor({2, 0}).value(), 1u);
  EXPECT_EQ(schema->BidFor({0, 1}).value(), 2u);
  EXPECT_EQ(schema->BidFor({3, 3}).value(), 7u);
}

TEST(SchemaTest, Figure4_RangeIndexRoundTrip) {
  auto schema = Figure4Schema();
  for (uint64_t region = 0; region < 4; ++region) {
    for (uint64_t gender = 0; gender < 4; ++gender) {
      const Bid bid = schema->BidFor({region, gender}).value();
      EXPECT_EQ(schema->RangeIndexOf(bid, 0), region / 2);
      EXPECT_EQ(schema->RangeIndexOf(bid, 1), gender);
    }
  }
}

TEST(SchemaTest, SplitCoord) {
  auto schema = Figure4Schema();
  uint64_t range_idx = 99, offset = 99;
  schema->SplitCoord(0, 3, &range_idx, &offset);
  EXPECT_EQ(range_idx, 1u);
  EXPECT_EQ(offset, 1u);
  schema->SplitCoord(1, 2, &range_idx, &offset);
  EXPECT_EQ(range_idx, 2u);
  EXPECT_EQ(offset, 0u);
}

TEST(SchemaTest, OutOfCardinalityCoordRejected) {
  auto schema = Figure4Schema();
  auto result = schema->BidFor({4, 0});
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST(SchemaTest, ArityMismatchRejected) {
  auto schema = Figure4Schema();
  EXPECT_EQ(schema->BidFor({1}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SchemaTest, DictionariesOnlyForStringColumns) {
  auto schema = Figure4Schema();
  EXPECT_NE(schema->dictionary(0), nullptr);  // region
  EXPECT_NE(schema->dictionary(1), nullptr);  // gender
  EXPECT_EQ(schema->dictionary(2), nullptr);  // likes
  EXPECT_EQ(schema->dictionary(3), nullptr);  // comments
}

TEST(SchemaTest, ColumnLookup) {
  auto schema = Figure4Schema();
  EXPECT_EQ(schema->DimensionIndex("gender").value(), 1u);
  EXPECT_EQ(schema->MetricIndex("comments").value(), 1u);
  EXPECT_EQ(schema->DimensionIndex("likes").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(schema->MetricIndex("region").status().code(),
            StatusCode::kNotFound);
}

TEST(SchemaTest, RejectsZeroCardinality) {
  auto result = CubeSchema::Make("bad", {{"d", 0, 1, false}}, {});
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(SchemaTest, RejectsRangeLargerThanCardinality) {
  auto result = CubeSchema::Make("bad", {{"d", 4, 8, false}}, {});
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(SchemaTest, RejectsDuplicateNames) {
  auto result = CubeSchema::Make(
      "bad", {{"x", 4, 1, false}}, {{"x", DataType::kInt64}});
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(SchemaTest, RejectsEmptyName) {
  auto result = CubeSchema::Make("", {{"d", 2, 1, false}}, {});
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(SchemaTest, RejectsOversizedBid) {
  // 5 dimensions x 16 bits each = 80 bits > 64.
  std::vector<DimensionDef> dims;
  for (int i = 0; i < 5; ++i) {
    dims.push_back(
        {std::string("d").append(std::to_string(i)), 65536, 1, false});
  }
  auto result = CubeSchema::Make("bad", dims, {});
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(SchemaTest, NonPowerOfTwoRangeCounts) {
  // cardinality 10, range 3 -> 4 ranges -> 2 bits.
  auto schema =
      CubeSchema::Make("c", {{"d", 10, 3, false}}, {{"m", DataType::kInt64}})
          .value();
  EXPECT_EQ(schema->dimensions()[0].num_ranges(), 4u);
  EXPECT_EQ(schema->bid_bits(), 2u);
  EXPECT_EQ(schema->BidFor({9}).value(), 3u);
}

TEST(SchemaTest, BitsForCountEdgeCases) {
  EXPECT_EQ(BitsForCount(0), 0u);
  EXPECT_EQ(BitsForCount(1), 0u);
  EXPECT_EQ(BitsForCount(2), 1u);
  EXPECT_EQ(BitsForCount(3), 2u);
  EXPECT_EQ(BitsForCount(4), 2u);
  EXPECT_EQ(BitsForCount(5), 3u);
  EXPECT_EQ(BitsForCount(1ULL << 32), 32u);
  EXPECT_EQ(BitsForCount((1ULL << 63) + 1), 64u);
  EXPECT_EQ(BitsForCount(~0ULL), 64u);
}

}  // namespace
}  // namespace cubrick
