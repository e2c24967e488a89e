// DDL parser tests, anchored on the paper's Figure 4 CREATE CUBE.

#include "cubrick/ddl.h"

#include <gtest/gtest.h>

namespace cubrick {
namespace {

TEST(DdlTest, Figure4_Statement) {
  auto stmt = ParseCreateCube(
      "CREATE CUBE test_cube (region string CARDINALITY 4 RANGE 2, "
      "gender string CARDINALITY 4 RANGE 1, likes int, comments int)");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->cube_name, "test_cube");
  ASSERT_EQ(stmt->dimensions.size(), 2u);
  EXPECT_EQ(stmt->dimensions[0].name, "region");
  EXPECT_EQ(stmt->dimensions[0].cardinality, 4u);
  EXPECT_EQ(stmt->dimensions[0].range_size, 2u);
  EXPECT_TRUE(stmt->dimensions[0].is_string);
  EXPECT_EQ(stmt->dimensions[1].name, "gender");
  EXPECT_EQ(stmt->dimensions[1].range_size, 1u);
  ASSERT_EQ(stmt->metrics.size(), 2u);
  EXPECT_EQ(stmt->metrics[0].name, "likes");
  EXPECT_EQ(stmt->metrics[0].type, DataType::kInt64);
  EXPECT_EQ(stmt->metrics[1].name, "comments");
}

TEST(DdlTest, RangeDefaultsToOne) {
  auto stmt = ParseCreateCube(
      "CREATE CUBE c (d int CARDINALITY 8, m double)");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->dimensions[0].range_size, 1u);
  EXPECT_FALSE(stmt->dimensions[0].is_string);
  EXPECT_EQ(stmt->metrics[0].type, DataType::kDouble);
}

TEST(DdlTest, CaseInsensitiveKeywords) {
  auto stmt = ParseCreateCube(
      "create cube C (d String cardinality 4 range 2, m Int)");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->cube_name, "C");  // identifiers keep their case
  EXPECT_TRUE(stmt->dimensions[0].is_string);
}

TEST(DdlTest, TrailingSemicolonAndWhitespace) {
  auto stmt = ParseCreateCube(
      "  CREATE CUBE c ( d int CARDINALITY 2 , m int ) ; ");
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
}

TEST(DdlTest, StringMetricSupported) {
  auto stmt = ParseCreateCube(
      "CREATE CUBE c (d int CARDINALITY 2, tag string)");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->metrics[0].type, DataType::kString);
}

TEST(DdlTest, RejectsDoubleDimension) {
  auto stmt = ParseCreateCube("CREATE CUBE c (d double CARDINALITY 4)");
  EXPECT_EQ(stmt.status().code(), StatusCode::kInvalidArgument);
}

TEST(DdlTest, RejectsMissingType) {
  EXPECT_FALSE(ParseCreateCube("CREATE CUBE c (d)").ok());
}

TEST(DdlTest, RejectsUnknownType) {
  EXPECT_FALSE(
      ParseCreateCube("CREATE CUBE c (d blob CARDINALITY 4)").ok());
}

TEST(DdlTest, RejectsMissingParens) {
  EXPECT_FALSE(ParseCreateCube("CREATE CUBE c d int CARDINALITY 4").ok());
  EXPECT_FALSE(
      ParseCreateCube("CREATE CUBE c (d int CARDINALITY 4").ok());
}

TEST(DdlTest, RejectsMetricOnlyCube) {
  EXPECT_FALSE(ParseCreateCube("CREATE CUBE c (m int)").ok());
}

TEST(DdlTest, RejectsNonNumericCardinality) {
  EXPECT_FALSE(
      ParseCreateCube("CREATE CUBE c (d int CARDINALITY four)").ok());
}

TEST(DdlTest, RejectsNumbersPastUint64Max) {
  // A parse that wrapped would read 2^64 + 1 and 2^64 + 2 as the valid
  // sizes 1 and 2.
  const auto cardinality = ParseCreateCube(
      "CREATE CUBE c (d int CARDINALITY 18446744073709551617, m int)");
  EXPECT_EQ(cardinality.status().code(), StatusCode::kInvalidArgument);
  const auto range = ParseCreateCube(
      "CREATE CUBE c (d int CARDINALITY 4 RANGE 18446744073709551618, m int)");
  EXPECT_EQ(range.status().code(), StatusCode::kInvalidArgument);

  const auto max = ParseCreateCube(
      "CREATE CUBE c (d int CARDINALITY 18446744073709551615, m int)");
  ASSERT_TRUE(max.ok()) << max.status().ToString();
  EXPECT_EQ(max->dimensions[0].cardinality, 18446744073709551615u);
}

TEST(DdlTest, RejectsTrailingGarbage) {
  EXPECT_FALSE(
      ParseCreateCube("CREATE CUBE c (d int CARDINALITY 4) garbage").ok());
}

TEST(DdlTest, RejectsNotCreateCube) {
  EXPECT_FALSE(ParseCreateCube("DROP CUBE c").ok());
  EXPECT_FALSE(ParseCreateCube("CREATE TABLE c (d int)").ok());
}

}  // namespace
}  // namespace cubrick
