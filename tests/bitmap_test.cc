#include "common/bitmap.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/status.h"

namespace cubrick {
namespace {

TEST(BitmapTest, StartsAllClear) {
  Bitmap bm(100);
  EXPECT_EQ(bm.size(), 100u);
  EXPECT_EQ(bm.CountSet(), 0u);
  EXPECT_TRUE(bm.None());
  EXPECT_FALSE(bm.All());
}

TEST(BitmapTest, InitialAllSetRespectsSize) {
  Bitmap bm(70, true);
  EXPECT_EQ(bm.CountSet(), 70u);
  EXPECT_TRUE(bm.All());
}

TEST(BitmapTest, SetGetClearSingleBits) {
  Bitmap bm(130);
  bm.Set(0);
  bm.Set(63);
  bm.Set(64);
  bm.Set(129);
  EXPECT_TRUE(bm.Get(0));
  EXPECT_TRUE(bm.Get(63));
  EXPECT_TRUE(bm.Get(64));
  EXPECT_TRUE(bm.Get(129));
  EXPECT_FALSE(bm.Get(1));
  EXPECT_EQ(bm.CountSet(), 4u);
  bm.Clear(63);
  EXPECT_FALSE(bm.Get(63));
  EXPECT_EQ(bm.CountSet(), 3u);
}

TEST(BitmapTest, SetRangeWithinOneWord) {
  Bitmap bm(64);
  bm.SetRange(3, 10);
  EXPECT_EQ(bm.CountSet(), 7u);
  for (size_t i = 3; i < 10; ++i) EXPECT_TRUE(bm.Get(i));
  EXPECT_FALSE(bm.Get(2));
  EXPECT_FALSE(bm.Get(10));
}

TEST(BitmapTest, SetRangeAcrossWords) {
  Bitmap bm(256);
  bm.SetRange(60, 200);
  EXPECT_EQ(bm.CountSet(), 140u);
  EXPECT_FALSE(bm.Get(59));
  EXPECT_TRUE(bm.Get(60));
  EXPECT_TRUE(bm.Get(199));
  EXPECT_FALSE(bm.Get(200));
}

TEST(BitmapTest, EmptyRangeIsNoOp) {
  Bitmap bm(64);
  bm.SetRange(5, 5);
  EXPECT_TRUE(bm.None());
  bm.SetRange(0, 64);
  bm.ClearRange(30, 30);
  EXPECT_TRUE(bm.All());
}

TEST(BitmapTest, ClearRangeAcrossWords) {
  Bitmap bm(300, true);
  bm.ClearRange(10, 290);
  EXPECT_EQ(bm.CountSet(), 20u);
  EXPECT_TRUE(bm.Get(9));
  EXPECT_FALSE(bm.Get(10));
  EXPECT_FALSE(bm.Get(289));
  EXPECT_TRUE(bm.Get(290));
}

TEST(BitmapTest, CountSetInRangeMatchesBruteForce) {
  Random rng(42);
  Bitmap bm(517);
  for (size_t i = 0; i < bm.size(); ++i) {
    if (rng.OneIn(3)) bm.Set(i);
  }
  for (int trial = 0; trial < 50; ++trial) {
    size_t a = rng.Uniform(bm.size() + 1);
    size_t b = rng.Uniform(bm.size() + 1);
    if (a > b) std::swap(a, b);
    size_t expected = 0;
    for (size_t i = a; i < b; ++i) {
      if (bm.Get(i)) ++expected;
    }
    EXPECT_EQ(bm.CountSetInRange(a, b), expected) << "range [" << a << "," << b
                                                  << ")";
  }
}

TEST(BitmapTest, FindNextSet) {
  Bitmap bm(200);
  bm.Set(5);
  bm.Set(64);
  bm.Set(199);
  EXPECT_EQ(bm.FindNextSet(0), 5u);
  EXPECT_EQ(bm.FindNextSet(5), 5u);
  EXPECT_EQ(bm.FindNextSet(6), 64u);
  EXPECT_EQ(bm.FindNextSet(65), 199u);
  EXPECT_EQ(bm.FindNextSet(200), 200u);
}

TEST(BitmapTest, FindNextSetOnEmpty) {
  Bitmap bm(100);
  EXPECT_EQ(bm.FindNextSet(0), 100u);
  Bitmap zero;
  EXPECT_EQ(zero.FindNextSet(0), 0u);
}

TEST(BitmapTest, ForEachSetVisitsInOrder) {
  Bitmap bm(150);
  bm.Set(0);
  bm.Set(70);
  bm.Set(149);
  std::vector<size_t> seen;
  bm.ForEachSet([&](size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<size_t>{0, 70, 149}));
}

TEST(BitmapTest, RoundTripsThroughString) {
  const std::string pattern = "10110010011";
  Bitmap bm = Bitmap::FromString(pattern);
  EXPECT_EQ(bm.ToString(), pattern);
  EXPECT_EQ(bm.CountSet(), 6u);
}

TEST(BitmapTest, EqualityIsSizeAndContent) {
  Bitmap a = Bitmap::FromString("1010");
  Bitmap b = Bitmap::FromString("1010");
  Bitmap c = Bitmap::FromString("10100");
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

TEST(BitmapTest, RangeOpsAtWordBoundaries) {
  // begin/end exactly at multiples of 64: the word-masking fast paths in
  // SetRange/ClearRange must not spill into neighbor words.
  Bitmap bm(256);
  bm.SetRange(64, 128);  // exactly one full word
  EXPECT_EQ(bm.CountSet(), 64u);
  EXPECT_FALSE(bm.Get(63));
  EXPECT_TRUE(bm.Get(64));
  EXPECT_TRUE(bm.Get(127));
  EXPECT_FALSE(bm.Get(128));
  bm.SetRange(128, 192);
  bm.ClearRange(64, 128);  // clear the first full word again
  EXPECT_EQ(bm.CountSet(), 64u);
  EXPECT_FALSE(bm.Get(64));
  EXPECT_FALSE(bm.Get(127));
  EXPECT_TRUE(bm.Get(128));
  EXPECT_TRUE(bm.Get(191));
}

TEST(BitmapTest, EmptyRangeAtWordBoundaryIsNoOp) {
  Bitmap bm(192, true);
  bm.ClearRange(64, 64);
  bm.ClearRange(128, 128);
  bm.ClearRange(192, 192);  // empty range at size() is legal
  EXPECT_TRUE(bm.All());
  Bitmap clear(192);
  clear.SetRange(64, 64);
  clear.SetRange(0, 0);
  EXPECT_TRUE(clear.None());
}

TEST(BitmapTest, MultiFullWordSpans) {
  Bitmap bm(320);
  bm.SetRange(0, 320);  // five full words
  EXPECT_TRUE(bm.All());
  bm.ClearRange(64, 256);  // three interior full words
  EXPECT_EQ(bm.CountSet(), 128u);
  EXPECT_TRUE(bm.Get(0));
  EXPECT_TRUE(bm.Get(63));
  EXPECT_FALSE(bm.Get(64));
  EXPECT_FALSE(bm.Get(255));
  EXPECT_TRUE(bm.Get(256));
  EXPECT_TRUE(bm.Get(319));
}

TEST(BitmapTest, FindNextSetAcrossWordBoundary) {
  Bitmap bm(256);
  bm.Set(64);
  bm.Set(128);
  EXPECT_EQ(bm.FindNextSet(0), 64u);
  EXPECT_EQ(bm.FindNextSet(64), 64u);   // from an exactly-set boundary bit
  EXPECT_EQ(bm.FindNextSet(65), 128u);  // skips a fully-clear word
  EXPECT_EQ(bm.FindNextSet(129), 256u);
  bm.Clear(64);
  EXPECT_EQ(bm.FindNextSet(63), 128u);
}

TEST(BitmapTest, CountSetInRangeWordBoundaries) {
  Bitmap bm(256, true);
  EXPECT_EQ(bm.CountSetInRange(64, 128), 64u);   // one exact word
  EXPECT_EQ(bm.CountSetInRange(64, 64), 0u);     // empty at boundary
  EXPECT_EQ(bm.CountSetInRange(0, 256), 256u);   // all words
  EXPECT_EQ(bm.CountSetInRange(63, 65), 2u);     // straddles the boundary
  bm.ClearRange(64, 192);
  EXPECT_EQ(bm.CountSetInRange(0, 256), 128u);
  EXPECT_EQ(bm.CountSetInRange(63, 193), 2u);    // only the edge bits
}

TEST(BitmapTest, RangePreconditionsChecked) {
  Bitmap bm(10);
  EXPECT_THROW(bm.SetRange(5, 11), CheckFailure);
  EXPECT_THROW(bm.ClearRange(11, 11), CheckFailure);
  EXPECT_THROW(bm.CountSetInRange(3, 2), CheckFailure);
}

// The dense-word SIMD paths in the executor rely on this contract: a tail
// word of a ragged bitmap (size % 64 != 0) can never read as ~0ULL, so a
// word equal to ~0ULL always covers 64 real rows.
TEST(BitmapTest, SetWordMasksRaggedTail) {
  Bitmap bm(100);  // tail word holds bits 64..99
  bm.SetWord(1, ~0ULL);
  EXPECT_EQ(bm.Word(1), (1ULL << 36) - 1);  // bits 100..127 masked off
  EXPECT_NE(bm.Word(1), ~0ULL);
  EXPECT_EQ(bm.CountSet(), 36u);
  // A full interior word is untouched by the mask.
  bm.SetWord(0, ~0ULL);
  EXPECT_EQ(bm.Word(0), ~0ULL);
}

TEST(BitmapTest, TailWordNeverDenseUnlessSizeIsWordMultiple) {
  for (size_t size : {1u, 63u, 65u, 100u, 127u, 129u, 255u}) {
    Bitmap bm(size, true);
    if (size % 64 != 0) {
      EXPECT_NE(bm.Word(bm.num_words() - 1), ~0ULL) << "size " << size;
    }
    EXPECT_EQ(bm.CountSet(), size);
  }
  Bitmap exact(128, true);
  EXPECT_EQ(exact.Word(1), ~0ULL);
}

}  // namespace
}  // namespace cubrick
