// Differential tests for the SIMD kernel layer (DESIGN.md §4e): every
// backend this CPU supports must produce BIT-identical results to the
// scalar reference — filter masks, wrapping int64 folds, pinned-order
// double folds, bitmap popcounts — across ragged sizes, sign-bit values,
// ±0.0 ties and NaN. On top of the kernel fuzz, an end-to-end pass runs
// the same queries (grouped, filtered, deleted-row, ragged-tail bricks)
// under each backend and compares QueryResults bitwise.
//
// On a scalar-only CPU the cross-backend loops degenerate to scalar vs
// scalar (vacuously green); the CI matrix legs with CUBRICK_SIMD=scalar
// and =avx2 keep both sides exercised where hardware allows.

#include "common/simd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/bitmap.h"
#include "common/random.h"
#include "cubrick/database.h"

namespace cubrick {
namespace {

// Saves and restores the process-global backend so tests that flip it
// (bitmap/executor differentials) cannot leak state into other tests.
class ScopedBackend {
 public:
  explicit ScopedBackend(simd::Backend b) : saved_(simd::Active()) {
    EXPECT_TRUE(simd::SetBackend(b));
  }
  ~ScopedBackend() { simd::SetBackend(saved_); }

 private:
  simd::Backend saved_;
};

std::vector<simd::Backend> SupportedBackends() {
  std::vector<simd::Backend> out = {simd::Backend::kScalar};
  if (simd::Supported(simd::Backend::kAvx2)) {
    out.push_back(simd::Backend::kAvx2);
  }
  if (simd::Supported(simd::Backend::kNeon)) {
    out.push_back(simd::Backend::kNeon);
  }
  return out;
}

// Bitwise equality: distinguishes -0.0 from +0.0 and compares NaN
// payloads, which EXPECT_DOUBLE_EQ cannot.
uint64_t Bits(double v) {
  uint64_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

TEST(SimdDispatchTest, ScalarAlwaysSupported) {
  EXPECT_TRUE(simd::Supported(simd::Backend::kScalar));
  EXPECT_EQ(simd::KernelsFor(simd::Backend::kScalar).backend,
            simd::Backend::kScalar);
  EXPECT_STREQ(simd::BackendName(simd::Backend::kScalar), "scalar");
  EXPECT_STREQ(simd::BackendName(simd::Backend::kAvx2), "avx2");
  EXPECT_STREQ(simd::BackendName(simd::Backend::kNeon), "neon");
}

TEST(SimdDispatchTest, DetectIsSupportedAndTablesAreComplete) {
  const simd::Backend best = simd::Detect();
  EXPECT_TRUE(simd::Supported(best));
  for (simd::Backend b : SupportedBackends()) {
    const simd::Kernels& k = simd::KernelsFor(b);
    EXPECT_EQ(k.backend, b);
    EXPECT_NE(k.filter_eq, nullptr);
    EXPECT_NE(k.filter_range, nullptr);
    EXPECT_NE(k.filter_in, nullptr);
    EXPECT_NE(k.fold_int64, nullptr);
    EXPECT_NE(k.fold_double, nullptr);
  }
}

TEST(SimdDispatchTest, SetBackendRejectsUnsupported) {
  const simd::Backend before = simd::Active();
  for (simd::Backend b :
       {simd::Backend::kScalar, simd::Backend::kAvx2, simd::Backend::kNeon}) {
    if (simd::Supported(b)) continue;
    EXPECT_FALSE(simd::SetBackend(b));
    EXPECT_EQ(simd::Active(), before) << "failed SetBackend must not switch";
  }
}

// ---------------------------------------------------------------------------
// Filter kernels: eq / range / in over 64-coordinate buffers
// ---------------------------------------------------------------------------

TEST(SimdKernelTest, FilterKernelsMatchScalarFuzz) {
  const auto backends = SupportedBackends();
  const simd::Kernels& ref = simd::KernelsFor(simd::Backend::kScalar);
  Random rng(0xf117e4);
  for (int iter = 0; iter < 512; ++iter) {
    uint64_t coords[64];
    // Mix of tiny cardinalities (realistic dims), wide values, and values
    // with the sign bit set (exercises the AVX2 signed-compare bias).
    const uint64_t card = 1ULL << (1 + rng.Uniform(62));
    for (auto& c : coords) {
      c = rng.Uniform(card);
      if (rng.Uniform(8) == 0) c |= 0x8000000000000000ULL;
    }
    const uint64_t eq_val = coords[rng.Uniform(64)];
    uint64_t lo = coords[rng.Uniform(64)];
    uint64_t hi = coords[rng.Uniform(64)];
    if (iter % 7 == 0) std::swap(lo, hi);  // keep some empty ranges
    uint64_t in_vals[8];
    const size_t num_in = 1 + rng.Uniform(8);
    for (size_t i = 0; i < num_in; ++i) in_vals[i] = coords[rng.Uniform(64)];

    const uint64_t ref_eq = ref.filter_eq(coords, eq_val);
    const uint64_t ref_rng = ref.filter_range(coords, lo, hi);
    const uint64_t ref_in = ref.filter_in(coords, in_vals, num_in);
    ASSERT_NE(ref_eq, 0u);  // eq_val was drawn from coords
    for (simd::Backend b : backends) {
      const simd::Kernels& k = simd::KernelsFor(b);
      EXPECT_EQ(k.filter_eq(coords, eq_val), ref_eq)
          << simd::BackendName(b) << " iter " << iter;
      EXPECT_EQ(k.filter_range(coords, lo, hi), ref_rng)
          << simd::BackendName(b) << " iter " << iter;
      EXPECT_EQ(k.filter_in(coords, in_vals, num_in), ref_in)
          << simd::BackendName(b) << " iter " << iter;
    }
  }
}

TEST(SimdKernelTest, FilterRangeUnsignedBoundaries) {
  uint64_t coords[64];
  for (size_t i = 0; i < 64; ++i) coords[i] = i;
  coords[0] = 0;
  coords[1] = 0x7fffffffffffffffULL;  // INT64_MAX
  coords[2] = 0x8000000000000000ULL;  // INT64_MAX + 1 (sign flip)
  coords[3] = ~0ULL;                  // UINT64_MAX
  for (simd::Backend b : SupportedBackends()) {
    const simd::Kernels& k = simd::KernelsFor(b);
    // Full unsigned range: everything matches.
    EXPECT_EQ(k.filter_range(coords, 0, ~0ULL), ~0ULL)
        << simd::BackendName(b);
    // A range straddling the sign bit must use unsigned order.
    const uint64_t m =
        k.filter_range(coords, 0x7fffffffffffffffULL, 0x8000000000000000ULL);
    EXPECT_EQ(m, (1ULL << 1) | (1ULL << 2)) << simd::BackendName(b);
    // Empty range (lo > hi) matches nothing.
    EXPECT_EQ(k.filter_range(coords, 5, 4), 0ULL) << simd::BackendName(b);
  }
}

// ---------------------------------------------------------------------------
// Fold kernels: wrapping int64 sums, pinned-order double sums
// ---------------------------------------------------------------------------

TEST(SimdKernelTest, FoldInt64MatchesScalarFuzzAllLengths) {
  const auto backends = SupportedBackends();
  const simd::Kernels& ref = simd::KernelsFor(simd::Backend::kScalar);
  Random rng(0x10164);
  for (int iter = 0; iter < 64; ++iter) {
    int64_t v[64];
    for (auto& x : v) {
      switch (rng.Uniform(4)) {
        case 0:  // small realistic metric values
          x = rng.UniformRange(-1000, 1000);
          break;
        case 1:  // near overflow: forces the wrapping-sum contract
          x = std::numeric_limits<int64_t>::max() -
              static_cast<int64_t>(rng.Uniform(3));
          break;
        case 2:
          x = std::numeric_limits<int64_t>::min() +
              static_cast<int64_t>(rng.Uniform(3));
          break;
        default:  // arbitrary bits
          x = static_cast<int64_t>(rng.Next());
          break;
      }
    }
    for (size_t n = 1; n <= 64; ++n) {
      uint64_t rs;
      int64_t rmin, rmax;
      ref.fold_int64(v, n, &rs, &rmin, &rmax);
      for (simd::Backend b : backends) {
        uint64_t s;
        int64_t mn, mx;
        simd::KernelsFor(b).fold_int64(v, n, &s, &mn, &mx);
        ASSERT_EQ(s, rs) << simd::BackendName(b) << " n=" << n;
        ASSERT_EQ(mn, rmin) << simd::BackendName(b) << " n=" << n;
        ASSERT_EQ(mx, rmax) << simd::BackendName(b) << " n=" << n;
      }
    }
  }
}

TEST(SimdKernelTest, FoldDoubleMatchesScalarBitwiseAllLengths) {
  const auto backends = SupportedBackends();
  const simd::Kernels& ref = simd::KernelsFor(simd::Backend::kScalar);
  // Value pool chosen to make any reassociation visible: mixed magnitudes
  // lose different low bits depending on add order.
  Random rng(0xd0b1e5);
  for (int iter = 0; iter < 64; ++iter) {
    double v[64];
    for (auto& x : v) {
      switch (rng.Uniform(6)) {
        case 0:
          x = static_cast<double>(rng.UniformRange(-1000, 1000)) / 3.0;
          break;
        case 1:
          x = 1e16 + static_cast<double>(rng.Uniform(1000));
          break;
        case 2:
          x = -1e-9 * static_cast<double>(rng.Uniform(1000));
          break;
        case 3:
          x = (rng.Uniform(2) != 0) ? 0.0 : -0.0;
          break;
        case 4:
          x = static_cast<double>(static_cast<int64_t>(rng.Next()));
          break;
        default:
          x = static_cast<double>(rng.Uniform(100));
          break;
      }
    }
    for (size_t n = 1; n <= 64; ++n) {
      double rs, rmin, rmax;
      ref.fold_double(v, n, &rs, &rmin, &rmax);
      for (simd::Backend b : backends) {
        double s, mn, mx;
        simd::KernelsFor(b).fold_double(v, n, &s, &mn, &mx);
        ASSERT_EQ(Bits(s), Bits(rs)) << simd::BackendName(b) << " n=" << n;
        ASSERT_EQ(Bits(mn), Bits(rmin)) << simd::BackendName(b) << " n=" << n;
        ASSERT_EQ(Bits(mx), Bits(rmax)) << simd::BackendName(b) << " n=" << n;
      }
    }
  }
}

TEST(SimdKernelTest, FoldDoubleNanAndSignedZeroContract) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // NaN in every lane position, including the sequential tail (n=5..7).
  for (size_t nan_at : {0u, 1u, 3u, 4u, 6u}) {
    double v[7] = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0};
    v[nan_at] = nan;
    for (size_t n = nan_at + 1; n <= 7; ++n) {
      for (simd::Backend b : SupportedBackends()) {
        double s, mn, mx;
        simd::KernelsFor(b).fold_double(v, n, &s, &mn, &mx);
        // MINPD/MAXPD(v, acc) semantics: a NaN *value* never replaces the
        // accumulator, so min/max stay finite; the sum is NaN as IEEE adds.
        EXPECT_TRUE(std::isnan(s)) << simd::BackendName(b);
        EXPECT_FALSE(std::isnan(mn)) << simd::BackendName(b) << " n=" << n;
        EXPECT_FALSE(std::isnan(mx)) << simd::BackendName(b) << " n=" << n;
      }
    }
  }
  // -0.0 / +0.0 ties must resolve identically (compare-select keeps the
  // accumulator on ties, because -0.0 < 0.0 is false).
  const double zeros[8] = {0.0, -0.0, -0.0, 0.0, -0.0, 0.0, 0.0, -0.0};
  const simd::Kernels& ref = simd::KernelsFor(simd::Backend::kScalar);
  for (size_t n = 1; n <= 8; ++n) {
    double rs, rmin, rmax;
    ref.fold_double(zeros, n, &rs, &rmin, &rmax);
    for (simd::Backend b : SupportedBackends()) {
      double s, mn, mx;
      simd::KernelsFor(b).fold_double(zeros, n, &s, &mn, &mx);
      EXPECT_EQ(Bits(s), Bits(rs)) << simd::BackendName(b) << " n=" << n;
      EXPECT_EQ(Bits(mn), Bits(rmin)) << simd::BackendName(b) << " n=" << n;
      EXPECT_EQ(Bits(mx), Bits(rmax)) << simd::BackendName(b) << " n=" << n;
    }
  }
}

// ---------------------------------------------------------------------------
// Bitmap popcount: CountSet across ragged sizes
// ---------------------------------------------------------------------------

TEST(SimdBitmapTest, WordOpsMatchScalarAcrossRaggedSizes) {
  Random rng(0xb17a5);
  // ~1k bitmaps: every size in 1..257 (covers 1..5 words and every tail
  // remainder), 4 random fills each, counted against a per-bit walk.
  for (size_t size = 1; size <= 257; ++size) {
    for (int rep = 0; rep < 4; ++rep) {
      Bitmap a(size);
      for (size_t w = 0; w < a.num_words(); ++w) a.SetWord(w, rng.Next());
      size_t ref_count = 0;
      for (size_t i = 0; i < size; ++i) ref_count += a.Get(i) ? 1 : 0;
      ASSERT_EQ(a.CountSet(), ref_count) << "size " << size;
    }
  }
}

TEST(SimdBitmapTest, BitmapClassOpsIdenticalUnderEveryBackend) {
  Random rng(0xb17b17);
  for (size_t size : {1u, 63u, 64u, 65u, 127u, 128u, 200u, 257u}) {
    Bitmap a(size);
    for (size_t i = 0; i < size; ++i) {
      if (rng.Uniform(2) != 0) a.Set(i);
    }
    size_t count_ref = 0;
    {
      ScopedBackend scoped(simd::Backend::kScalar);
      count_ref = a.CountSet();
    }
    for (simd::Backend bk : SupportedBackends()) {
      ScopedBackend scoped(bk);
      EXPECT_EQ(a.CountSet(), count_ref) << simd::BackendName(bk);
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end: whole queries bit-identical across backends
// ---------------------------------------------------------------------------

constexpr char kCubeDdl[] =
    "CREATE CUBE simd_cube (region int CARDINALITY 16 RANGE 4, "
    "kind string CARDINALITY 8 RANGE 8, n int, weight double)";

// Loads enough rows for several dense 64-row words plus a ragged tail,
// then deletes one partition so visibility masks have holes.
void FillCube(Database* db) {
  ASSERT_TRUE(db->ExecuteDdl(kCubeDdl).ok());
  Random rng(0x51d0);
  std::vector<Record> records;
  for (int i = 0; i < 3000; ++i) {
    Record r;
    r.values.emplace_back(static_cast<int64_t>(rng.Uniform(16)));
    r.values.emplace_back(
        std::string("k").append(std::to_string(rng.Uniform(8))));
    r.values.emplace_back(static_cast<int64_t>(rng.UniformRange(-50, 50)));
    r.values.emplace_back(
        static_cast<double>(rng.UniformRange(-1000, 1000)) / 7.0);
    records.push_back(std::move(r));
  }
  ASSERT_TRUE(db->Load("simd_cube", records).ok());
  // Partition-granular predicate: region RANGE is 4, so [4, 7] is exactly
  // one partition per brick.
  auto del = db->RangeFilter("simd_cube", "region", 4, 7);
  ASSERT_TRUE(del.ok());
  auto deleted = db->DeletePartitions("simd_cube", {*del});
  ASSERT_TRUE(deleted.ok()) << deleted.ToString();
}

std::vector<Query> DifferentialQueries(Database* db) {
  std::vector<Query> queries;
  Query all;
  all.aggs = {{AggSpec::Fn::kSum, 0},   {AggSpec::Fn::kCount, 0},
              {AggSpec::Fn::kMin, 0},   {AggSpec::Fn::kMax, 0},
              {AggSpec::Fn::kSum, 1},   {AggSpec::Fn::kMin, 1},
              {AggSpec::Fn::kMax, 1}};
  queries.push_back(all);

  Query filtered = all;
  auto eq = db->EqFilter("simd_cube", "kind", "k2");
  EXPECT_TRUE(eq.ok());
  filtered.filters = {*eq};
  queries.push_back(filtered);

  Query ranged = all;
  auto rf = db->RangeFilter("simd_cube", "region", 1, 9);
  EXPECT_TRUE(rf.ok());
  ranged.filters = {*rf};
  queries.push_back(ranged);

  Query in_list = all;
  auto inf = db->InFilter("simd_cube", "kind", {"k1", "k4", "k7"});
  EXPECT_TRUE(inf.ok());
  in_list.filters = {*inf};
  queries.push_back(in_list);

  Query grouped = all;
  grouped.group_by = {0, 1};
  queries.push_back(grouped);

  Query grouped_filtered = grouped;
  grouped_filtered.filters = {*eq};
  queries.push_back(grouped_filtered);
  return queries;
}

void ExpectBitIdentical(const QueryResult& ref, const QueryResult& got,
                        const char* backend, size_t qi) {
  ASSERT_EQ(ref.num_groups(), got.num_groups()) << backend << " q" << qi;
  ASSERT_EQ(ref.num_aggs(), got.num_aggs()) << backend << " q" << qi;
  for (const auto& [key, states] : ref.groups()) {
    auto it = got.groups().find(key);
    ASSERT_NE(it, got.groups().end()) << backend << " q" << qi;
    ASSERT_EQ(states.size(), it->second.size());
    for (size_t a = 0; a < states.size(); ++a) {
      EXPECT_EQ(Bits(states[a].sum), Bits(it->second[a].sum))
          << backend << " q" << qi << " agg " << a;
      EXPECT_EQ(states[a].count, it->second[a].count)
          << backend << " q" << qi << " agg " << a;
      EXPECT_EQ(Bits(states[a].min), Bits(it->second[a].min))
          << backend << " q" << qi << " agg " << a;
      EXPECT_EQ(Bits(states[a].max), Bits(it->second[a].max))
          << backend << " q" << qi << " agg " << a;
    }
  }
}

TEST(SimdExecutorTest, QueryResultsBitIdenticalAcrossBackends) {
  Database db;
  FillCube(&db);
  const std::vector<Query> queries = DifferentialQueries(&db);
  std::vector<QueryResult> refs;
  {
    ScopedBackend scoped(simd::Backend::kScalar);
    for (const Query& q : queries) {
      auto r = db.Query("simd_cube", q);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      refs.push_back(std::move(r).value());
    }
  }
  EXPECT_GT(refs[0].Single(1, AggSpec::Fn::kCount), 2000.0);  // deletes applied
  for (simd::Backend b : SupportedBackends()) {
    ScopedBackend scoped(b);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      auto r = db.Query("simd_cube", queries[qi]);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ExpectBitIdentical(refs[qi], std::move(r).value(), simd::BackendName(b),
                         qi);
    }
  }
}

}  // namespace
}  // namespace cubrick
