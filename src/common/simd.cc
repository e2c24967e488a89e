#include "common/simd.h"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <limits>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define CUBRICK_SIMD_HAVE_AVX2 1
#include <immintrin.h>
#else
#define CUBRICK_SIMD_HAVE_AVX2 0
#endif

#if defined(__aarch64__)
#define CUBRICK_SIMD_HAVE_NEON 1
#include <arm_neon.h>
#else
#define CUBRICK_SIMD_HAVE_NEON 0
#endif

namespace cubrick::simd {

namespace {

// ---------------------------------------------------------------------------
// Scalar backend — the reference implementation of the kernel contracts.
// Every other backend must be bit-identical to these (simd_kernel_test.cc).
// ---------------------------------------------------------------------------

uint64_t FilterEqScalar(const uint64_t* coords, uint64_t value) {
  uint64_t mask = 0;
  for (size_t b = 0; b < 64; ++b) {
    mask |= static_cast<uint64_t>(coords[b] == value) << b;
  }
  return mask;
}

uint64_t FilterRangeScalar(const uint64_t* coords, uint64_t lo, uint64_t hi) {
  uint64_t mask = 0;
  for (size_t b = 0; b < 64; ++b) {
    mask |= static_cast<uint64_t>(coords[b] >= lo && coords[b] <= hi) << b;
  }
  return mask;
}

uint64_t FilterInScalar(const uint64_t* coords, const uint64_t* values,
                        size_t num_values) {
  uint64_t mask = 0;
  for (size_t v = 0; v < num_values; ++v) {
    mask |= FilterEqScalar(coords, values[v]);
  }
  return mask;
}

void FoldInt64Scalar(const int64_t* v, size_t n, uint64_t* sum, int64_t* min,
                     int64_t* max) {
  uint64_t s = 0;
  int64_t lo = std::numeric_limits<int64_t>::max();
  int64_t hi = std::numeric_limits<int64_t>::min();
  for (size_t i = 0; i < n; ++i) {
    s += static_cast<uint64_t>(v[i]);  // wrapping: order-insensitive, exact
    if (v[i] < lo) lo = v[i];
    if (v[i] > hi) hi = v[i];
  }
  *sum = s;
  *min = lo;
  *max = hi;
}

// The pinned fold-order contract (simd.h): four lane accumulators, word sum
// (l0+l2)+(l1+l3), sequential tail, MINPD/MAXPD(v, acc) step semantics.
void FoldDoubleScalar(const double* v, size_t n, double* sum, double* min,
                      double* max) {
  const size_t n4 = n & ~size_t{3};
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  const double inf = std::numeric_limits<double>::infinity();
  double lo0 = inf, lo1 = inf, lo2 = inf, lo3 = inf;
  double hi0 = -inf, hi1 = -inf, hi2 = -inf, hi3 = -inf;
  for (size_t i = 0; i < n4; i += 4) {
    const double a = v[i], b = v[i + 1], c = v[i + 2], d = v[i + 3];
    s0 += a;
    s1 += b;
    s2 += c;
    s3 += d;
    lo0 = a < lo0 ? a : lo0;
    lo1 = b < lo1 ? b : lo1;
    lo2 = c < lo2 ? c : lo2;
    lo3 = d < lo3 ? d : lo3;
    hi0 = a > hi0 ? a : hi0;
    hi1 = b > hi1 ? b : hi1;
    hi2 = c > hi2 ? c : hi2;
    hi3 = d > hi3 ? d : hi3;
  }
  double s = (s0 + s2) + (s1 + s3);
  const double lo02 = lo0 < lo2 ? lo0 : lo2;
  const double lo13 = lo1 < lo3 ? lo1 : lo3;
  double lo = lo02 < lo13 ? lo02 : lo13;
  const double hi02 = hi0 > hi2 ? hi0 : hi2;
  const double hi13 = hi1 > hi3 ? hi1 : hi3;
  double hi = hi02 > hi13 ? hi02 : hi13;
  for (size_t i = n4; i < n; ++i) {
    const double x = v[i];
    s += x;
    lo = x < lo ? x : lo;
    hi = x > hi ? x : hi;
  }
  *sum = s;
  *min = lo;
  *max = hi;
}

constexpr Kernels kScalarKernels = {
    Backend::kScalar, FilterEqScalar,   FilterRangeScalar, FilterInScalar,
    FoldInt64Scalar,  FoldDoubleScalar,
};

// ---------------------------------------------------------------------------
// AVX2 backend. Compiled behind __attribute__((target("avx2"))) so the TU
// builds without -mavx2; only reachable after a CPUID check in Detect().
// ---------------------------------------------------------------------------

#if CUBRICK_SIMD_HAVE_AVX2

__attribute__((target("avx2"))) uint64_t FilterEqAvx2(const uint64_t* coords,
                                                      uint64_t value) {
  const __m256i v = _mm256_set1_epi64x(static_cast<long long>(value));
  uint64_t mask = 0;
  for (size_t i = 0; i < 64; i += 4) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(coords + i));
    const __m256i eq = _mm256_cmpeq_epi64(x, v);
    const unsigned m =
        static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(eq)));
    mask |= static_cast<uint64_t>(m) << i;
  }
  return mask;
}

__attribute__((target("avx2"))) uint64_t FilterRangeAvx2(const uint64_t* coords,
                                                         uint64_t lo,
                                                         uint64_t hi) {
  // AVX2 only has signed 64-bit compares; XOR with the sign bit maps the
  // unsigned order onto the signed one.
  const __m256i bias = _mm256_set1_epi64x(
      static_cast<long long>(std::numeric_limits<int64_t>::min()));
  const __m256i lo_b = _mm256_xor_si256(
      _mm256_set1_epi64x(static_cast<long long>(lo)), bias);
  const __m256i hi_b = _mm256_xor_si256(
      _mm256_set1_epi64x(static_cast<long long>(hi)), bias);
  uint64_t mask = 0;
  for (size_t i = 0; i < 64; i += 4) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(coords + i));
    const __m256i xb = _mm256_xor_si256(x, bias);
    const __m256i below = _mm256_cmpgt_epi64(lo_b, xb);  // x < lo
    const __m256i above = _mm256_cmpgt_epi64(xb, hi_b);  // x > hi
    const unsigned bad = static_cast<unsigned>(_mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_or_si256(below, above))));
    mask |= static_cast<uint64_t>(~bad & 0xfu) << i;
  }
  return mask;
}

__attribute__((target("avx2"))) uint64_t FilterInAvx2(const uint64_t* coords,
                                                      const uint64_t* values,
                                                      size_t num_values) {
  uint64_t mask = 0;
  for (size_t v = 0; v < num_values; ++v) {
    mask |= FilterEqAvx2(coords, values[v]);
  }
  return mask;
}

__attribute__((target("avx2"))) void FoldInt64Avx2(const int64_t* v, size_t n,
                                                   uint64_t* sum, int64_t* min,
                                                   int64_t* max) {
  const size_t n4 = n & ~size_t{3};
  __m256i s = _mm256_setzero_si256();
  __m256i lo = _mm256_set1_epi64x(std::numeric_limits<int64_t>::max());
  __m256i hi = _mm256_set1_epi64x(std::numeric_limits<int64_t>::min());
  for (size_t i = 0; i < n4; i += 4) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    s = _mm256_add_epi64(s, x);
    lo = _mm256_blendv_epi8(lo, x, _mm256_cmpgt_epi64(lo, x));
    hi = _mm256_blendv_epi8(hi, x, _mm256_cmpgt_epi64(x, hi));
  }
  uint64_t s_lanes[4];
  int64_t lo_lanes[4], hi_lanes[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(s_lanes), s);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lo_lanes), lo);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(hi_lanes), hi);
  // Integer folds are order-insensitive: any horizontal order is exact.
  uint64_t s_out = s_lanes[0] + s_lanes[1] + s_lanes[2] + s_lanes[3];
  int64_t lo_out = std::numeric_limits<int64_t>::max();
  int64_t hi_out = std::numeric_limits<int64_t>::min();
  for (int l = 0; l < 4; ++l) {
    if (lo_lanes[l] < lo_out) lo_out = lo_lanes[l];
    if (hi_lanes[l] > hi_out) hi_out = hi_lanes[l];
  }
  for (size_t i = n4; i < n; ++i) {
    s_out += static_cast<uint64_t>(v[i]);
    if (v[i] < lo_out) lo_out = v[i];
    if (v[i] > hi_out) hi_out = v[i];
  }
  *sum = s_out;
  *min = lo_out;
  *max = hi_out;
}

__attribute__((target("avx2"))) void FoldDoubleAvx2(const double* v, size_t n,
                                                    double* sum, double* min,
                                                    double* max) {
  const size_t n4 = n & ~size_t{3};
  const double inf = std::numeric_limits<double>::infinity();
  __m256d s = _mm256_setzero_pd();
  __m256d lo = _mm256_set1_pd(inf);
  __m256d hi = _mm256_set1_pd(-inf);
  for (size_t i = 0; i < n4; i += 4) {
    const __m256d x = _mm256_loadu_pd(v + i);
    s = _mm256_add_pd(s, x);
    // MINPD/MAXPD(v, acc): NaN and ties resolve to the accumulator, exactly
    // the scalar backend's "(x OP acc) ? x : acc" lane step.
    lo = _mm256_min_pd(x, lo);
    hi = _mm256_max_pd(x, hi);
  }
  // Word sum (l0+l2)+(l1+l3), per the pinned contract.
  const __m128d s2 =
      _mm_add_pd(_mm256_castpd256_pd128(s), _mm256_extractf128_pd(s, 1));
  double s_out =
      _mm_cvtsd_f64(s2) + _mm_cvtsd_f64(_mm_unpackhi_pd(s2, s2));
  const __m128d lo2 = _mm_min_pd(_mm256_castpd256_pd128(lo),
                                 _mm256_extractf128_pd(lo, 1));
  const __m128d lo1 = _mm_min_sd(lo2, _mm_unpackhi_pd(lo2, lo2));
  double lo_out = _mm_cvtsd_f64(lo1);
  const __m128d hi2 = _mm_max_pd(_mm256_castpd256_pd128(hi),
                                 _mm256_extractf128_pd(hi, 1));
  const __m128d hi1 = _mm_max_sd(hi2, _mm_unpackhi_pd(hi2, hi2));
  double hi_out = _mm_cvtsd_f64(hi1);
  for (size_t i = n4; i < n; ++i) {
    const double x = v[i];
    s_out += x;
    lo_out = x < lo_out ? x : lo_out;
    hi_out = x > hi_out ? x : hi_out;
  }
  *sum = s_out;
  *min = lo_out;
  *max = hi_out;
}

constexpr Kernels kAvx2Kernels = {
    Backend::kAvx2, FilterEqAvx2,   FilterRangeAvx2, FilterInAvx2,
    FoldInt64Avx2,  FoldDoubleAvx2,
};

#endif  // CUBRICK_SIMD_HAVE_AVX2

// ---------------------------------------------------------------------------
// NEON backend (AArch64 — Advanced SIMD is baseline there, no runtime probe).
// Two 2-lane registers emulate the contract's four lanes so the fold order
// matches the scalar/AVX2 backends bit for bit.
// ---------------------------------------------------------------------------

#if CUBRICK_SIMD_HAVE_NEON

uint64_t FilterEqNeon(const uint64_t* coords, uint64_t value) {
  const uint64x2_t v = vdupq_n_u64(value);
  uint64_t mask = 0;
  for (size_t i = 0; i < 64; i += 2) {
    const uint64x2_t eq = vceqq_u64(vld1q_u64(coords + i), v);
    mask |= (vgetq_lane_u64(eq, 0) & 1ULL) << i;
    mask |= (vgetq_lane_u64(eq, 1) & 1ULL) << (i + 1);
  }
  return mask;
}

uint64_t FilterRangeNeon(const uint64_t* coords, uint64_t lo, uint64_t hi) {
  const uint64x2_t lo_v = vdupq_n_u64(lo);
  const uint64x2_t hi_v = vdupq_n_u64(hi);
  uint64_t mask = 0;
  for (size_t i = 0; i < 64; i += 2) {
    const uint64x2_t x = vld1q_u64(coords + i);
    const uint64x2_t ok = vandq_u64(vcgeq_u64(x, lo_v), vcleq_u64(x, hi_v));
    mask |= (vgetq_lane_u64(ok, 0) & 1ULL) << i;
    mask |= (vgetq_lane_u64(ok, 1) & 1ULL) << (i + 1);
  }
  return mask;
}

uint64_t FilterInNeon(const uint64_t* coords, const uint64_t* values,
                      size_t num_values) {
  uint64_t mask = 0;
  for (size_t v = 0; v < num_values; ++v) {
    mask |= FilterEqNeon(coords, values[v]);
  }
  return mask;
}

void FoldInt64Neon(const int64_t* v, size_t n, uint64_t* sum, int64_t* min,
                   int64_t* max) {
  const size_t n4 = n & ~size_t{3};
  int64x2_t s01 = vdupq_n_s64(0), s23 = vdupq_n_s64(0);
  int64x2_t lo01 = vdupq_n_s64(std::numeric_limits<int64_t>::max());
  int64x2_t lo23 = lo01;
  int64x2_t hi01 = vdupq_n_s64(std::numeric_limits<int64_t>::min());
  int64x2_t hi23 = hi01;
  for (size_t i = 0; i < n4; i += 4) {
    const int64x2_t a = vld1q_s64(v + i);
    const int64x2_t b = vld1q_s64(v + i + 2);
    s01 = vaddq_s64(s01, a);
    s23 = vaddq_s64(s23, b);
    lo01 = vbslq_s64(vcltq_s64(a, lo01), a, lo01);
    lo23 = vbslq_s64(vcltq_s64(b, lo23), b, lo23);
    hi01 = vbslq_s64(vcgtq_s64(a, hi01), a, hi01);
    hi23 = vbslq_s64(vcgtq_s64(b, hi23), b, hi23);
  }
  uint64_t s_out = vgetq_lane_u64(vreinterpretq_u64_s64(s01), 0) +
                   vgetq_lane_u64(vreinterpretq_u64_s64(s01), 1) +
                   vgetq_lane_u64(vreinterpretq_u64_s64(s23), 0) +
                   vgetq_lane_u64(vreinterpretq_u64_s64(s23), 1);
  int64_t lo_out = std::numeric_limits<int64_t>::max();
  int64_t hi_out = std::numeric_limits<int64_t>::min();
  const int64_t lo_lanes[4] = {vgetq_lane_s64(lo01, 0), vgetq_lane_s64(lo01, 1),
                               vgetq_lane_s64(lo23, 0),
                               vgetq_lane_s64(lo23, 1)};
  const int64_t hi_lanes[4] = {vgetq_lane_s64(hi01, 0), vgetq_lane_s64(hi01, 1),
                               vgetq_lane_s64(hi23, 0),
                               vgetq_lane_s64(hi23, 1)};
  for (int l = 0; l < 4; ++l) {
    if (lo_lanes[l] < lo_out) lo_out = lo_lanes[l];
    if (hi_lanes[l] > hi_out) hi_out = hi_lanes[l];
  }
  for (size_t i = n4; i < n; ++i) {
    s_out += static_cast<uint64_t>(v[i]);
    if (v[i] < lo_out) lo_out = v[i];
    if (v[i] > hi_out) hi_out = v[i];
  }
  *sum = s_out;
  *min = lo_out;
  *max = hi_out;
}

void FoldDoubleNeon(const double* v, size_t n, double* sum, double* min,
                    double* max) {
  const size_t n4 = n & ~size_t{3};
  const double inf = std::numeric_limits<double>::infinity();
  float64x2_t s01 = vdupq_n_f64(0.0), s23 = vdupq_n_f64(0.0);
  float64x2_t lo01 = vdupq_n_f64(inf), lo23 = vdupq_n_f64(inf);
  float64x2_t hi01 = vdupq_n_f64(-inf), hi23 = vdupq_n_f64(-inf);
  for (size_t i = 0; i < n4; i += 4) {
    const float64x2_t a = vld1q_f64(v + i);
    const float64x2_t b = vld1q_f64(v + i + 2);
    s01 = vaddq_f64(s01, a);
    s23 = vaddq_f64(s23, b);
    // Compare+select, NOT vminq/vmaxq: NEON min/max propagate NaN, while
    // the contract's "(x OP acc) ? x : acc" step must keep the accumulator.
    lo01 = vbslq_f64(vcltq_f64(a, lo01), a, lo01);
    lo23 = vbslq_f64(vcltq_f64(b, lo23), b, lo23);
    hi01 = vbslq_f64(vcgtq_f64(a, hi01), a, hi01);
    hi23 = vbslq_f64(vcgtq_f64(b, hi23), b, hi23);
  }
  // Word sum (l0+l2)+(l1+l3), per the pinned contract.
  const float64x2_t s02_13 = vaddq_f64(s01, s23);
  double s_out = vgetq_lane_f64(s02_13, 0) + vgetq_lane_f64(s02_13, 1);
  const float64x2_t lo_m =
      vbslq_f64(vcltq_f64(lo01, lo23), lo01, lo23);  // [min(l0,l2), min(l1,l3)]
  const double lo_a = vgetq_lane_f64(lo_m, 0), lo_b = vgetq_lane_f64(lo_m, 1);
  double lo_out = lo_a < lo_b ? lo_a : lo_b;
  const float64x2_t hi_m = vbslq_f64(vcgtq_f64(hi01, hi23), hi01, hi23);
  const double hi_a = vgetq_lane_f64(hi_m, 0), hi_b = vgetq_lane_f64(hi_m, 1);
  double hi_out = hi_a > hi_b ? hi_a : hi_b;
  for (size_t i = n4; i < n; ++i) {
    const double x = v[i];
    s_out += x;
    lo_out = x < lo_out ? x : lo_out;
    hi_out = x > hi_out ? x : hi_out;
  }
  *sum = s_out;
  *min = lo_out;
  *max = hi_out;
}

constexpr Kernels kNeonKernels = {
    Backend::kNeon, FilterEqNeon,   FilterRangeNeon, FilterInNeon,
    FoldInt64Neon,  FoldDoubleNeon,
};

#endif  // CUBRICK_SIMD_HAVE_NEON

// ---------------------------------------------------------------------------
// Runtime dispatch.
// ---------------------------------------------------------------------------

// -1 = unresolved; otherwise a Backend value. Resolved lazily from
// CUBRICK_SIMD on first Active()/ActiveKernels() call; SetBackend overrides.
std::atomic<int> g_active{-1};

Backend ResolveFromEnv() {
  const char* env = std::getenv("CUBRICK_SIMD");
  if (env == nullptr || env[0] == '\0' || std::strcmp(env, "auto") == 0) {
    return Detect();
  }
  Backend requested;
  if (std::strcmp(env, "scalar") == 0) {
    requested = Backend::kScalar;
  } else if (std::strcmp(env, "avx2") == 0) {
    requested = Backend::kAvx2;
  } else if (std::strcmp(env, "neon") == 0) {
    requested = Backend::kNeon;
  } else {
    std::fprintf(stderr,
                 "cubrick: CUBRICK_SIMD=\"%s\" is not scalar|avx2|neon|auto; "
                 "using \"%s\"\n",
                 env, BackendName(Detect()));
    return Detect();
  }
  if (!Supported(requested)) {
    std::fprintf(stderr,
                 "cubrick: CUBRICK_SIMD=%s is not supported on this CPU; "
                 "falling back to scalar\n",
                 env);
    return Backend::kScalar;
  }
  return requested;
}

}  // namespace

Backend Detect() {
#if CUBRICK_SIMD_HAVE_AVX2
  if (__builtin_cpu_supports("avx2")) return Backend::kAvx2;
#endif
#if CUBRICK_SIMD_HAVE_NEON
  return Backend::kNeon;
#else
  return Backend::kScalar;
#endif
}

bool Supported(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return true;
    case Backend::kAvx2:
#if CUBRICK_SIMD_HAVE_AVX2
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case Backend::kNeon:
#if CUBRICK_SIMD_HAVE_NEON
      return true;
#else
      return false;
#endif
  }
  return false;
}

Backend Active() {
  int b = g_active.load(std::memory_order_acquire);
  if (b >= 0) return static_cast<Backend>(b);
  const Backend resolved = ResolveFromEnv();
  int expected = -1;
  // First resolver wins; concurrent resolvers computed the same value from
  // the same environment, so the loser's answer is identical anyway.
  g_active.compare_exchange_strong(expected, static_cast<int>(resolved),
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire);
  return static_cast<Backend>(g_active.load(std::memory_order_acquire));
}

const Kernels& KernelsFor(Backend b) {
  switch (b) {
#if CUBRICK_SIMD_HAVE_AVX2
    case Backend::kAvx2:
      return kAvx2Kernels;
#endif
#if CUBRICK_SIMD_HAVE_NEON
    case Backend::kNeon:
      return kNeonKernels;
#endif
    default:
      return kScalarKernels;
  }
}

const Kernels& ActiveKernels() { return KernelsFor(Active()); }

bool SetBackend(Backend b) {
  if (!Supported(b)) return false;
  g_active.store(static_cast<int>(b), std::memory_order_release);
  return true;
}

const char* BackendName(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kNeon:
      return "neon";
  }
  return "scalar";
}

}  // namespace cubrick::simd
