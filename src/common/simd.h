// Portable SIMD layer for the scan kernels (DESIGN.md §4e).
//
// The word-wise scan kernels (executor filter/fold passes) call through the
// function table returned by ActiveKernels() instead of open-coding loops.
// Three backends implement the table:
//
//   * kScalar — plain C++, always compiled, always correct. The reference
//     the differential tests compare every other backend against.
//   * kAvx2   — x86-64 AVX2, compiled behind __attribute__((target)) so the
//     translation unit builds without -mavx2; selected at runtime only when
//     CPUID reports the feature.
//   * kNeon   — AArch64 Advanced SIMD (baseline on aarch64, so no runtime
//     feature probe is needed there).
//
// Dispatch is resolved once per process: the CUBRICK_SIMD environment
// variable (scalar|avx2|neon|auto, default auto = best supported) is read on
// first use and is the only configuration route; tests override it with
// SetBackend(). Requesting an unsupported backend falls back to scalar with
// a stderr warning — never a crash, never silent garbage.
//
// ## Fold-order contract (bit-identical results across backends)
//
// SIMD reassociates floating-point folds, so "same math" is not enough for
// bit-identical results. Every backend therefore implements the SAME
// documented fold order, pinned by the differential tests in
// tests/simd_kernel_test.cc:
//
//   * FoldInt64: the word sum is accumulated in wrapping two's-complement
//     uint64 arithmetic — associative and commutative, hence exactly equal
//     in any order — and converted to double ONCE per word by the caller.
//     min/max over int64 are order-insensitive. (Semantics note: when a
//     word's true sum exceeds int64 range it wraps identically on every
//     backend; the old row-at-a-time double fold would instead have lost
//     precision past 2^53. All repo workloads stay far below both limits.)
//   * FoldDouble: four lane accumulators l0..l3, lane j summing v[4k+j]
//     over the first n&~3 values; the word sum is (l0+l2)+(l1+l3); the
//     n&3 tail values are then added sequentially. Lane min/max steps use
//     "(v OP acc) ? v : acc" — exactly x86 MINPD/MAXPD(v, acc) semantics —
//     so a NaN value never replaces the accumulator (matching the scalar
//     `if (v < min) min = v` row loop) and -0.0/+0.0 ties resolve
//     identically on every backend.
//
// Filter masks are integer-exact, so they carry no order contract beyond
// "same bits".
//
// Blind spots (documented, DESIGN.md §4e): no AVX-512 or SVE backends; the
// dispatch is process-global (per-query backend mixing is not supported —
// results are bit-identical across backends, so mixing could never change
// an answer, only confuse perf attribution).

#pragma once

#include <cstddef>
#include <cstdint>

namespace cubrick::simd {

enum class Backend : uint8_t { kScalar = 0, kAvx2 = 1, kNeon = 2 };

/// The kernel function table one backend implements. All pointers are
/// always non-null. `coords` buffers passed to filter kernels hold exactly
/// 64 decoded dimension coordinates (one bitmap word's worth; the executor
/// only takes this path for dense words, which never overlap a brick's
/// ragged tail). Fold kernels take 1 <= n <= 64 contiguous values — either
/// a direct column slice (dense word) or a ctz-compressed gather buffer
/// (sparse word).
struct Kernels {
  Backend backend;

  /// Bit b of the result is set iff coords[b] == value.
  uint64_t (*filter_eq)(const uint64_t* coords, uint64_t value);
  /// Bit b set iff lo <= coords[b] <= hi (unsigned).
  uint64_t (*filter_range)(const uint64_t* coords, uint64_t lo, uint64_t hi);
  /// Bit b set iff coords[b] equals any of values[0..num_values).
  uint64_t (*filter_in)(const uint64_t* coords, const uint64_t* values,
                        size_t num_values);

  /// Wrapping-uint64 sum plus int64 min/max of v[0..n). n >= 1.
  void (*fold_int64)(const int64_t* v, size_t n, uint64_t* sum, int64_t* min,
                     int64_t* max);
  /// Pinned-order double sum (see the fold-order contract above) plus
  /// MINPD/MAXPD-semantics min/max of v[0..n). n >= 1.
  void (*fold_double)(const double* v, size_t n, double* sum, double* min,
                      double* max);
};

/// Best backend this CPU supports (never consults the environment).
Backend Detect();

/// True when `b` can run on this CPU.
bool Supported(Backend b);

/// The process-global active backend. First call resolves CUBRICK_SIMD
/// (unset/"auto" -> Detect(); unknown or unsupported values warn on stderr
/// and fall back); later SetBackend() calls override it.
Backend Active();

/// Kernel table of the active backend. Cheap (one acquire load).
const Kernels& ActiveKernels();

/// Kernel table for a specific backend — differential tests run scalar and
/// SIMD side by side through this. Precondition: Supported(b).
const Kernels& KernelsFor(Backend b);

/// Forces the active backend. Returns false (and leaves the active backend
/// unchanged) when `b` is not supported on this CPU.
bool SetBackend(Backend b);

/// Lowercase backend name ("scalar", "avx2", "neon").
const char* BackendName(Backend b);

}  // namespace cubrick::simd
