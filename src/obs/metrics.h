// Lock-free observability: process-wide registry of named counters, gauges
// and fixed-bucket histograms.
//
// Design constraints (see docs/OBSERVABILITY.md for the full policy):
//
//  * Hot-path writes are wait-free: a single atomic RMW (or store) with
//    std::memory_order_relaxed. Instruments are pure monotonic tallies —
//    nothing is published *through* them, so relaxed ordering is sufficient
//    and the aosi_lint atomic-memory-order rule carves out exactly this
//    idiom for src/obs (fetch_add/fetch_sub; everything else still needs a
//    `relaxed:` justification comment).
//  * Snapshot reads use std::memory_order_acquire so a reader that observes
//    a count also observes everything the writer published *before* the
//    side effects being counted (useful when correlating with logs).
//  * Registration (name -> instrument) takes a Mutex, but returns a stable
//    pointer: callers resolve once (constructor / function-local static)
//    and never touch the map again. Instruments are never deallocated.
//  * When metrics are disabled (obs::SetEnabled(false)) every write is a
//    relaxed flag load plus an untaken branch — near-zero cost.
//  * A loop that records many samples on one thread can collect them in a
//    HistogramTally (plain integers) and add them to the shared histogram
//    once, so it writes no shared cache line per sample.
//
// Histogram snapshots are internally consistent by construction: the count
// is derived as the sum of the bucket reads in the same snapshot, so
// `count == sum(buckets)` holds in every exposition even while writers are
// concurrently recording. See MetricsRegistry::Snapshot().

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"

namespace cubrick::obs {

/// Global kill switch. Checked (relaxed) by every instrument write; when
/// false, Add/Set/Record return immediately. Snapshots still work.
bool Enabled();
void SetEnabled(bool enabled);

namespace internal {
inline bool EnabledRelaxed(const std::atomic<bool>& flag) {
  return flag.load(std::memory_order_relaxed);
}
/// The flag behind Enabled()/SetEnabled().
std::atomic<bool>& EnabledFlag();
}  // namespace internal

/// Monotonically increasing 64-bit event tally.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    if (!internal::EnabledRelaxed(internal::EnabledFlag())) return;
    v_.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t Value() const { return v_.load(std::memory_order_acquire); }

  /// Test/bench-only: rewinds the tally (counters are otherwise monotonic).
  void ResetForTest() { v_.store(0, std::memory_order_release); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Last-writer-wins signed level (queue depth, epoch lag, ...).
class Gauge {
 public:
  void Set(int64_t v) {
    if (!internal::EnabledRelaxed(internal::EnabledFlag())) return;
    v_.store(v, std::memory_order_release);
  }

  void Add(int64_t n) {
    if (!internal::EnabledRelaxed(internal::EnabledFlag())) return;
    v_.fetch_add(n, std::memory_order_relaxed);
  }

  int64_t Value() const { return v_.load(std::memory_order_acquire); }

  void ResetForTest() { v_.store(0, std::memory_order_release); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Fixed-bucket histogram of non-negative values (canonically microseconds).
///
/// Buckets are powers of two: bucket i counts values in [2^(i-1), 2^i)
/// (bucket 0 counts zero, the last bucket is open-ended). Recording is one
/// relaxed fetch_add on the bucket plus one on the running sum; there is no
/// per-sample storage, so the cost is flat regardless of volume.
class Histogram {
 public:
  /// 0, [1,2), [2,4), ... [2^30, +inf) — covers ~17 minutes in micros.
  static constexpr size_t kNumBuckets = 32;

  static size_t BucketIndex(uint64_t v) {
    if (v == 0) return 0;
    const size_t bits = 64 - static_cast<size_t>(__builtin_clzll(v));
    return bits < kNumBuckets ? bits : kNumBuckets - 1;
  }

  /// Inclusive upper bound of bucket i (uint64 max for the overflow bucket).
  static uint64_t BucketUpperBound(size_t i);

  void Record(uint64_t v) {
    if (!internal::EnabledRelaxed(internal::EnabledFlag())) return;
    buckets_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  void ResetForTest() {
    for (auto& b : buckets_) b.store(0, std::memory_order_release);
    sum_.store(0, std::memory_order_release);
  }

  /// Acquire-reads every bucket; see HistogramSnapshot for derived stats.
  struct Snapshot;
  Snapshot Read() const;

 private:
  friend class HistogramTally;

  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> sum_{0};
};

/// One thread's private run of samples bound for a Histogram: the same
/// buckets as plain integers, so a hot loop that records many samples
/// writes no shared cache line until it flushes. Record keeps Histogram's
/// semantics (a sample recorded while metrics are disabled is dropped).
class HistogramTally {
 public:
  void Record(uint64_t v) {
    if (!internal::EnabledRelaxed(internal::EnabledFlag())) return;
    ++counts_[Histogram::BucketIndex(v)];
    total_ += v;
  }

  /// Adds every recorded sample into `into` with one relaxed fetch_add per
  /// non-empty bucket (plus one on the sum) and empties the tally. Nothing
  /// moves while metrics are disabled.
  void FlushInto(Histogram* into);

 private:
  // Not named buckets_/sum_: aosi_lint matches atomics by member name and
  // would read these plain integers as Histogram's atomics.
  std::array<uint64_t, Histogram::kNumBuckets> counts_{};
  uint64_t total_ = 0;
};

/// Point-in-time copy of a Histogram. `count` is derived from the bucket
/// reads themselves, so count == sum of buckets[] holds unconditionally —
/// this is the consistency guarantee the exporters (and the hammer test)
/// rely on under concurrent writers.
struct Histogram::Snapshot {
  std::array<uint64_t, kNumBuckets> buckets{};
  uint64_t count = 0;
  uint64_t sum = 0;

  double Mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / count;
  }

  /// Upper bound of the bucket containing the p-th percentile sample
  /// (nearest-rank over the bucketed distribution); 0 when empty.
  uint64_t Percentile(double p) const;
};

using HistogramSnapshot = Histogram::Snapshot;

/// Full-registry snapshot, suitable for export (obs/export.h).
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

/// Name -> instrument registry. Get* registers on first use and returns a
/// pointer that stays valid (and lock-free to write through) for the
/// lifetime of the process.
///
/// Naming convention: "subsystem.metric" with unit suffixes for time
/// ("query.latency_us"); see docs/OBSERVABILITY.md for the catalog.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Consistent point-in-time copy: each instrument is read with acquire
  /// loads; histogram counts are derived from their own bucket reads.
  MetricsSnapshot Snapshot() const;

  /// Test/bench-only: zeroes every registered instrument. Registrations
  /// (and the pointers handed out) stay valid.
  void ResetForTest();

 private:
  MetricsRegistry() = default;

  mutable Mutex mutex_;
  // std::map: node-based, so instrument addresses are stable forever.
  std::map<std::string, std::unique_ptr<Counter>> counters_ GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      GUARDED_BY(mutex_);
};

}  // namespace cubrick::obs
