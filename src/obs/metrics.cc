#include "obs/metrics.h"

#include "obs/percentile.h"

namespace cubrick::obs {

namespace internal {
std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> enabled{true};
  return enabled;
}
}  // namespace internal

bool Enabled() {
  return internal::EnabledFlag().load(std::memory_order_acquire);
}

void SetEnabled(bool enabled) {
  internal::EnabledFlag().store(enabled, std::memory_order_release);
}

uint64_t Histogram::BucketUpperBound(size_t i) {
  if (i == 0) return 0;
  if (i >= kNumBuckets - 1) return ~static_cast<uint64_t>(0);
  // Bucket i covers [2^(i-1), 2^i); inclusive upper bound is 2^i - 1.
  return (static_cast<uint64_t>(1) << i) - 1;
}

Histogram::Snapshot Histogram::Read() const {
  Snapshot snap;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_acquire);
    snap.count += snap.buckets[i];
  }
  snap.sum = sum_.load(std::memory_order_acquire);
  return snap;
}

void HistogramTally::FlushInto(Histogram* into) {
  if (internal::EnabledRelaxed(internal::EnabledFlag())) {
    for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      if (counts_[i] != 0) {
        into->buckets_[i].fetch_add(counts_[i], std::memory_order_relaxed);
      }
    }
    if (total_ != 0) into->sum_.fetch_add(total_, std::memory_order_relaxed);
  }
  *this = HistogramTally();
}

uint64_t Histogram::Snapshot::Percentile(double p) const {
  if (count == 0) return 0;
  const size_t rank = PercentileRank(count, p);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    cumulative += buckets[i];
    if (cumulative > rank) return Histogram::BucketUpperBound(i);
  }
  return Histogram::BucketUpperBound(kNumBuckets - 1);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  MutexLock lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  MutexLock lock(mutex_);
  for (const auto& [name, c] : counters_) snap.counters[name] = c->Value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->Value();
  for (const auto& [name, h] : histograms_) snap.histograms[name] = h->Read();
  return snap;
}

void MetricsRegistry::ResetForTest() {
  MutexLock lock(mutex_);
  for (auto& [name, c] : counters_) c->ResetForTest();
  for (auto& [name, g] : gauges_) g->ResetForTest();
  for (auto& [name, h] : histograms_) h->ResetForTest();
}

}  // namespace cubrick::obs
