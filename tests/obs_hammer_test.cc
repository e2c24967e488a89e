// Multi-threaded hammer over the observability layer: concurrent writers on
// shared instruments plus concurrent snapshot/exposition readers. Run under
// TSan by the sanitizer CI jobs; the assertions pin down the consistency
// guarantee from docs/OBSERVABILITY.md: every snapshot of a histogram
// satisfies count == sum(buckets), counters read monotonically, and final
// totals are exact.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"

namespace cubrick::obs {
namespace {

TEST(ObsHammerTest, ConcurrentWritersAndSnapshotters) {
  SetEnabled(true);
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* counter = reg.GetCounter("hammer.ops_total");
  Gauge* gauge = reg.GetGauge("hammer.depth");
  Histogram* hist = reg.GetHistogram("hammer.latency_us");
  counter->ResetForTest();
  gauge->ResetForTest();
  hist->ResetForTest();

  constexpr int kWriters = 4;
  constexpr uint64_t kOpsPerWriter = 20'000;
  std::atomic<bool> stop{false};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      // Each writer also registers its own instrument mid-run, exercising
      // the registration mutex against concurrent snapshots.
      Counter* own =
          reg.GetCounter("hammer.writer_" + std::to_string(w) + "_total");
      for (uint64_t i = 0; i < kOpsPerWriter; ++i) {
        counter->Add();
        own->Add();
        gauge->Set(static_cast<int64_t>(i));
        hist->Record(i % 5000);
      }
    });
  }

  std::thread snapshotter([&] {
    uint64_t last_count = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const MetricsSnapshot snap = reg.Snapshot();
      // Counters never move backwards between snapshots.
      const auto it = snap.counters.find("hammer.ops_total");
      if (it != snap.counters.end()) {
        EXPECT_GE(it->second, last_count);
        last_count = it->second;
      }
      // Histogram snapshots are internally consistent mid-write.
      const auto hit = snap.histograms.find("hammer.latency_us");
      if (hit != snap.histograms.end()) {
        uint64_t bucket_sum = 0;
        for (uint64_t b : hit->second.buckets) bucket_sum += b;
        EXPECT_EQ(hit->second.count, bucket_sum);
      }
      // The exposition must stay well-formed under concurrent writes.
      EXPECT_NE(ExportPrometheus(snap).find("cubrick_hammer_ops_total"),
                std::string::npos);
    }
  });

  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  snapshotter.join();

  const uint64_t expected = kWriters * kOpsPerWriter;
  EXPECT_EQ(counter->Value(), expected);
  EXPECT_EQ(hist->Read().count, expected);
  for (int w = 0; w < kWriters; ++w) {
    EXPECT_EQ(
        reg.GetCounter("hammer.writer_" + std::to_string(w) + "_total")
            ->Value(),
        kOpsPerWriter);
  }
}

TEST(ObsHammerTest, ConcurrentRegistrationReturnsOneInstrumentPerName) {
  SetEnabled(true);
  MetricsRegistry& reg = MetricsRegistry::Global();
  constexpr int kThreads = 8;
  std::vector<Counter*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Counter* c = reg.GetCounter("hammer.registration_race");
      c->Add();
      seen[static_cast<size_t>(t)] = c;
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<size_t>(t)], seen[0]);
  }
  EXPECT_GE(reg.GetCounter("hammer.registration_race")->Value(),
            static_cast<uint64_t>(kThreads));
}

}  // namespace
}  // namespace cubrick::obs
