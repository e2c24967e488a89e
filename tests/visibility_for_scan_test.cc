// VisibilityForScan is the one visibility path behind every brick scan. It
// must return exactly BuildVisibilityBitmap's mask under SI and all ones
// under RU. A brick the snapshot sees whole gets an all-ones mask without a
// build, counted in query.vis_whole_bricks; any other SI bitmap is built
// for the call.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "aosi/visibility.h"
#include "obs/metrics.h"
#include "query/executor.h"
#include "storage/brick.h"

namespace cubrick {
namespace {

std::shared_ptr<CubeSchema> Schema() {
  return CubeSchema::Make("t", {{"d", 8, 8, false}}, {{"v", DataType::kInt64}})
      .value();
}

/// `rows` rows for the schema's single brick.
EncodedBatch Rows(const CubeSchema& schema, uint64_t rows) {
  EncodedBatch batch(schema);
  batch.num_rows = rows;
  for (uint64_t r = 0; r < rows; ++r) {
    batch.dim_offsets[0].push_back(r % 8);
    batch.metric_ints[0].push_back(static_cast<int64_t>(r));
  }
  batch.ClosePartition(0);
  return batch;
}

/// One step of a brick's history: `rows` rows appended by `epoch`, or a
/// delete marker by `epoch` when `rows` is 0.
struct Step {
  aosi::Epoch epoch;
  uint64_t rows;
};

struct Case {
  const char* name;
  std::vector<Step> history;
  aosi::Snapshot snapshot;
  bool whole;
};

std::vector<Case> Cases() {
  return {
      // 130 rows: the mask spans three words, the last one ragged.
      {"seen whole", {{1, 70}, {2, 60}}, {5, aosi::EpochSet({7})}, true},
      {"newest stamp past the snapshot",
       {{1, 70}, {6, 10}, {2, 60}},
       {5, {}},
       false},
      {"dep at the newest stamp", {{1, 70}, {3, 60}}, {5, aosi::EpochSet({3})},
       false},
      // Dep 2 names no run, so every row is visible; the brick is still not
      // seen whole, and its bitmap is built.
      {"dep below the newest stamp", {{1, 70}, {4, 60}},
       {5, aosi::EpochSet({2})}, false},
      {"visible delete marker", {{1, 20}, {2, 0}, {3, 110}}, {5, {}}, false},
      {"invisible delete marker", {{1, 20}, {6, 0}, {3, 110}}, {5, {}}, false},
  };
}

uint64_t CounterDelta(const obs::MetricsSnapshot& before,
                      const obs::MetricsSnapshot& after,
                      const std::string& name) {
  const auto b = before.counters.find(name);
  const auto a = after.counters.find(name);
  const uint64_t was = b == before.counters.end() ? 0 : b->second;
  return (a == after.counters.end() ? 0 : a->second) - was;
}

TEST(VisibilityForScanTest, ReturnsTheBuiltMaskOnEveryPath) {
  ASSERT_TRUE(obs::Enabled());
  auto schema = Schema();
  auto& reg = obs::MetricsRegistry::Global();
  for (const Case& c : Cases()) {
    Brick brick(schema, 0);
    for (const Step& step : c.history) {
      if (step.rows == 0) {
        brick.MarkDeleted(step.epoch);
      } else {
        brick.AppendBatch(step.epoch, Rows(*schema, step.rows), 0);
      }
    }
    const aosi::EpochVector& history = brick.history();
    ASSERT_EQ(aosi::SeesWhole(history, c.snapshot), c.whole) << c.name;
    const Bitmap built = aosi::BuildVisibilityBitmap(history, c.snapshot);
    for (ScanMode mode :
         {ScanMode::kSnapshotIsolation, ScanMode::kReadUncommitted}) {
      const bool si = mode == ScanMode::kSnapshotIsolation;
      SCOPED_TRACE(std::string(c.name) + (si ? " SI" : " RU"));
      const obs::MetricsSnapshot before = reg.Snapshot();
      const Bitmap mask = VisibilityForScan(brick, c.snapshot, mode);
      const obs::MetricsSnapshot after = reg.Snapshot();
      if (si) {
        EXPECT_EQ(mask, built);
      } else {
        EXPECT_EQ(mask, Bitmap(brick.num_records(), true));
      }
      const bool whole = !si || c.whole;
      EXPECT_EQ(CounterDelta(before, after, "query.vis_whole_bricks"),
                whole ? 1u : 0u);
    }
  }
}

}  // namespace
}  // namespace cubrick
