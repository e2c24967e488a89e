// Unit tests for phase timers (docs/OBSERVABILITY.md, "Phase timers").

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/span.h"

namespace cubrick::obs {
namespace {

class ObsSpanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetEnabled(true);
    hist_ = MetricsRegistry::Global().GetHistogram("test.span_latency_us");
    hist_->ResetForTest();
  }
  void TearDown() override { SetEnabled(true); }

  Histogram* hist_ = nullptr;
};

TEST_F(ObsSpanTest, FinishIsIdempotent) {
  {
    ObsSpan span(hist_);
    span.Finish();
    span.Finish();  // second Finish is a no-op, and so is the destructor
  }
  EXPECT_EQ(hist_->Read().count, 1u);
}

TEST_F(ObsSpanTest, DisabledSpansRecordNothing) {
  SetEnabled(false);
  {
    ObsSpan span(hist_);
  }
  SetEnabled(true);
  EXPECT_EQ(hist_->Read().count, 0u);
}

TEST_F(ObsSpanTest, SpanPublishesIntoHistogram) {
  {
    ObsSpan span(hist_);
  }
  EXPECT_EQ(hist_->Read().count, 1u);
}

}  // namespace
}  // namespace cubrick::obs
