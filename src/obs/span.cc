#include "obs/span.h"

#include "common/stopwatch.h"

namespace cubrick::obs {

int64_t NowMicros() {
  // Monotonic base shared by all spans; first use anchors t=0.
  static const Stopwatch* clock = new Stopwatch();
  return clock->ElapsedMicros();
}

void ObsSpan::Finish() {
  if (done_) return;
  done_ = true;
  const int64_t dur = NowMicros() - start_us_;
  latency_us_->Record(static_cast<uint64_t>(dur < 0 ? 0 : dur));
}

}  // namespace cubrick::obs
