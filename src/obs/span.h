// Phase timers: RAII scopes that record their duration, in microseconds,
// into one latency histogram (docs/OBSERVABILITY.md, "Phase timers").
//
//   obs::ObsSpan span(metrics.latency_us);
//
// When metrics are disabled the constructor skips the clock read entirely.

#pragma once

#include <cstdint>

#include "obs/metrics.h"

namespace cubrick::obs {

/// Microseconds since the process's observability clock started (first use).
int64_t NowMicros();

class ObsSpan {
 public:
  /// `latency_us` must be non-null.
  explicit ObsSpan(Histogram* latency_us) : latency_us_(latency_us) {
    if (internal::EnabledRelaxed(internal::EnabledFlag())) {
      start_us_ = NowMicros();
    } else {
      done_ = true;
    }
  }

  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;

  /// Ends the span early; later calls and the destructor record nothing.
  void Finish();

  ~ObsSpan() { Finish(); }

 private:
  Histogram* latency_us_;
  int64_t start_us_ = 0;
  bool done_ = false;
};

}  // namespace cubrick::obs
