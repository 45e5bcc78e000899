// Time sources. The simulation engine advances a VirtualClock; the
// threaded engine and the plan-generation timing use WallTimer.
#pragma once

#include <chrono>

#include "common/assert.h"
#include "common/types.h"

namespace skewless {

/// Monotonically advancing virtual clock (microseconds). The simulation
/// driver owns one and advances it explicitly; everything downstream reads
/// it, which is what makes simulated runs bit-for-bit reproducible.
class VirtualClock {
 public:
  [[nodiscard]] Micros now() const { return now_; }

  void advance(Micros delta) {
    SKW_EXPECTS(delta >= 0);
    now_ += delta;
  }

  void advance_to(Micros t) {
    SKW_EXPECTS(t >= now_);
    now_ = t;
  }

 private:
  Micros now_ = 0;
};

/// Microseconds on the monotonic clock — the engines' tuple emit stamps
/// and latency reads. Forked net workers share the driver's clock, so the
/// stamps compare across processes.
[[nodiscard]] inline Micros steady_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Wall-clock stopwatch for measuring plan-generation time (the paper's
/// "average generation time" metric) and threaded-engine intervals.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}

  void reset() { start_ = std::chrono::steady_clock::now(); }

  [[nodiscard]] Micros elapsed_micros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

  [[nodiscard]] double elapsed_millis() const {
    return static_cast<double>(elapsed_micros()) / 1000.0;
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace skewless
