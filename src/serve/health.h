// Serving-plane health: overload detection with hysteresis.
//
// The scheduler's third overflow policy (OverflowPolicy::kShed) needs a
// signal for *when* to shed.  Raw queue depth is too twitchy — a linger
// window or one slow batch spikes depth for a millisecond — so the
// OverloadDetector is a small hysteresis state machine over the depth
// fraction (depth / capacity), with an EWMA of observed queue latency on
// the side for deadline-aware admission ("would this request's deadline
// already be blown by the time it reaches the dispatcher?"):
//
//      depth/capacity >= 0.75 ───────────────────► kShedding
//      depth/capacity >= 0.50 ───────────────────► kOverloaded
//      depth/capacity <  0.25 for 4 consecutive
//        samples ────────────────────────────────► kOk
//
// Entering kShedding is immediate (overload is an emergency); leaving
// requires a sustained streak below 0.25 (hysteresis), so the state
// doesn't flap at the boundary while the queue drains.  The thresholds
// and the EWMA's smoothing (alpha 0.2) are constants in health.cpp.
//
// This header is on lint_concurrency.py's lock-free audit list: every
// atomic operation states its memory_order and argues it in an adjacent
// comment.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

#include "util/counter.h"

namespace spmv::serve {

/// Admission-control state, coarsest first.  kOverloaded is advisory
/// (the queue is filling); kShedding is actionable (kShed submits of
/// priority <= 0 are rejected).
enum class HealthState : std::uint8_t {
  kOk = 0,
  kOverloaded = 1,
  kShedding = 2,
};

[[nodiscard]] const char* to_string(HealthState s) noexcept;

/// Lock-free hysteresis detector.  sample() may be called concurrently
/// from every submitter; state/streak live in one packed word updated by
/// CAS so transitions are exact even under contention.
class OverloadDetector {
 public:
  OverloadDetector() = default;
  OverloadDetector(const OverloadDetector&) = delete;
  OverloadDetector& operator=(const OverloadDetector&) = delete;

  /// Feed one queue-depth observation; returns the state after it.
  HealthState sample(std::size_t depth, std::size_t capacity);

  /// Feed one observed queue latency (submit -> dispatch) into the EWMA.
  void record_latency(std::chrono::microseconds latency);

  [[nodiscard]] HealthState state() const {
    // relaxed: a momentarily stale state only delays one admission
    // decision by a sample; no data is published through this flag.
    return unpack_state(packed_.load(std::memory_order_relaxed));
  }

  /// Cumulative number of state *changes* (for tests and ServeStats).
  [[nodiscard]] std::uint64_t transitions() const { return transitions_; }

  /// Smoothed queue latency, microseconds (0 until first sample).
  [[nodiscard]] std::uint64_t ewma_latency_us() const {
    // relaxed: advisory estimate; staleness is inherent to an EWMA.
    return ewma_us_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::uint64_t kStateMask = 0xff;
  static constexpr unsigned kStreakShift = 8;

  static HealthState unpack_state(std::uint64_t word) {
    return static_cast<HealthState>(word & kStateMask);
  }
  static std::uint64_t pack(HealthState s, std::uint64_t streak) {
    return static_cast<std::uint64_t>(s) | (streak << kStreakShift);
  }

  /// Low 8 bits: HealthState; high bits: consecutive below-recover
  /// sample streak.  One word so state+streak transition atomically.
  std::atomic<std::uint64_t> packed_{0};
  Counter transitions_;
  std::atomic<std::uint64_t> ewma_us_{0};
};

}  // namespace spmv::serve
