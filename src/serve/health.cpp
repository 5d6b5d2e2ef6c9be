#include "serve/health.h"

#include <algorithm>

namespace spmv::serve {
namespace {

// The detector's thresholds, as fractions of queue capacity (see
// health.h).  Every server, bench and example ran these same values, so
// they are constants rather than options.
/// At or above this, kOk escalates to kOverloaded.
constexpr double kOverloadFrac = 0.50;
/// At or above this, any state enters kShedding at once.
constexpr double kShedFrac = 0.75;
/// Strictly below this, a sample counts toward recovery.
constexpr double kRecoverFrac = 0.25;
/// Consecutive below-recover samples that return the state to kOk.
constexpr std::uint64_t kRecoverSamples = 4;
/// EWMA smoothing for queue latency: new = alpha*x + (1-alpha)*old.
constexpr double kEwmaAlpha = 0.2;

}  // namespace

const char* to_string(HealthState s) noexcept {
  switch (s) {
    case HealthState::kOk:
      return "ok";
    case HealthState::kOverloaded:
      return "overloaded";
    case HealthState::kShedding:
      return "shedding";
  }
  return "?";
}

HealthState OverloadDetector::sample(std::size_t depth,
                                     std::size_t capacity) {
  const double frac =
      capacity == 0 ? 0.0
                    : static_cast<double>(depth) / static_cast<double>(capacity);
  // relaxed CAS loop: the packed word is self-contained (state + streak
  // travel together); no other data is published through it, so no
  // acquire/release pairing is needed — only the atomicity of the
  // state+streak update.
  std::uint64_t old_word = packed_.load(std::memory_order_relaxed);
  for (;;) {
    const HealthState old_state = unpack_state(old_word);
    std::uint64_t streak = old_word >> kStreakShift;
    HealthState next = old_state;

    if (frac >= kShedFrac) {
      next = HealthState::kShedding;
      streak = 0;
    } else if (frac < kRecoverFrac) {
      if (old_state == HealthState::kOk) {
        streak = 0;
      } else {
        ++streak;
        if (streak >= kRecoverSamples) {
          next = HealthState::kOk;
          streak = 0;
        }
      }
    } else {
      // Between kRecoverFrac and kShedFrac: kOk escalates to
      // kOverloaded at kOverloadFrac; degraded states hold (hysteresis)
      // and any recovery streak resets.
      streak = 0;
      if (old_state == HealthState::kOk && frac >= kOverloadFrac) {
        next = HealthState::kOverloaded;
      }
    }

    const std::uint64_t new_word = pack(next, streak);
    if (new_word == old_word) return next;
    // relaxed CAS: the packed state word is self-contained — no other
    // memory is published through the transition, and every sampler
    // re-derives from the freshest word on failure.
    if (packed_.compare_exchange_weak(old_word, new_word,
                                      std::memory_order_relaxed,
                                      std::memory_order_relaxed)) {
      if (next != old_state) transitions_.add();
      return next;
    }
    // old_word was reloaded by the failed CAS; re-derive and retry.
  }
}

void OverloadDetector::record_latency(std::chrono::microseconds latency) {
  const auto x = static_cast<double>(std::max<std::int64_t>(0, latency.count()));
  // relaxed CAS loop: the EWMA is an advisory scalar — losing a race
  // just folds samples in a different order, and no memory is published
  // through it.
  std::uint64_t old_us = ewma_us_.load(std::memory_order_relaxed);
  for (;;) {
    const double blended =
        old_us == 0 ? x
                    : kEwmaAlpha * x +
                          (1.0 - kEwmaAlpha) * static_cast<double>(old_us);
    // Clamp up to 1 so a tiny first sample doesn't read back as "no
    // data yet" (0 is the sentinel for that).
    const auto new_us =
        static_cast<std::uint64_t>(std::max(1.0, blended));
    if (new_us == old_us) return;
    // relaxed CAS: advisory scalar, no publication — see loop comment.
    if (ewma_us_.compare_exchange_weak(old_us, new_us,
                                       std::memory_order_relaxed,
                                       std::memory_order_relaxed)) {
      return;
    }
  }
}

}  // namespace spmv::serve
