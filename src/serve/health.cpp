#include "serve/health.h"

#include <algorithm>

namespace spmv::serve {

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
  // travel together); no other data is published through it, and
  // transitions_ is statistics-only, so no acquire/release pairing is
  // needed — only the atomicity of the state+streak update.
  std::uint64_t old_word = packed_.load(std::memory_order_relaxed);
  for (;;) {
    const HealthState old_state = unpack_state(old_word);
    std::uint64_t streak = old_word >> kStreakShift;
    HealthState next = old_state;

    if (frac >= cfg_.shed_frac) {
      next = HealthState::kShedding;
      streak = 0;
    } else if (frac < cfg_.recover_frac) {
      if (old_state == HealthState::kOk) {
        streak = 0;
      } else {
        ++streak;
        if (streak >= cfg_.recover_samples) {
          next = HealthState::kOk;
          streak = 0;
        }
      }
    } else {
      // Between recover_frac and shed_frac: kOk escalates to
      // kOverloaded at overload_frac; degraded states hold (hysteresis)
      // and any recovery streak resets.
      streak = 0;
      if (old_state == HealthState::kOk && frac >= cfg_.overload_frac) {
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
      if (next != old_state) {
        // relaxed: statistics counter (see transitions()).
        transitions_.fetch_add(1, std::memory_order_relaxed);
      }
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
                    : cfg_.ewma_alpha * x +
                          (1.0 - cfg_.ewma_alpha) * static_cast<double>(old_us);
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
