// Counter: a statistics counter that copies as its current value.
//
// Each counter set of the serving stack (serve/serve_stats.h, and the
// session and server counters in net/) is a plain struct of Counters and
// histograms of them, so a copy of the struct is its snapshot and adding
// a counter is adding one field.  A Counter reads as a std::uint64_t, so
// a copy works in arithmetic, comparisons and test macros like a struct
// of integers.
//
// Why relaxed is enough, argued once for every counter: a Counter
// publishes nothing.  No thread acts on other memory because a count
// reached some value, so each operation only has to be atomic (no lost
// increment), and per-object coherence already makes the values one
// thread reads from an add-only counter non-decreasing.  A copy of several counters
// is not one instant across them — increments in flight may land in one
// and not yet in another — which is all a snapshot of live statistics
// promises.  A reader that must see a count exact orders itself through
// something else: a mutex both sides hold (a session's retirement), a
// completion called after its count (a scheduler request), or a join.
//
// Values that steer behaviour (gates, flags, state words) are not
// Counters: they stay std::atomic at their use, with their order argued
// there.
//
// This header is on lint_concurrency.py's lock-free audit list: every
// atomic operation states its memory_order and argues it in an adjacent
// comment.
#pragma once

#include <atomic>
#include <cstdint>

namespace spmv {

class Counter {
 public:
  Counter() = default;
  Counter(const Counter& other) noexcept : value_(other.value()) {}
  Counter& operator=(const Counter& other) noexcept {
    // relaxed: a statistic publishes nothing (file comment).
    value_.store(other.value(), std::memory_order_relaxed);
    return *this;
  }

  void add(std::uint64_t n = 1) noexcept {
    // relaxed: one atomic RMW, nothing published (file comment).
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  /// For gauges (e.g. active connections): each sub() follows its add().
  void sub(std::uint64_t n = 1) noexcept {
    // relaxed: as add().
    value_.fetch_sub(n, std::memory_order_relaxed);
  }
  /// Raise the value to `n` if it is lower: a running maximum.
  void raise_to(std::uint64_t n) noexcept {
    // relaxed CAS loop: as add(); a failed CAS reloads the current value.
    std::uint64_t prev = value_.load(std::memory_order_relaxed);
    while (prev < n && !value_.compare_exchange_weak(
                           prev, n, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    // relaxed: a statistic publishes nothing (file comment).
    return value_.load(std::memory_order_relaxed);
  }
  /// Implicit on purpose: a copied stats struct reads like plain integers.
  operator std::uint64_t() const noexcept { return value(); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

}  // namespace spmv
