// EventCount: the waiting half of a lock-free queue (prepare/commit-wait
// protocol, as in Folly's EventCount and Vyukov's writeups).
//
// A lock-free MPMC ring (util/mpmc_queue.h) removes the queue mutex, but
// consumers still need to *sleep* when the ring is empty — and a naive
// condvar reintroduces the mutex on every push (or loses wakeups without
// it).  The eventcount splits waiting into two steps so the producer fast
// path stays lock-free:
//
//   consumer:  ticket = prepare_wait();          // announce intent
//              if (work available) cancel_wait();  // re-check!
//              else commit_wait(ticket);         // sleep
//   producer:  push work onto the queue;         // plain lock-free push
//              notify_one();                     // one atomic RMW when
//                                                // nobody is sleeping
//
// The announce/re-check on one side and publish/check-waiters on the
// other form a Dekker-style store-buffering handshake: at least one side
// observes the other, so a consumer never sleeps on work pushed after its
// re-check, and a producer never skips a wakeup for a consumer that saw
// an empty queue.  Both sides of the handshake are read-modify-writes on
// the one state word (no standalone fence), so ThreadSanitizer models it
// like any other atomic.  When no consumer is parked — the steady state
// of a busy data plane — notify_one() is that one RMW and no lock.
//
// State layout: low 32 bits count parked-or-parking waiters (so notifiers
// can skip the slow path), high 32 bits are the wake epoch (so a notify
// between prepare and commit is never lost: commit re-checks the ticket's
// epoch under the internal mutex before sleeping).  The mutex/condvar
// pair is only ever touched by threads that are actually going to sleep
// or actually have a sleeper to wake.
//
// This header is on lint_concurrency.py's lock-free audit list: every
// atomic operation states its memory_order and argues it in an adjacent
// comment.
#pragma once

#include <atomic>
#include <chrono>
// lint:allow-concurrency — only for std::cv_status, no primitive declared.
#include <condition_variable>
#include <cstdint>

#include "util/fault_point.h"
#include "util/thread_annotations.h"

namespace spmv {

class EventCount {
 public:
  EventCount() = default;
  EventCount(const EventCount&) = delete;
  EventCount& operator=(const EventCount&) = delete;

  /// Announce intent to sleep and return the wake-epoch ticket.  The
  /// caller MUST re-check its work predicate after this call and then
  /// either cancel_wait() (work appeared) or commit_wait(ticket).
  [[nodiscard]] std::uint64_t prepare_wait() {
    // seq_cst RMW: the Dekker handshake's waiter side — this increment
    // must be ordered before the caller's work-predicate re-check,
    // pairing with notify()'s seq_cst RMW on the same word (producer:
    // work store, then RMW).  See notify() for why one of the two always
    // observes the other.
    const std::uint64_t s =
        state_.fetch_add(kWaiterInc, std::memory_order_seq_cst);
    return s >> kEpochShift;
  }

  /// Abandon a prepared wait (the re-check found work).
  void cancel_wait() {
    // relaxed: only un-announces this waiter; the caller is not going to
    // sleep, so no wake ordering hinges on this decrement.
    state_.fetch_sub(kWaiterInc, std::memory_order_relaxed);
  }

  /// Sleep until a notify arrives after the ticket was issued.  Returns
  /// immediately when one already has.
  void commit_wait(std::uint64_t ticket) SPMV_EXCLUDES(mutex_) {
    // Injected spurious wake: return before sleeping, exactly as a
    // condvar may.  cancel_wait() keeps the waiter-count invariant (the
    // prepare_wait announcement is undone), so every caller's
    // re-check-and-retry loop is exercised without corrupting state.
    if (SPMV_FAULT_POINT("eventcount.spurious_wake")) {
      cancel_wait();
      return;
    }
    MutexLock lock(mutex_);
    // relaxed: the epoch bump we are watching for is published under
    // mutex_, which we hold — the lock provides the ordering; the atomic
    // load only extracts the current value.
    while ((state_.load(std::memory_order_relaxed) >> kEpochShift) ==
           ticket) {
      cv_.wait(mutex_);
    }
    // relaxed: un-announce, as in cancel_wait.
    state_.fetch_sub(kWaiterInc, std::memory_order_relaxed);
  }

  /// commit_wait with a deadline; reports whether it timed out.  Either
  /// way the wait is finished (no cancel_wait needed).
  template <typename Clock, typename Duration>
  std::cv_status commit_wait_until(
      std::uint64_t ticket,
      const std::chrono::time_point<Clock, Duration>& deadline)
      SPMV_EXCLUDES(mutex_) {
    // Injected spurious wake — see commit_wait.  Reports no_timeout, as
    // a real spurious wake would.
    if (SPMV_FAULT_POINT("eventcount.spurious_wake")) {
      cancel_wait();
      return std::cv_status::no_timeout;
    }
    std::cv_status status = std::cv_status::no_timeout;
    MutexLock lock(mutex_);
    // relaxed: epoch is published under mutex_, held here (see
    // commit_wait).
    while ((state_.load(std::memory_order_relaxed) >> kEpochShift) ==
           ticket) {
      if (cv_.wait_until(mutex_, deadline) == std::cv_status::timeout) {
        status = std::cv_status::timeout;
        break;
      }
    }
    // relaxed: un-announce, as in cancel_wait.
    state_.fetch_sub(kWaiterInc, std::memory_order_relaxed);
    return status;
  }

  /// Wake at least one waiter that prepared before this call.  One atomic
  /// RMW when nobody is waiting.  Call AFTER publishing the work the
  /// waiter is waiting for.
  void notify_one() SPMV_EXCLUDES(mutex_) { notify(false); }

  /// Wake every waiter that prepared before this call.
  void notify_all() SPMV_EXCLUDES(mutex_) { notify(true); }

 private:
  static constexpr unsigned kEpochShift = 32;
  static constexpr std::uint64_t kWaiterInc = 1;
  static constexpr std::uint64_t kWaiterMask = (std::uint64_t{1} << 32) - 1;
  static constexpr std::uint64_t kEpochInc = std::uint64_t{1} << kEpochShift;

  void notify(bool all) SPMV_EXCLUDES(mutex_) {
    // seq_cst RMW (adding 0 reads the word without changing it): the
    // Dekker handshake's producer side, pairing with prepare_wait's
    // seq_cst increment.  Both are RMWs on state_, so they are totally
    // ordered in its modification order and each reads the latest value:
    //  * ours after the waiter's: we read its announcement and wake it;
    //  * ours before it: the waiter's acquire RMW reads our release RMW
    //    (or a later value in the chain of RMWs that follow it), so the
    //    caller's work store, sequenced before this call, happens-before
    //    the waiter's re-check, which then sees the work.
    // A relaxed load alone could read "no waiters" from before the
    // announcement while the re-check reads the queue from before our
    // push — a lost wakeup.  A seq_cst fence before that load closes the
    // window too, but ThreadSanitizer does not model fences.
    const std::uint64_t s = state_.fetch_add(0, std::memory_order_seq_cst);
    if ((s & kWaiterMask) == 0) return;  // fast path: nobody sleeping
    {
      MutexLock lock(mutex_);
      // relaxed: the epoch bump is read either under mutex_ (commit_wait
      // holds it) or after it via the cv wake — the mutex orders both.
      state_.fetch_add(kEpochInc, std::memory_order_relaxed);
    }
    if (all) {
      cv_.notify_all();
    } else {
      cv_.notify_one();
    }
  }

  /// Waiter count (low 32) and wake epoch (high 32).  The epoch only ever
  /// changes under mutex_; the waiter count changes lock-free.
  std::atomic<std::uint64_t> state_{0};
  Mutex mutex_;
  CondVar cv_;
};

}  // namespace spmv
