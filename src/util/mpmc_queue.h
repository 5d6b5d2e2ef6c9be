// Bounded lock-free MPMC ring (Vyukov's sequence-number design, the shape
// moodycamel::ConcurrentQueue builds on): the serving scheduler's request
// queue.
//
// Every slot carries a sequence number that encodes, relative to the ring
// positions, whose turn the slot is: a producer may fill slot s when
// seq == pos (the slot is empty for this lap), a consumer may drain it
// when seq == pos + 1 (the slot holds this lap's element).  Producers and
// consumers claim positions with a CAS on their own cursor and then hand
// the slot over with one release store of the sequence number, so a push
// and its matching pop synchronize slot-to-slot — contended pushes touch
// neither a mutex nor the consumers' cache line.
//
// Contracts:
//  * try_push/try_pop are safe from any number of threads concurrently.
//  * try_push(std::move(v)) leaves v untouched when it returns false
//    (full), so a caller can wait for space and push it again, or fail it
//    (the scheduler's kBlock and kReject policies).
//  * FIFO per producer: two pushes by one thread are popped in push order
//    (position claims are program-ordered per thread).  Cross-producer
//    order is claim order.
//  * Capacity rounds up to a power of two (mask indexing); capacity() is
//    the rounded value.
//  * No blocking anywhere — waiting is the caller's job (see
//    util/eventcount.h, which exists exactly to pair with this queue).
//
// This header is on lint_concurrency.py's lock-free audit list: every
// atomic operation states its memory_order and argues it in an adjacent
// comment.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>

namespace spmv {

/// Destructive-interference granularity for false-sharing padding.  A
/// fixed 64 rather than std::hardware_destructive_interference_size: GCC
/// warns (-Winterference-size) that the stdlib value shifts with -mtune,
/// which would make struct layout a function of build flags.  64 is the
/// line size on every x86-64 and the common AArch64 parts; on the rare
/// 128-byte-line core this costs one extra line of padding, not
/// correctness.
inline constexpr std::size_t kCacheLineSize = 64;

template <typename T>
class MpmcQueue {
 public:
  /// Ring of at least `min_capacity` slots, rounded up to a power of two
  /// no smaller than 2.  The floor is structural, not cosmetic: a push at
  /// position p leaves seq == p + 1, and the next producer to target the
  /// same slot arrives at position p + capacity, so full-detection reads
  /// diff == 1 - capacity — only negative when capacity >= 2.  A 1-slot
  /// ring would never report full and the second push would overwrite a
  /// live element.  All slots are allocated up front; elements are
  /// constructed into slot storage on push and destroyed on pop.
  explicit MpmcQueue(std::size_t min_capacity)
      : capacity_(std::bit_ceil(std::max<std::size_t>(2, min_capacity))),
        mask_(capacity_ - 1),
        slots_(std::make_unique<Slot[]>(capacity_)) {
    for (std::size_t i = 0; i < capacity_; ++i) {
      // relaxed: construction happens-before any use — the queue is
      // published to other threads by the owner, which provides the
      // ordering (e.g. a thread spawn or a release store of the pointer).
      slots_[i].seq.store(static_cast<std::uint64_t>(i),
                          std::memory_order_relaxed);
    }
  }

  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  /// Destroys any elements still queued.  Must not race with push/pop
  /// (destruction is the owner's single-threaded epilogue).
  ~MpmcQueue() {
    T drop;
    while (try_pop(drop)) {
    }
  }

  /// Move `v` into the queue.  Returns false — leaving `v` untouched —
  /// when the ring is full.
  bool try_push(T&& v) {
    // relaxed: the cursor is only a position claim hint here; the CAS
    // below re-validates it and the slot handoff carries the ordering.
    std::uint64_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& slot = slots_[pos & mask_];
      // acquire: pairs with try_pop's release store of seq (the lap
      // before) so the consumer's destruction of the previous element
      // happens-before our construction into the same storage.
      const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
      const auto diff = static_cast<std::int64_t>(seq) -
                        static_cast<std::int64_t>(pos);
      if (diff == 0) {
        // relaxed: claiming the position needs no ordering of its own —
        // the element handoff to the consumer is the seq release below,
        // and failure just reloads the cursor.
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          ::new (static_cast<void*>(&slot.storage)) T(std::move(v));
          // release: publishes the constructed element to the consumer
          // whose acquire load of seq observes pos + 1.
          slot.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
      } else if (diff < 0) {
        // The slot still holds an element from a full lap ago: ring full.
        return false;
      } else {
        // Another producer claimed this position; chase the cursor.
        // relaxed: same hint-only role as the initial load above.
        pos = head_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Pop the oldest element into `out`.  Returns false when empty.
  bool try_pop(T& out) {
    // relaxed: position claim hint only, same as try_push.
    std::uint64_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& slot = slots_[pos & mask_];
      // acquire: pairs with try_push's release store of seq == pos + 1,
      // making the producer's element construction visible before we
      // move it out.
      const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
      const auto diff = static_cast<std::int64_t>(seq) -
                        static_cast<std::int64_t>(pos + 1);
      if (diff == 0) {
        // relaxed: claim only — the handoff back to producers is the seq
        // release below.
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          T* elem = std::launder(reinterpret_cast<T*>(&slot.storage));
          out = std::move(*elem);
          elem->~T();
          // release: hands the empty slot to the producer a lap ahead,
          // ordering our destruction before its construction.
          slot.seq.store(pos + capacity_, std::memory_order_release);
          return true;
        }
      } else if (diff < 0) {
        // The slot has not been filled for this lap: queue empty.
        return false;
      } else {
        // Another consumer claimed this position; chase the cursor.
        // relaxed: hint only, as above.
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Instantaneous element-count estimate (racy by nature: cursors are
  /// read independently).  For stats/heuristics and eventcount re-check
  /// predicates — a binding emptiness decision belongs to try_pop.
  [[nodiscard]] std::size_t approx_size() const {
    // relaxed on both: a snapshot of two independently-moving cursors is
    // approximate no matter the ordering; stronger orders buy nothing.
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    return head > tail ? static_cast<std::size_t>(head - tail) : 0;
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    alignas(alignof(T)) unsigned char storage[sizeof(T)];
  };

  const std::size_t capacity_;
  const std::size_t mask_;
  std::unique_ptr<Slot[]> slots_;
  /// Producer and consumer cursors on their own cache lines so contended
  /// pushes do not invalidate poppers (and vice versa).
  alignas(kCacheLineSize) std::atomic<std::uint64_t> head_{0};
  alignas(kCacheLineSize) std::atomic<std::uint64_t> tail_{0};
};

}  // namespace spmv
