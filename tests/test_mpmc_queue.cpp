// Tests for the serving data plane's lock-free building blocks:
// MpmcQueue (bounded Vyukov ring), EventCount (prepare/commit-wait
// sleeping).  The concurrency suites here ride the spmv_concurrency CTest
// entry, so the sanitizer CI (TSan above all) gates on them — the memory-order
// arguments in the headers are only trustworthy because these tests
// hammer the claimed orderings.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "util/eventcount.h"
#include "util/mpmc_queue.h"

namespace spmv {
namespace {

TEST(MpmcQueue, FifoSingleThread) {
  MpmcQueue<int> q(8);
  EXPECT_EQ(q.capacity(), 8u);
  int v = -1;
  EXPECT_FALSE(q.try_pop(v));
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.try_push(std::move(i)));
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(q.try_pop(v));
    EXPECT_EQ(v, i);  // FIFO
  }
  EXPECT_FALSE(q.try_pop(v));
  // Wrap around the ring a few laps: the per-slot lap arithmetic must
  // keep handing slots back and forth.
  for (int lap = 0; lap < 5; ++lap) {
    for (int i = 0; i < 6; ++i) ASSERT_TRUE(q.try_push(lap * 10 + i));
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(q.try_pop(v));
      EXPECT_EQ(v, lap * 10 + i);
    }
  }
}

TEST(MpmcQueue, CapacityRoundsUpToPowerOfTwoMinTwo) {
  // The ring needs >= 2 slots: a push leaves seq == pos + 1 and the next
  // producer for the same slot arrives at pos + capacity, so a 1-slot
  // ring could never report full (diff == 1 - capacity must go negative).
  EXPECT_EQ(MpmcQueue<int>(0).capacity(), 2u);
  EXPECT_EQ(MpmcQueue<int>(1).capacity(), 2u);
  EXPECT_EQ(MpmcQueue<int>(2).capacity(), 2u);
  EXPECT_EQ(MpmcQueue<int>(3).capacity(), 4u);
  EXPECT_EQ(MpmcQueue<int>(4096).capacity(), 4096u);
  EXPECT_EQ(MpmcQueue<int>(4097).capacity(), 8192u);
}

TEST(MpmcQueue, FullRejectsAndLeavesValueUntouched) {
  MpmcQueue<std::string> q(2);
  EXPECT_TRUE(q.try_push("a"));
  EXPECT_TRUE(q.try_push("b"));
  std::string keep = "survives-a-failed-push";
  EXPECT_FALSE(q.try_push(std::move(keep)));
  // The failed push must not have consumed the value: callers re-route
  // the element to a sibling shard.
  EXPECT_EQ(keep, "survives-a-failed-push");
  std::string out;
  ASSERT_TRUE(q.try_pop(out));
  EXPECT_EQ(out, "a");
  EXPECT_TRUE(q.try_push(std::move(keep)));
  ASSERT_TRUE(q.try_pop(out));
  EXPECT_EQ(out, "b");
  ASSERT_TRUE(q.try_pop(out));
  EXPECT_EQ(out, "survives-a-failed-push");
}

TEST(MpmcQueue, MoveOnlyElementsAndDestructorDrain) {
  // unique_ptr elements prove the slot handoff constructs/destroys
  // properly (ASan would flag a leak or double-free); leaving elements
  // queued at destruction exercises the destructor drain.
  auto q = std::make_unique<MpmcQueue<std::unique_ptr<int>>>(4);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(q->try_push(std::make_unique<int>(i)));
  }
  std::unique_ptr<int> out;
  ASSERT_TRUE(q->try_pop(out));
  EXPECT_EQ(*out, 0);
  q.reset();  // two elements still queued: destructor must free them
}

TEST(MpmcQueueConcurrency, PerProducerFifoUnderContention) {
  // N producers × M consumers over a small ring (so full/empty edges are
  // hit constantly).  Every element is tagged (producer, sequence); the
  // union must be exact and each producer's elements must drain in push
  // order regardless of which consumer popped them.
  constexpr int kProducers = 4;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 5000;
  MpmcQueue<std::uint64_t> q(16);
  std::atomic<int> live_producers{kProducers};
  std::vector<std::vector<std::uint64_t>> drained(kConsumers);

  std::vector<std::thread> threads;
  threads.reserve(kProducers + kConsumers);
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        std::uint64_t tagged = (static_cast<std::uint64_t>(p) << 32) | i;
        while (!q.try_push(std::move(tagged))) std::this_thread::yield();
      }
      live_producers.fetch_add(-1, std::memory_order_release);
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&, c] {
      std::uint64_t v = 0;
      for (;;) {
        if (q.try_pop(v)) {
          drained[c].push_back(v);
        } else if (live_producers.load(std::memory_order_acquire) == 0) {
          if (!q.try_pop(v)) break;  // producers done AND queue dry
          drained[c].push_back(v);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::vector<std::uint64_t> last_seq(kProducers, 0);
  std::vector<std::uint64_t> count(kProducers, 0);
  for (int c = 0; c < kConsumers; ++c) {
    // Per-consumer view: one producer's elements arrive in increasing
    // sequence order (pops of one producer's pushes can interleave across
    // consumers, but each consumer's subsequence must stay ordered).
    std::vector<std::uint64_t> last_here(kProducers, 0);
    for (std::uint64_t v : drained[c]) {
      const auto p = static_cast<int>(v >> 32);
      const std::uint64_t seq = v & 0xFFFFFFFFull;
      ASSERT_LT(p, kProducers);
      if (count[p] != 0 || last_here[p] != 0) {
        EXPECT_GT(seq + 1, last_here[p]) << "producer " << p;
      }
      last_here[p] = seq + 1;
      ++count[p];
      last_seq[p] = std::max(last_seq[p], seq + 1);
    }
  }
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(count[p], static_cast<std::uint64_t>(kPerProducer))
        << "lost or duplicated elements from producer " << p;
    EXPECT_EQ(last_seq[p], static_cast<std::uint64_t>(kPerProducer));
  }
}

TEST(EventCount, NotifyBeforeCommitIsNotLost) {
  // A notify that lands between prepare_wait and commit_wait must cancel
  // the sleep: the epoch in the ticket is what makes this race safe.
  EventCount ec;
  const std::uint64_t ticket = ec.prepare_wait();
  ec.notify_one();  // waiter is announced: bumps the epoch
  const auto t0 = std::chrono::steady_clock::now();
  ec.commit_wait(ticket);  // must return immediately, not block
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::seconds(5));
}

TEST(EventCount, NotifyWithNoWaitersIsANoOp) {
  EventCount ec;
  ec.notify_one();  // nobody sleeping: fast path, nothing to wake
  ec.notify_all();
  // A later prepare/cancel pair must still work.
  const std::uint64_t ticket = ec.prepare_wait();
  (void)ticket;
  ec.cancel_wait();
}

TEST(EventCount, TimedWaitTimesOut) {
  EventCount ec;
  const std::uint64_t ticket = ec.prepare_wait();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
  EXPECT_EQ(ec.commit_wait_until(ticket, deadline),
            std::cv_status::timeout);
  // And with a deadline already in the past: immediate timeout.
  const std::uint64_t t2 = ec.prepare_wait();
  EXPECT_EQ(ec.commit_wait_until(t2, std::chrono::steady_clock::now() -
                                         std::chrono::milliseconds(1)),
            std::cv_status::timeout);
}

TEST(EventCountConcurrency, NoLostWakeupUnderProducerConsumerStress) {
  // The Dekker store-buffering handshake under fire: a consumer that
  // sleeps on work pushed after its re-check, or a producer that skips a
  // wake for an announced sleeper, deadlocks this test (CTest timeout).
  constexpr int kItems = 20000;
  std::atomic<int> queue{0};
  std::atomic<int> consumed{0};
  std::atomic<bool> done{false};
  EventCount ec;

  std::thread consumer([&] {
    for (;;) {
      // relaxed: the counter is the entire shared state under test; the
      // eventcount supplies the ordering.
      if (queue.load(std::memory_order_relaxed) > 0) {
        queue.fetch_add(-1, std::memory_order_relaxed);
        consumed.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (done.load(std::memory_order_acquire)) {
        if (queue.load(std::memory_order_relaxed) == 0) return;
        continue;
      }
      const std::uint64_t ticket = ec.prepare_wait();
      if (queue.load(std::memory_order_relaxed) > 0 ||
          done.load(std::memory_order_acquire)) {
        ec.cancel_wait();
        continue;
      }
      ec.commit_wait(ticket);
    }
  });
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) {
      queue.fetch_add(1, std::memory_order_relaxed);
      ec.notify_one();
      if ((i & 1023) == 0) std::this_thread::yield();
    }
    done.store(true, std::memory_order_release);
    ec.notify_all();
  });
  producer.join();
  consumer.join();
  EXPECT_EQ(consumed.load(std::memory_order_relaxed), kItems);
  EXPECT_EQ(queue.load(std::memory_order_relaxed), 0);
}

TEST(EventCountConcurrency, NotifyAllWakesEverySleeper) {
  constexpr int kSleepers = 4;
  EventCount ec;
  std::atomic<int> awake{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kSleepers);
  for (int i = 0; i < kSleepers; ++i) {
    threads.emplace_back([&] {
      for (;;) {
        const std::uint64_t ticket = ec.prepare_wait();
        if (go.load(std::memory_order_acquire)) {
          ec.cancel_wait();
          break;
        }
        ec.commit_wait(ticket);
        if (go.load(std::memory_order_acquire)) break;
      }
      awake.fetch_add(1, std::memory_order_relaxed);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  go.store(true, std::memory_order_release);
  ec.notify_all();
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(awake.load(std::memory_order_relaxed), kSleepers);
}

}  // namespace
}  // namespace spmv
