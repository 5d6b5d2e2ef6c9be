// Tests for the serving subsystem: registry lifecycle (refcounted
// retirement, background tuning), scheduler correctness (results through
// submit() bit-identical to direct Executor::multiply, raced from many
// client threads over several matrices — the TSan gate runs these),
// coalescing behavior, backpressure, defined errors, and shutdown
// semantics.  All suites are named Serve* so the spmv_concurrency CTest
// entry picks them up.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/thread_pool.h"
#include "engine/execution_context.h"
#include "engine/executor.h"
#include "gen/generators.h"
#include "serve/registry.h"
#include "serve/scheduler.h"
#include "serve/serve_stats.h"
#include "util/prng.h"

namespace spmv::serve {
namespace {

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  std::vector<double> v(n);
  Prng rng(seed);
  for (double& x : v) x = rng.next_double(-1.0, 1.0);
  return v;
}

TuningOptions serve_options(engine::ExecutionContext* ctx, unsigned threads) {
  TuningOptions opt = TuningOptions::full(threads);
  opt.tune_prefetch = false;
  opt.pin_threads = false;
  opt.context = ctx;
  return opt;
}

/// What a direct (unscheduled) multiply on `entry` produces from y0 = fill.
std::vector<double> direct_result(const MatrixRegistry::Entry& entry,
                                  std::span<const double> x, double fill) {
  std::vector<double> y(entry.plan.rows(), fill);
  engine::Executor exec(entry.plan);
  exec.multiply(x, y);
  return y;
}

TEST(ServeRegistry, PutFindReplaceEraseWithPinnedEntries) {
  engine::ExecutionContext ctx({.pin_threads = false});
  MatrixRegistry reg;
  EXPECT_EQ(reg.find("A"), nullptr);
  EXPECT_EQ(reg.size(), 0u);

  const CsrMatrix m1 = gen::banded(120, 3, 0.7, 1);
  const CsrMatrix m2 = gen::banded(120, 5, 0.6, 2);
  const MatrixRegistry::EntryPtr v1 = reg.put("A", m1, serve_options(&ctx, 2));
  ASSERT_NE(v1, nullptr);
  EXPECT_EQ(v1->name, "A");
  EXPECT_EQ(reg.find("A"), v1);
  EXPECT_EQ(reg.size(), 1u);

  // Replacement publishes a new version; the old pin stays usable.
  const MatrixRegistry::EntryPtr v2 = reg.put("A", m2, serve_options(&ctx, 2));
  EXPECT_GT(v2->version, v1->version);
  EXPECT_EQ(reg.find("A"), v2);
  const auto x = random_vector(120, 3);
  const std::vector<double> y_old = direct_result(*v1, x, 0.0);
  EXPECT_EQ(y_old.size(), 120u);  // retired version still executes

  EXPECT_TRUE(reg.erase("A"));
  EXPECT_FALSE(reg.erase("A"));
  EXPECT_EQ(reg.find("A"), nullptr);
  // Pins outlive erase.
  EXPECT_EQ(direct_result(*v2, x, 0.0).size(), 120u);
}

TEST(ServeRegistry, PutAsyncPublishesInBackground) {
  engine::ExecutionContext ctx({.pin_threads = false});
  MatrixRegistry reg;
  const CsrMatrix m = gen::fem_like(150, 2, 8.0, 30, 4);
  std::shared_future<MatrixRegistry::EntryPtr> fut =
      reg.put_async("bg", m, serve_options(&ctx, 2));
  const MatrixRegistry::EntryPtr entry = fut.get();
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(reg.find("bg"), entry);
  EXPECT_EQ(entry->plan.rows(), m.rows());
  // Discarding a second async future must not block or leak the publish.
  reg.put_async("bg2", m, serve_options(&ctx, 2));
  // Destructor joins the in-flight tune; find may or may not see "bg2"
  // yet, but after the registry dies nothing dangles (ASan/TSan checked).
}

// Acceptance: results returned through submit() are bit-identical to a
// direct Executor::multiply on the same plan, raced from >= 8 client
// threads over >= 2 registered matrices.
TEST(ServeConcurrency, RacingClientsBitIdenticalAcrossTwoMatrices) {
  engine::ExecutionContext ctx({.pin_threads = false});
  MatrixRegistry reg;
  const CsrMatrix ma = gen::fem_like(260, 3, 9.0, 40, 5);
  const CsrMatrix mb = gen::uniform_random(340, 300, 7.0, 6);
  reg.put("A", ma, serve_options(&ctx, 3));
  reg.put("B", mb, serve_options(&ctx, 2));

  const std::vector<double> xa = random_vector(ma.cols(), 7);
  const std::vector<double> xb = random_vector(mb.cols(), 8);
  constexpr double kFill = 0.25;
  const std::vector<double> expect_a = direct_result(*reg.find("A"), xa, kFill);
  const std::vector<double> expect_b = direct_result(*reg.find("B"), xb, kFill);

  Scheduler sched(reg, {.max_batch = 8,
                        .max_linger = std::chrono::microseconds(200)});

  constexpr int kClients = 8;
  constexpr int kReps = 12;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const bool use_a = (c % 2) == 0;
      const std::vector<double>& x = use_a ? xa : xb;
      const std::vector<double>& expect = use_a ? expect_a : expect_b;
      const std::string name = use_a ? "A" : "B";
      std::vector<double> y;
      for (int rep = 0; rep < kReps; ++rep) {
        y.assign(expect.size(), kFill);
        try {
          sched.submit(name, x, y).get();
        } catch (...) {
          failures.fetch_add(1);
          continue;
        }
        if (y != expect) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(failures.load(), 0);

  const ServeStatsSnapshot snap = sched.stats();
  EXPECT_EQ(snap.total_completed(),
            static_cast<std::uint64_t>(kClients * kReps));
  ASSERT_NE(snap.find("A"), nullptr);
  ASSERT_NE(snap.find("B"), nullptr);
  EXPECT_EQ(snap.find("A")->requests_failed, 0u);
  EXPECT_EQ(snap.find("B")->requests_failed, 0u);
  EXPECT_GE(snap.mean_batch_width(), 1.0);
}

// Acceptance: replacing or removing a registry entry while requests are in
// flight neither crashes nor loses futures — every one resolves with a
// value (matching some published version) or a defined ServeError.
TEST(ServeConcurrency, ReplaceAndEraseUnderLoadLosesNoFutures) {
  engine::ExecutionContext ctx({.pin_threads = false});
  MatrixRegistry reg;
  const std::uint32_t n = 200;
  const CsrMatrix m1 = gen::banded(n, 4, 0.8, 9);
  const CsrMatrix m2 = gen::banded(n, 4, 0.8, 10);  // same shape, new values
  const MatrixRegistry::EntryPtr v1 =
      reg.put("hot", m1, serve_options(&ctx, 2));

  const std::vector<double> x = random_vector(n, 11);
  constexpr double kFill = 0.0;
  const std::vector<double> expect1 = direct_result(*v1, x, kFill);
  // Planning is deterministic for fixed options, so an identically-planned
  // private copy of m2 predicts v2's results before v2 even exists — no
  // race between publish and the clients' first v2-served reply.
  const TunedMatrix preview2 = TunedMatrix::plan(m2, serve_options(&ctx, 2));
  std::vector<double> expect2(n, kFill);
  {
    engine::Executor exec(preview2);
    exec.multiply(x, expect2);
  }

  Scheduler sched(reg, {.max_batch = 4,
                        .max_linger = std::chrono::microseconds(50)});

  constexpr int kClients = 8;
  constexpr int kReps = 25;
  std::atomic<int> ok{0}, unknown{0}, bad_value{0}, other_error{0};

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      std::vector<double> y;
      for (int rep = 0; rep < kReps; ++rep) {
        y.assign(n, kFill);
        try {
          sched.submit("hot", x, y).get();
        } catch (const ServeError& e) {
          if (e.code() == ServeErrorCode::kUnknownMatrix) {
            unknown.fetch_add(1);
          } else {
            other_error.fetch_add(1);
          }
          continue;
        } catch (...) {
          other_error.fetch_add(1);
          continue;
        }
        const bool matches = (y == expect1) || (y == expect2);
        (matches ? ok : bad_value).fetch_add(1);
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  reg.put("hot", m2, serve_options(&ctx, 2));
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  reg.erase("hot");

  for (std::thread& t : clients) t.join();
  EXPECT_EQ(ok.load() + unknown.load(), kClients * kReps);
  EXPECT_EQ(bad_value.load(), 0);
  EXPECT_EQ(other_error.load(), 0);

  // A pre-resolved pin keeps serving after erase: refcounted retirement.
  std::vector<double> y(n, kFill);
  sched.submit(v1, x, y).get();
  EXPECT_EQ(y, expect1);
}

TEST(ServeScheduler, PausedRequestsCoalesceIntoOneBatch) {
  engine::ExecutionContext ctx({.pin_threads = false});
  MatrixRegistry reg;
  const CsrMatrix m = gen::fem_like(180, 2, 8.0, 30, 12);
  reg.put("A", m, serve_options(&ctx, 2));
  const std::vector<double> x = random_vector(m.cols(), 13);
  const std::vector<double> expect = direct_result(*reg.find("A"), x, 0.5);

  Scheduler sched(reg, {.max_batch = 32,
                        .max_linger = std::chrono::microseconds(100),
                        .start_paused = true});
  constexpr std::size_t kRequests = 8;
  std::vector<std::vector<double>> ys(kRequests,
                                      std::vector<double>(m.rows(), 0.5));
  std::vector<std::future<void>> futs;
  futs.reserve(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    futs.push_back(sched.submit("A", x, ys[i]));
  }
  sched.resume();
  for (auto& f : futs) f.get();
  for (const auto& y : ys) EXPECT_EQ(y, expect);

  const ServeStatsSnapshot snap = sched.stats();
  const MatrixStatsSnapshot* a = snap.find("A");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->requests_completed, kRequests);
  EXPECT_EQ(a->batches_dispatched, 1u);  // all 8 coalesced
  EXPECT_EQ(a->rhs_dispatched, kRequests);
  EXPECT_EQ(a->max_batch_width, kRequests);
  EXPECT_DOUBLE_EQ(a->mean_batch_width(), 8.0);
  EXPECT_EQ(a->queue_latency.count, kRequests);
  EXPECT_EQ(a->dispatch_latency.count, 1u);
}

TEST(ServeScheduler, ConflictingOperandsSplitAcrossBatches) {
  engine::ExecutionContext ctx({.pin_threads = false});
  MatrixRegistry reg;
  const CsrMatrix m = gen::banded(90, 3, 0.9, 14);
  reg.put("A", m, serve_options(&ctx, 1));
  const std::vector<double> x1 = random_vector(m.cols(), 15);
  const std::vector<double> x2 = random_vector(m.cols(), 16);

  Scheduler sched(reg, {.start_paused = true});
  std::vector<double> y(m.rows(), 0.0);
  // Same destination twice: unordered within one batch these would race,
  // so the scheduler must dispatch them separately — and both succeed.
  std::future<void> f1 = sched.submit("A", x1, y);
  std::future<void> f2 = sched.submit("A", x2, y);
  sched.resume();
  f1.get();
  f2.get();

  std::vector<double> expect(m.rows(), 0.0);
  engine::Executor exec(reg.find("A")->plan);
  exec.multiply(x1, expect);
  exec.multiply(x2, expect);
  EXPECT_EQ(y, expect);

  const ServeStatsSnapshot snap = sched.stats();
  const MatrixStatsSnapshot* a = snap.find("A");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->batches_dispatched, 2u);
  EXPECT_EQ(a->rhs_dispatched, 2u);
}

TEST(ServeConcurrency, SharedDestinationsSumEveryDeposit) {
  // Many requests sharing destinations: a request that conflicts with a
  // batch must run after that batch, never inside it or beside it.
  // Accumulation order is irrelevant here (every deposit is the same
  // A·x and we check the sum), so the assertion is the final value plus
  // TSan cleanliness.
  engine::ExecutionContext ctx({.pin_threads = false});
  MatrixRegistry reg;
  const CsrMatrix m = gen::banded(120, 3, 0.9, 30);
  reg.put("A", m, serve_options(&ctx, 1));
  const MatrixRegistry::EntryPtr entry = reg.find("A");
  const std::vector<double> x = random_vector(m.cols(), 31);

  std::vector<double> expect_once(m.rows(), 0.0);
  {
    engine::Executor exec(entry->plan);
    exec.multiply(x, expect_once);
  }

  serve::SchedulerConfig sc;
  sc.max_batch = 4;
  sc.max_linger = std::chrono::microseconds(0);
  Scheduler sched(reg, sc);

  constexpr int kSharedYs = 3;
  constexpr int kDepositsPerY = 40;
  std::vector<std::vector<double>> ys(kSharedYs,
                                      std::vector<double>(m.rows(), 0.0));
  std::vector<std::future<void>> futs;
  futs.reserve(kSharedYs * kDepositsPerY);
  // Interleave so consecutive queue entries target the same y: every
  // batch of four holds a duplicate destination that must split off.
  for (int d = 0; d < kDepositsPerY; ++d) {
    for (int s = 0; s < kSharedYs; ++s) {
      futs.push_back(sched.submit(entry, x, ys[s]));
    }
  }
  for (auto& f : futs) f.get();

  for (int s = 0; s < kSharedYs; ++s) {
    for (std::size_t i = 0; i < ys[s].size(); ++i) {
      ASSERT_NEAR(ys[s][i], kDepositsPerY * expect_once[i],
                  1e-9 * kDepositsPerY)
          << "y " << s << " row " << i;
    }
  }
}

TEST(ServeScheduler, UnknownMatrixAndInvalidOperandsFailFast) {
  engine::ExecutionContext ctx({.pin_threads = false});
  MatrixRegistry reg;
  const CsrMatrix m = gen::dense(16);
  reg.put("A", m, serve_options(&ctx, 1));
  Scheduler sched(reg);

  std::vector<double> x(16, 1.0), y(16, 0.0);
  try {
    sched.submit("nope", x, y).get();
    FAIL() << "expected kUnknownMatrix";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrorCode::kUnknownMatrix);
  }

  std::vector<double> x_short(15, 1.0);
  try {
    sched.submit("A", x_short, y).get();
    FAIL() << "expected kInvalidOperand";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrorCode::kInvalidOperand);
  }

  try {
    sched.submit("A", y, y).get();  // aliasing
    FAIL() << "expected kInvalidOperand";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrorCode::kInvalidOperand);
  }

  const ServeStatsSnapshot snap = sched.stats();
  const MatrixStatsSnapshot* a = snap.find("A");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->requests_rejected, 2u);
  // Unknown names must NOT mint per-name cells (unbounded, caller
  // controlled) — they land in one aggregate counter.
  EXPECT_EQ(snap.find("nope"), nullptr);
  EXPECT_EQ(snap.unknown_matrix_rejected, 1u);
}

TEST(ServeScheduler, RejectPolicyFailsWhenQueueFull) {
  engine::ExecutionContext ctx({.pin_threads = false});
  MatrixRegistry reg;
  const CsrMatrix m = gen::dense(12);
  reg.put("A", m, serve_options(&ctx, 1));

  Scheduler sched(
      reg, {.queue_capacity = 2,
            .overflow = SchedulerConfig::OverflowPolicy::kReject,
            .start_paused = true});
  const std::vector<double> x = random_vector(12, 17);
  std::vector<std::vector<double>> ys(3, std::vector<double>(12, 0.0));
  std::future<void> f0 = sched.submit("A", x, ys[0]);
  std::future<void> f1 = sched.submit("A", x, ys[1]);
  std::future<void> f2 = sched.submit("A", x, ys[2]);
  try {
    f2.get();
    FAIL() << "expected kQueueFull";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrorCode::kQueueFull);
  }
  sched.resume();
  f0.get();
  f1.get();
  const ServeStatsSnapshot snap = sched.stats();
  const MatrixStatsSnapshot* a = snap.find("A");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->requests_completed, 2u);
  EXPECT_EQ(a->requests_rejected, 1u);
}

TEST(ServeScheduler, BlockPolicyAppliesBackpressure) {
  engine::ExecutionContext ctx({.pin_threads = false});
  MatrixRegistry reg;
  const CsrMatrix m = gen::dense(12);
  reg.put("A", m, serve_options(&ctx, 1));

  Scheduler sched(reg,
                  {.queue_capacity = 1,
                   .overflow = SchedulerConfig::OverflowPolicy::kBlock,
                   .start_paused = true});
  const std::vector<double> x = random_vector(12, 18);
  std::vector<double> y0(12, 0.0), y1(12, 0.0);
  std::future<void> f0 = sched.submit("A", x, y0);
  // The queue is full: this submit must block until the dispatcher frees
  // a slot, which only happens after resume().
  std::thread blocked([&] { sched.submit("A", x, y1).get(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  sched.resume();
  f0.get();
  blocked.join();

  std::vector<double> expect(12, 0.0);
  engine::Executor exec(reg.find("A")->plan);
  exec.multiply(x, expect);
  EXPECT_EQ(y0, expect);
  EXPECT_EQ(y1, expect);
}

TEST(ServeScheduler, ShutdownDiscardFailsPendingFutures) {
  engine::ExecutionContext ctx({.pin_threads = false});
  MatrixRegistry reg;
  const CsrMatrix m = gen::dense(10);
  reg.put("A", m, serve_options(&ctx, 1));

  Scheduler sched(reg, {.start_paused = true});
  const std::vector<double> x = random_vector(10, 19);
  std::vector<std::vector<double>> ys(3, std::vector<double>(10, 0.0));
  std::vector<std::future<void>> futs;
  for (auto& y : ys) futs.push_back(sched.submit("A", x, y));
  sched.shutdown(Scheduler::Drain::kDiscard);
  for (auto& f : futs) {
    try {
      f.get();
      FAIL() << "expected kShutdown";
    } catch (const ServeError& e) {
      EXPECT_EQ(e.code(), ServeErrorCode::kShutdown);
    }
  }
  // Post-shutdown submits fail fast with the same defined error.
  std::vector<double> y(10, 0.0);
  try {
    sched.submit("A", x, y).get();
    FAIL() << "expected kShutdown";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrorCode::kShutdown);
  }
  const ServeStatsSnapshot snap = sched.stats();
  const MatrixStatsSnapshot* a = snap.find("A");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->requests_failed, 3u);
}

TEST(ServeScheduler, DestructorDrainsPendingRequests) {
  engine::ExecutionContext ctx({.pin_threads = false});
  MatrixRegistry reg;
  const CsrMatrix m = gen::dense(10);
  reg.put("A", m, serve_options(&ctx, 1));
  const std::vector<double> x = random_vector(10, 20);
  std::vector<std::vector<double>> ys(3, std::vector<double>(10, 0.0));
  std::vector<std::future<void>> futs;
  {
    Scheduler sched(reg, {.start_paused = true});
    for (auto& y : ys) futs.push_back(sched.submit("A", x, y));
  }  // ~Scheduler drains: every queued request ran
  for (auto& f : futs) EXPECT_NO_THROW(f.get());
  std::vector<double> expect(10, 0.0);
  engine::Executor exec(reg.find("A")->plan);
  exec.multiply(x, expect);
  for (const auto& y : ys) EXPECT_EQ(y, expect);
}

/// Poll `pred` every millisecond until it holds or `limit` passes.
bool wait_until(const std::function<bool()>& pred,
                std::chrono::milliseconds limit = std::chrono::seconds(10)) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(ServeLinger, LoneClosedLoopClientStopsLingering) {
  // One closed-loop submitter never has company, so every window it
  // waits out is a miss.  After two misses its matrix dispatches at once:
  // 200 calls enter exactly 2 windows instead of sitting out 200 x 20 ms.
  engine::ExecutionContext ctx({.pin_threads = false});
  MatrixRegistry reg;
  const CsrMatrix m = gen::banded(90, 3, 0.9, 40);
  reg.put("A", m, serve_options(&ctx, 1));
  const std::vector<double> x = random_vector(m.cols(), 41);
  const std::vector<double> expect = direct_result(*reg.find("A"), x, 0.0);

  Scheduler sched(reg, {.max_batch = 32,
                        .max_linger = std::chrono::milliseconds(20)});
  constexpr std::uint64_t kCalls = 200;
  std::vector<double> y(m.rows());
  for (std::uint64_t i = 0; i < kCalls; ++i) {
    std::fill(y.begin(), y.end(), 0.0);
    sched.submit("A", x, y).get();
    ASSERT_EQ(y, expect) << "call " << i;
  }

  const ServeStatsSnapshot snap = sched.stats();
  EXPECT_EQ(snap.data_plane.lingers, 2u);
  EXPECT_EQ(snap.data_plane.lingers_widened, 0u);
  const MatrixStatsSnapshot* a = snap.find("A");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->batches_dispatched, kCalls);
}

TEST(ServeLinger, ArrivalDuringWindowJoinsBatch) {
  // A request alone in the queue lingers; a second one for the same
  // matrix that arrives inside the window joins its batch, and with
  // max_batch = 2 the full batch dispatches without waiting out the rest
  // of the (deliberately long) window.
  engine::ExecutionContext ctx({.pin_threads = false});
  MatrixRegistry reg;
  const CsrMatrix m = gen::banded(90, 3, 0.9, 42);
  reg.put("A", m, serve_options(&ctx, 1));
  const std::vector<double> x1 = random_vector(m.cols(), 43);
  const std::vector<double> x2 = random_vector(m.cols(), 44);
  const MatrixRegistry::Entry& entry = *reg.find("A");

  Scheduler sched(reg, {.max_batch = 2,
                        .max_linger = std::chrono::seconds(10)});
  std::vector<double> y1(m.rows(), 0.0);
  std::vector<double> y2(m.rows(), 0.0);
  std::future<void> f1 = sched.submit("A", x1, y1);
  ASSERT_TRUE(wait_until([&] { return sched.stats().data_plane.lingers == 1; }))
      << "the lone first request never entered a linger window";
  std::future<void> f2 = sched.submit("A", x2, y2);
  ASSERT_EQ(f1.wait_for(std::chrono::seconds(5)), std::future_status::ready)
      << "the full batch waited out the window";
  f1.get();
  f2.get();
  EXPECT_EQ(y1, direct_result(entry, x1, 0.0));
  EXPECT_EQ(y2, direct_result(entry, x2, 0.0));

  const ServeStatsSnapshot snap = sched.stats();
  EXPECT_EQ(snap.data_plane.lingers, 1u);
  EXPECT_EQ(snap.data_plane.lingers_widened, 1u);
  const MatrixStatsSnapshot* a = snap.find("A");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->batches_dispatched, 1u);
  EXPECT_EQ(a->max_batch_width, 2u);
}

TEST(ServeLinger, WideBatchRearmsDisarmedMatrix) {
  // Disarm the matrix the way a lone client does (two missed windows),
  // then show concurrent clients re-arm it: a batch that forms 2 wide
  // without any lingering resets the miss count, so that batch and the
  // next lone call linger again.
  engine::ExecutionContext ctx({.pin_threads = false});
  MatrixRegistry reg;
  const CsrMatrix m = gen::banded(90, 3, 0.9, 45);
  reg.put("A", m, serve_options(&ctx, 1));
  const std::vector<double> x = random_vector(m.cols(), 46);
  const std::vector<double> expect = direct_result(*reg.find("A"), x, 0.0);

  Scheduler sched(reg, {.max_batch = 32,
                        .max_linger = std::chrono::milliseconds(20)});
  const auto lingers = [&] { return sched.stats().data_plane.lingers; };
  std::vector<double> y(m.rows(), 0.0);
  const auto lone_call = [&] {
    std::fill(y.begin(), y.end(), 0.0);
    sched.submit("A", x, y).get();
    EXPECT_EQ(y, expect);
  };
  for (int i = 0; i < 3; ++i) lone_call();
  ASSERT_EQ(lingers(), 2u) << "the third lone call should not linger";

  // Hold the dispatcher inside a request's completion hook while two
  // requests queue behind it.  Once released it pulls both in one sweep:
  // a batch 2 wide that formed without lingering.
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  SubmitOptions hold;
  hold.on_complete = [released] { released.wait(); };
  std::vector<double> y_hold(m.rows(), 0.0);
  std::vector<double> y1(m.rows(), 0.0);
  std::vector<double> y2(m.rows(), 0.0);
  SubmitHandle held = sched.submit("A", x, y_hold, hold);
  // Resolved means the dispatcher is in (or about to run) the hook; it
  // cannot pull new work until the hook returns.
  held.future.get();
  std::future<void> f1 = sched.submit("A", x, y1);
  std::future<void> f2 = sched.submit("A", x, y2);
  release.set_value();
  f1.get();
  f2.get();
  EXPECT_EQ(y_hold, expect);
  EXPECT_EQ(y1, expect);
  EXPECT_EQ(y2, expect);
  EXPECT_EQ(lingers(), 3u) << "the 2-wide batch did not re-arm lingering";
  {
    const ServeStatsSnapshot snap = sched.stats();
    const MatrixStatsSnapshot* a = snap.find("A");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->max_batch_width, 2u);
    EXPECT_EQ(snap.data_plane.lingers_widened, 0u);
  }

  // The re-armed matrix's window was a miss; one more lone miss disarms
  // it again.
  lone_call();
  EXPECT_EQ(lingers(), 4u);
  lone_call();
  EXPECT_EQ(lingers(), 4u);
}

TEST(ServeLinger, QueuedBehindBatchRearmsDisarmedMatrix) {
  // Two closed-loop clients on a disarmed matrix never form a batch 2
  // wide on their own: each one's request queues while the other's
  // 1-wide batch executes.  A request submitted while a batch of its
  // matrix executes re-arms the matrix.  Reproduce that exactly: block a
  // lone request's batch mid-multiply, then submit a second behind it.
  engine::ExecutionContext ctx({.pin_threads = false});
  MatrixRegistry reg;
  const CsrMatrix m = gen::banded(90, 3, 0.9, 47);
  reg.put("A", m, serve_options(&ctx, 2));
  const std::vector<double> x = random_vector(m.cols(), 48);
  const std::vector<double> expect = direct_result(*reg.find("A"), x, 0.0);

  Scheduler sched(reg, {.max_batch = 32,
                        .max_linger = std::chrono::milliseconds(20)});
  const auto lingers = [&] { return sched.stats().data_plane.lingers; };
  std::vector<double> y(m.rows(), 0.0);
  const std::uint64_t dispatches_before = ctx.dispatches();
  for (int i = 0; i < 3; ++i) {
    std::fill(y.begin(), y.end(), 0.0);
    sched.submit("A", x, y).get();
    EXPECT_EQ(y, expect);
  }
  ASSERT_EQ(lingers(), 2u) << "the third lone call should not linger";
  ASSERT_GT(ctx.dispatches(), dispatches_before)
      << "the plan must multiply through ctx's pool for the hold below";

  // Hold ctx's pool: dispatches on one context serialize, so the
  // scheduler's multiply blocks until this one returns.
  std::promise<void> entered;
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::thread holder([&] {
    ctx.parallel_for(
        2,
        [&](unsigned t) {
          if (t == 0) entered.set_value();
          released.wait();
        },
        /*pin=*/false);
  });
  entered.get_future().wait();
  std::vector<double> y1(m.rows(), 0.0);
  std::vector<double> y2(m.rows(), 0.0);
  std::future<void> f1 = sched.submit("A", x, y1);
  // A batch counts as executing before it records its queue latency, so
  // once the 4th sample lands f1's batch is executing (and blocked).
  const bool started = wait_until([&] {
    const ServeStatsSnapshot snap = sched.stats();
    const MatrixStatsSnapshot* a = snap.find("A");
    return a != nullptr && a->queue_latency.count == 4;
  });
  std::future<void> f2;
  if (started) f2 = sched.submit("A", x, y2);
  release.set_value();
  holder.join();
  ASSERT_TRUE(started) << "the held request's batch never started";
  f1.get();
  f2.get();
  EXPECT_EQ(y1, expect);
  EXPECT_EQ(y2, expect);
  EXPECT_EQ(lingers(), 3u)
      << "the request queued behind a batch did not re-arm lingering";
  const ServeStatsSnapshot snap = sched.stats();
  const MatrixStatsSnapshot* a = snap.find("A");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->max_batch_width, 1u);
}

TEST(ServeConcurrency, SameDestinationWaitsForTheExecutingBatch) {
  // The scheduler runs one batch at a time, so a request whose y belongs
  // to an executing batch cannot start until that batch has resolved.
  // Hold ctx's pool so the first request's batch blocks mid-multiply,
  // then queue a second request into the same y with a different x.
  engine::ExecutionContext ctx({.pin_threads = false});
  MatrixRegistry reg;
  const CsrMatrix m = gen::banded(90, 3, 0.9, 49);
  reg.put("A", m, serve_options(&ctx, 2));
  const MatrixRegistry::EntryPtr entry = reg.find("A");
  const std::vector<double> x1 = random_vector(m.cols(), 50);
  const std::vector<double> x2 = random_vector(m.cols(), 51);
  std::vector<double> expect(m.rows(), 0.0);
  {
    engine::Executor exec(entry->plan);
    exec.multiply(x1, expect);
    exec.multiply(x2, expect);
  }

  Scheduler sched(reg, {.max_linger = std::chrono::microseconds(0)});
  const auto started = [&] {
    const ServeStatsSnapshot snap = sched.stats();
    const MatrixStatsSnapshot* a = snap.find("A");
    return a == nullptr ? 0u : a->queue_latency.count;
  };
  std::vector<double> warm(m.rows(), 0.0);
  const std::uint64_t dispatches_before = ctx.dispatches();
  sched.submit(entry, x1, warm).get();
  ASSERT_GT(ctx.dispatches(), dispatches_before)
      << "the plan must multiply through ctx's pool for the hold below";

  std::promise<void> entered;
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::thread holder([&] {
    ctx.parallel_for(
        2,
        [&](unsigned t) {
          if (t == 0) entered.set_value();
          released.wait();
        },
        /*pin=*/false);
  });
  entered.get_future().wait();
  std::vector<double> y(m.rows(), 0.0);
  std::future<void> f1 = sched.submit(entry, x1, y);
  // A batch records its queue latency as it starts, so the 2nd sample
  // means f1's batch is executing (and blocked on the held pool).
  const bool f1_started = wait_until([&] { return started() == 2; });
  std::future<void> f2;
  bool f2_waited = false;
  std::uint64_t started_while_held = 0;
  if (f1_started) {
    f2 = sched.submit(entry, x2, y);
    f2_waited = f2.wait_for(std::chrono::milliseconds(50)) ==
                std::future_status::timeout;
    started_while_held = started();
  }
  release.set_value();
  holder.join();
  ASSERT_TRUE(f1_started) << "the held request's batch never started";
  EXPECT_TRUE(f2_waited) << "f2 resolved while f1's batch was held";
  EXPECT_EQ(started_while_held, 2u)
      << "f2 started while a batch writing its y was executing";
  f1.get();
  f2.get();
  EXPECT_EQ(y, expect);  // bit-identical to the two multiplies in order
  EXPECT_EQ(started(), 3u);
}

TEST(ServeConcurrency, ManySubmitterThreadsCoalesceIntoOneBatch) {
  // Requests submitted from many threads while the scheduler is paused
  // must still assemble ONE batch.  start_paused makes this
  // deterministic — everything is queued before the dispatcher takes
  // its first pull.
  engine::ExecutionContext ctx({.pin_threads = false});
  MatrixRegistry reg;
  const CsrMatrix m = gen::fem_like(180, 2, 8.0, 30, 21);
  reg.put("A", m, serve_options(&ctx, 2));
  const MatrixRegistry::EntryPtr entry = reg.find("A");
  const std::vector<double> x = random_vector(m.cols(), 22);
  const std::vector<double> expect = direct_result(*entry, x, 0.0);

  constexpr std::size_t kSubmitters = 16;
  constexpr std::size_t kPerThread = 2;
  constexpr std::size_t kRequests = kSubmitters * kPerThread;
  Scheduler sched(reg, {.max_batch = kRequests,
                        .max_linger = std::chrono::microseconds(100),
                        .start_paused = true});
  std::vector<std::vector<double>> ys(kRequests,
                                      std::vector<double>(m.rows(), 0.0));
  std::vector<std::future<void>> futs(kRequests);
  {
    std::vector<std::thread> submitters;
    submitters.reserve(kSubmitters);
    for (std::size_t t = 0; t < kSubmitters; ++t) {
      submitters.emplace_back([&, t] {
        for (std::size_t i = 0; i < kPerThread; ++i) {
          const std::size_t r = t * kPerThread + i;
          futs[r] = sched.submit(entry, x, ys[r]);
        }
      });
    }
    for (std::thread& s : submitters) s.join();
  }
  sched.resume();
  for (auto& f : futs) f.get();
  for (const auto& y : ys) EXPECT_EQ(y, expect);  // bit-identical

  const ServeStatsSnapshot snap = sched.stats();
  const MatrixStatsSnapshot* a = snap.find("A");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->requests_completed, kRequests);
  EXPECT_EQ(a->batches_dispatched, 1u);
  EXPECT_EQ(a->max_batch_width, kRequests);
  EXPECT_EQ(snap.data_plane.batch_width.count, 1u);
  EXPECT_EQ(snap.data_plane.batch_width.total, kRequests);
  EXPECT_EQ(snap.data_plane.queue_depth.count, kRequests);
}

TEST(ServeConcurrency, EightPipelinedClientsBitIdentical) {
  // Eight racing client threads, each with 25 requests in flight, results
  // still bit-identical to a direct multiply on the same plan.
  engine::ExecutionContext ctx({.pin_threads = false});
  MatrixRegistry reg;
  const CsrMatrix m = gen::fem_like(260, 3, 9.0, 40, 23);
  reg.put("A", m, serve_options(&ctx, 2));
  const MatrixRegistry::EntryPtr entry = reg.find("A");
  const std::vector<double> x = random_vector(m.cols(), 24);
  constexpr double kFill = 0.25;
  const std::vector<double> expect = direct_result(*entry, x, kFill);

  SchedulerConfig sc;
  sc.max_batch = 8;
  Scheduler sched(reg, sc);

  constexpr int kClients = 8;
  constexpr int kPerClient = 25;
  std::vector<std::vector<std::vector<double>>> ys(kClients);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    ys[c].assign(kPerClient, std::vector<double>(m.rows(), kFill));
    clients.emplace_back([&, c] {
      std::vector<std::future<void>> futs;
      futs.reserve(kPerClient);
      for (int i = 0; i < kPerClient; ++i) {
        futs.push_back(sched.submit(entry, x, ys[c][i]));
      }
      for (int i = 0; i < kPerClient; ++i) {
        futs[i].get();
        if (ys[c][i] != expect) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(std::memory_order_relaxed), 0);

  const ServeStatsSnapshot snap = sched.stats();
  const MatrixStatsSnapshot* a = snap.find("A");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->requests_completed,
            static_cast<std::uint64_t>(kClients) * kPerClient);
}

TEST(ServeConcurrency, HotSwapAndShutdownRaceResolvesEveryFuture) {
  // The nastiest lifecycle race the scheduler must survive: clients
  // hammering submit-by-name while the registry hot-swaps and erases the
  // entry underneath them, and the scheduler shuts down mid-load.  Run
  // once per drain mode.  The contract is not which requests succeed —
  // that is timing — but that EVERY future resolves (value or a defined
  // ServeError) and nothing deadlocks or races (TSan gates this test).
  for (const Scheduler::Drain mode :
       {Scheduler::Drain::kDrain, Scheduler::Drain::kDiscard}) {
    engine::ExecutionContext ctx({.pin_threads = false});
    MatrixRegistry reg;
    const CsrMatrix ma = gen::banded(140, 3, 0.8, 25);
    const CsrMatrix mb = gen::banded(140, 5, 0.7, 26);
    reg.put("A", ma, serve_options(&ctx, 1));

    SchedulerConfig sc;
    sc.max_batch = 4;
    sc.queue_capacity = 64;
    sc.overflow = SchedulerConfig::OverflowPolicy::kReject;
    Scheduler sched(reg, sc);

    constexpr int kClients = 4;
    constexpr int kPerClient = 60;
    std::atomic<int> resolved{0};
    std::atomic<int> undefined_errors{0};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        const std::vector<double> x = random_vector(ma.cols(), 40 + c);
        std::vector<std::vector<double>> dests(
            kPerClient, std::vector<double>(ma.rows(), 0.0));
        for (int i = 0; i < kPerClient; ++i) {
          try {
            sched.submit("A", x, dests[i]).get();
          } catch (const ServeError&) {
            // kUnknownMatrix (erased), kQueueFull (reject), kShutdown —
            // all defined outcomes under this race.
          } catch (...) {
            undefined_errors.fetch_add(1, std::memory_order_relaxed);
          }
          resolved.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    // Hot-swap loop on the main thread while clients run.
    for (int swap = 0; swap < 10; ++swap) {
      reg.put("A", swap % 2 == 0 ? mb : ma, serve_options(&ctx, 1));
      if (swap == 5) reg.erase("A");
      std::this_thread::yield();
    }
    reg.put("A", ma, serve_options(&ctx, 1));
    // Shut down while clients are still submitting: in-flight submits
    // must either land before the stop flag or fail with kShutdown.
    sched.shutdown(mode);
    for (std::thread& t : clients) t.join();
    EXPECT_EQ(resolved.load(std::memory_order_relaxed),
              kClients * kPerClient);
    EXPECT_EQ(undefined_errors.load(std::memory_order_relaxed), 0);
  }
}

TEST(ServeScheduler, SubmitFromEnginePoolWorkerFailsFast) {
  // submit() can block (kBlock backpressure) and parks on an eventcount
  // that only the dispatcher signals; called from an engine pool worker
  // that the dispatcher is itself waiting on, that is a deadlock by
  // construction.  The scheduler must refuse loudly, not hang quietly.
  engine::ExecutionContext ctx({.pin_threads = false});
  MatrixRegistry reg;
  const CsrMatrix m = gen::dense(10);
  reg.put("A", m, serve_options(&ctx, 1));
  Scheduler sched(reg, {});
  const std::vector<double> x = random_vector(10, 50);

  ThreadPool pool(2, /*pin=*/false);
  std::atomic<int> refused{0};
  pool.run([&](unsigned) {
    std::vector<double> y(10, 0.0);
    try {
      sched.submit("A", x, y);
    } catch (const std::logic_error&) {
      refused.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(refused.load(std::memory_order_relaxed), 2);

  // From an ordinary thread the same submit works.
  std::vector<double> y(10, 0.0);
  EXPECT_NO_THROW(sched.submit("A", x, y).get());
  EXPECT_EQ(y, direct_result(*reg.find("A"), x, 0.0));
}

TEST(ServeStats, LatencyHistogramBucketsMeanAndQuantiles) {
  LatencyHistogram h;
  h.record_ns(500);        // sub-µs → bucket 0
  h.record_ns(1500);       // 1 µs → bucket 0
  h.record_ns(3000);       // 3 µs → bucket 1
  h.record_ns(1000000);    // 1 ms → bucket 9
  const LatencyHistogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 4u);
  EXPECT_NEAR(s.mean_us(), (0.5 + 1.5 + 3.0 + 1000.0) / 4.0, 1e-9);
  EXPECT_EQ(s.buckets[0], 2u);
  EXPECT_EQ(s.buckets[1], 1u);
  EXPECT_EQ(s.buckets[9], 1u);
  EXPECT_LE(s.quantile_us(0.0), s.quantile_us(0.5));
  EXPECT_LE(s.quantile_us(0.5), s.quantile_us(1.0));
  EXPECT_DOUBLE_EQ(s.quantile_us(1.0), 1024.0);  // bucket 9 upper edge
  EXPECT_EQ(LatencyHistogram::Snapshot{}.quantile_us(0.5), 0.0);
}

TEST(ServeStatsConcurrency, SnapshotsStayCoherentUnderConcurrentWriters) {
  // Hammer one stats cell from several writers while a reader snapshots
  // continuously.  Every sample is identical (2.5 µs → bucket 1), so any
  // torn or misplaced count shows up as a wrong bucket; per-atomic
  // coherence makes every counter monotone across successive snapshots.
  constexpr unsigned kWriters = 4;
  constexpr std::uint64_t kPerWriter = 20000;
  constexpr std::uint64_t kSampleNs = 2500;  // 2 µs ≤ 2.5 µs < 4 µs
  ServeStats stats;
  const std::shared_ptr<MatrixServeStats> cell = stats.cell("hot");

  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (unsigned w = 0; w < kWriters; ++w) {
    writers.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        cell->queue_latency.record_ns(kSampleNs);
        cell->record_batch(i % 8 + 1);
        // Touch the map path too: cell() for an existing name must stay
        // a pure lookup, safe against concurrent snapshots.
        if (i % 4096 == 0) {
          EXPECT_EQ(stats.cell("hot"), cell);
        }
      }
    });
  }

  go.store(true, std::memory_order_release);
  std::uint64_t last_count = 0, last_bucket1 = 0, last_rhs = 0;
  for (;;) {
    const ServeStatsSnapshot snap = stats.snapshot();
    ASSERT_EQ(snap.matrices.size(), 1u);
    const MatrixStatsSnapshot& m = snap.matrices[0];
    const LatencyHistogram::Snapshot& h = m.queue_latency;
    // All samples land in bucket 1; any other nonzero bucket is a lost
    // or misfiled update.
    for (std::size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
      if (b != 1) {
        ASSERT_EQ(h.buckets[b], 0u) << "bucket " << b;
      }
    }
    ASSERT_LE(h.count, kWriters * kPerWriter);
    ASSERT_GE(h.count, last_count);          // monotone across snapshots
    ASSERT_GE(h.buckets[1], last_bucket1);
    ASSERT_GE(m.rhs_dispatched, last_rhs);
    ASSERT_LE(m.max_batch_width, 8u);
    last_count = h.count;
    last_bucket1 = h.buckets[1];
    last_rhs = m.rhs_dispatched;
    if (h.count == kWriters * kPerWriter) break;
    std::this_thread::yield();
  }
  for (auto& t : writers) t.join();

  // Quiescent state: exact totals, no lost updates anywhere.
  const ServeStatsSnapshot snap = stats.snapshot();
  const MatrixStatsSnapshot* m = snap.find("hot");
  ASSERT_NE(m, nullptr);
  const std::uint64_t total = kWriters * kPerWriter;
  EXPECT_EQ(m->queue_latency.count, total);
  EXPECT_EQ(m->queue_latency.buckets[1], total);
  EXPECT_EQ(m->queue_latency.total_ns, total * kSampleNs);
  EXPECT_NEAR(m->queue_latency.mean_us(), 2.5, 1e-12);
  EXPECT_EQ(m->batches_dispatched, total);
  // Each writer's widths cycle 1..8 uniformly over kPerWriter % 8 == 0.
  EXPECT_EQ(m->rhs_dispatched, kWriters * (kPerWriter / 8) * 36);
  EXPECT_EQ(m->max_batch_width, 8u);
  EXPECT_EQ(snap.unknown_matrix_rejected, 0u);
}

TEST(ServeStatsConcurrency, CellCreationRacesResolveToOneCell) {
  // Racing first-touch cell() calls for the same name must converge on a
  // single cell, and concurrent snapshots over a growing map must stay
  // well-formed (sorted, no duplicates).
  constexpr unsigned kThreads = 8;
  ServeStats stats;
  std::atomic<bool> go{false};
  std::vector<std::shared_ptr<MatrixServeStats>> seen(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      seen[t] = stats.cell("shared");
      stats.cell("own-" + std::to_string(t))->requests_submitted.fetch_add(
          1, std::memory_order_relaxed);
      const ServeStatsSnapshot snap = stats.snapshot();
      for (std::size_t i = 1; i < snap.matrices.size(); ++i) {
        EXPECT_LT(snap.matrices[i - 1].name, snap.matrices[i].name);
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  for (unsigned t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  const ServeStatsSnapshot snap = stats.snapshot();
  EXPECT_EQ(snap.matrices.size(), kThreads + 1);
}

}  // namespace
}  // namespace spmv::serve
