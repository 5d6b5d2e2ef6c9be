// Request-lifecycle robustness tests: deadlines, cancellation tokens,
// kShed admission control with the overload detector's hysteresis, the
// health watchdog, shutdown interaction with dead requests, and the
// registry's tuning-failure propagation.  All suites are named Serve* so
// the spmv_concurrency CTest entry (the sanitizer gate) picks them up.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "engine/execution_context.h"
#include "engine/executor.h"
#include "gen/generators.h"
#include "serve/health.h"
#include "serve/registry.h"
#include "serve/scheduler.h"
#include "serve/serve_stats.h"
#include "util/prng.h"

namespace spmv::serve {
namespace {

using namespace std::chrono_literals;

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

/// The future must resolve with exactly this ServeError code.
void expect_serve_error(std::future<void> fut, ServeErrorCode code) {
  try {
    fut.get();
    ADD_FAILURE() << "expected ServeError " << to_string(code)
                  << ", got success";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), code) << e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "expected ServeError " << to_string(code) << ", got "
                  << e.what();
  }
}

bool all_equal(const std::vector<double>& y, double fill) {
  for (const double v : y) {
    if (v != fill) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Overload detector + watchdog units.
// ---------------------------------------------------------------------------

TEST(ServeHealth, DetectorEntersImmediatelyAndRecoversWithHysteresis) {
  OverloadDetector det({.overload_frac = 0.5,
                        .shed_frac = 0.75,
                        .recover_frac = 0.25,
                        .recover_samples = 3,
                        .ewma_alpha = 0.5});
  EXPECT_EQ(det.state(), HealthState::kOk);
  EXPECT_EQ(det.sample(10, 100), HealthState::kOk);
  EXPECT_EQ(det.sample(50, 100), HealthState::kOverloaded);
  // The middle band holds a degraded state (no flapping back to kOk).
  EXPECT_EQ(det.sample(40, 100), HealthState::kOverloaded);
  EXPECT_EQ(det.sample(80, 100), HealthState::kShedding);
  // Recovery needs recover_samples *consecutive* below-recover samples.
  EXPECT_EQ(det.sample(10, 100), HealthState::kShedding);  // streak 1
  EXPECT_EQ(det.sample(10, 100), HealthState::kShedding);  // streak 2
  EXPECT_EQ(det.sample(40, 100), HealthState::kShedding);  // streak resets
  EXPECT_EQ(det.sample(10, 100), HealthState::kShedding);  // streak 1
  EXPECT_EQ(det.sample(10, 100), HealthState::kShedding);  // streak 2
  EXPECT_EQ(det.sample(10, 100), HealthState::kOk);        // streak 3
  EXPECT_EQ(det.transitions(), 3u);  // Ok->Overloaded->Shedding->Ok
}

TEST(ServeHealth, DetectorShedsImmediatelyFromOk) {
  OverloadDetector det;  // defaults: shed_frac 0.75
  EXPECT_EQ(det.sample(75, 100), HealthState::kShedding);
  EXPECT_EQ(det.transitions(), 1u);
}

TEST(ServeHealth, DetectorZeroCapacityReadsIdle) {
  OverloadDetector det;
  EXPECT_EQ(det.sample(5, 0), HealthState::kOk);
}

TEST(ServeHealth, EwmaLatencySmoothsAndClampsAboveZero) {
  OverloadDetector det({.ewma_alpha = 0.5});
  EXPECT_EQ(det.ewma_latency_us(), 0u);  // 0 = no data yet
  det.record_latency(100us);
  EXPECT_EQ(det.ewma_latency_us(), 100u);  // first sample taken verbatim
  det.record_latency(0us);
  EXPECT_EQ(det.ewma_latency_us(), 50u);
  // Decays toward zero but clamps at 1, so "has data" stays
  // distinguishable from the no-data sentinel.
  for (int i = 0; i < 64; ++i) det.record_latency(0us);
  EXPECT_EQ(det.ewma_latency_us(), 1u);
}

TEST(ServeHealth, WatchdogFlagsStallOnlyWhileWorkIsPending) {
  std::uint64_t beat = 1;
  bool pending = false;
  HealthWatchdog wd(
      [&] {
        HealthProbe p;
        p.heartbeat = beat;
        p.work_pending = pending;
        return p;
      },
      std::chrono::milliseconds(0), /*stall_intervals=*/2);

  wd.tick();  // first sight of the heartbeat: baseline, healthy
  wd.tick();  // frozen but idle: parked, not stalled
  EXPECT_EQ(wd.stalled_dispatchers(), 0u);
  pending = true;
  wd.tick();  // frozen 1/2
  EXPECT_EQ(wd.stalled_dispatchers(), 0u);
  wd.tick();  // frozen 2/2 -> stalled
  EXPECT_EQ(wd.stalled_dispatchers(), 1u);
  EXPECT_EQ(wd.stall_events(), 1u);
  wd.tick();  // still stalled: a continuing stall is one event
  EXPECT_EQ(wd.stalled_dispatchers(), 1u);
  EXPECT_EQ(wd.stall_events(), 1u);
  beat = 2;
  wd.tick();  // progress -> recovered
  EXPECT_EQ(wd.stalled_dispatchers(), 0u);
  EXPECT_EQ(wd.stall_events(), 1u);
  EXPECT_EQ(wd.probes(), 6u);
}

TEST(ServeHealth, SchedulerWatchdogSeesParkedDispatchersAsHealthy) {
  engine::ExecutionContext ctx({.pin_threads = false});
  MatrixRegistry reg;
  const CsrMatrix m = gen::banded(80, 3, 0.7, 21);
  reg.put("A", m, serve_options(&ctx, 1));
  const auto x = random_vector(80, 22);

  Scheduler sched(reg, {.max_linger = std::chrono::microseconds(0)});
  std::vector<double> y(80, 0.0);
  EXPECT_NO_THROW(sched.submit("A", x, y).get());
  // An empty queue means work_pending == false: a dispatcher parked on
  // the eventcount is healthy no matter how long its heartbeat is frozen.
  sched.watchdog().tick();
  sched.watchdog().tick();
  sched.watchdog().tick();
  EXPECT_EQ(sched.watchdog().stalled_dispatchers(), 0u);
  EXPECT_EQ(sched.watchdog().stall_events(), 0u);
  EXPECT_GE(sched.watchdog().probes(), 3u);
  const auto stats = sched.stats();
  EXPECT_EQ(stats.data_plane.stalled_dispatchers, 0u);
  EXPECT_EQ(stats.data_plane.stall_events, 0u);
}

TEST(ServeHealth, WatchdogThreadProbesOnItsOwn) {
  engine::ExecutionContext ctx({.pin_threads = false});
  MatrixRegistry reg;
  const CsrMatrix m = gen::banded(60, 2, 0.8, 23);
  reg.put("A", m, serve_options(&ctx, 1));

  Scheduler sched(reg, {.watchdog_interval = std::chrono::milliseconds(2)});
  std::this_thread::sleep_for(50ms);
  EXPECT_GE(sched.watchdog().probes(), 1u);
  EXPECT_EQ(sched.watchdog().stalled_dispatchers(), 0u);
}

// ---------------------------------------------------------------------------
// Deadlines and cancellation.
// ---------------------------------------------------------------------------

TEST(ServeRobust, ExpiredDeadlineFailsAtTheDoor) {
  engine::ExecutionContext ctx({.pin_threads = false});
  MatrixRegistry reg;
  const CsrMatrix m = gen::banded(100, 3, 0.7, 31);
  reg.put("A", m, serve_options(&ctx, 1));
  const auto x = random_vector(100, 32);

  Scheduler sched(reg, {});
  constexpr double kFill = 0.5;
  std::vector<double> y(100, kFill);
  SubmitOptions opt;
  opt.deadline = std::chrono::steady_clock::now() - 1ms;
  auto handle = sched.submit("A", x, y, opt);
  expect_serve_error(std::move(handle.future),
                     ServeErrorCode::kDeadlineExceeded);
  EXPECT_TRUE(all_equal(y, kFill));  // never executed

  const auto stats = sched.stats();
  EXPECT_EQ(stats.data_plane.requests_expired, 1u);
  const auto* cell = stats.find("A");
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->requests_completed, 0u);
}

TEST(ServeRobust, ExpiredQueuedRequestsResolveWithoutExecuting) {
  engine::ExecutionContext ctx({.pin_threads = false});
  MatrixRegistry reg;
  const CsrMatrix m = gen::banded(100, 3, 0.7, 33);
  reg.put("A", m, serve_options(&ctx, 1));
  const auto x = random_vector(100, 34);

  SchedulerConfig cfg;
  cfg.start_paused = true;
  cfg.max_linger = 0us;
  Scheduler sched(reg, cfg);

  constexpr double kFill = 1.5;
  constexpr int kRequests = 3;
  std::vector<std::vector<double>> ys(kRequests,
                                      std::vector<double>(100, kFill));
  std::vector<std::future<void>> futs;
  SubmitOptions opt;
  opt.deadline = std::chrono::steady_clock::now() + 3ms;
  for (int i = 0; i < kRequests; ++i) {
    futs.push_back(sched.submit("A", x, ys[i], opt).future);
  }
  // Let every queued deadline lapse while dispatch is paused, then serve.
  std::this_thread::sleep_for(20ms);
  sched.resume();
  for (auto& f : futs) {
    expect_serve_error(std::move(f), ServeErrorCode::kDeadlineExceeded);
  }
  for (const auto& y : ys) {
    EXPECT_TRUE(all_equal(y, kFill));  // swept pre-dispatch, never executed
  }
  const auto stats = sched.stats();
  EXPECT_EQ(stats.data_plane.requests_expired,
            static_cast<std::uint64_t>(kRequests));
  const auto* cell = stats.find("A");
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->requests_completed, 0u);
}

TEST(ServeRobust, CancelBeforeDispatchResolvesCancelledExactlyOnce) {
  engine::ExecutionContext ctx({.pin_threads = false});
  MatrixRegistry reg;
  const CsrMatrix m = gen::banded(100, 3, 0.7, 35);
  reg.put("A", m, serve_options(&ctx, 1));
  const auto x = random_vector(100, 36);

  SchedulerConfig cfg;
  cfg.start_paused = true;
  cfg.max_linger = 0us;
  Scheduler sched(reg, cfg);

  constexpr double kFill = -2.0;
  std::vector<double> y(100, kFill);
  auto handle = sched.submit("A", x, y, SubmitOptions{});
  ASSERT_TRUE(handle.token.valid());
  EXPECT_TRUE(handle.token.cancel());
  EXPECT_FALSE(handle.token.cancel());  // at most one call wins
  sched.resume();
  expect_serve_error(std::move(handle.future), ServeErrorCode::kCancelled);
  EXPECT_TRUE(all_equal(y, kFill));
  EXPECT_EQ(sched.stats().data_plane.requests_cancelled, 1u);
}

TEST(ServeRobust, CancelAfterCompletionIsTooLate) {
  engine::ExecutionContext ctx({.pin_threads = false});
  MatrixRegistry reg;
  const CsrMatrix m = gen::banded(100, 3, 0.7, 37);
  reg.put("A", m, serve_options(&ctx, 1));
  const auto x = random_vector(100, 38);
  const std::vector<double> expect = direct_result(*reg.find("A"), x, 0.0);

  Scheduler sched(reg, {.max_linger = std::chrono::microseconds(0)});
  std::vector<double> y(100, 0.0);
  auto handle = sched.submit("A", x, y, SubmitOptions{});
  EXPECT_NO_THROW(handle.future.get());
  // Dispatch claimed the token at batch finalization: the request ran and
  // resolved with its result, so cancellation must report failure.
  EXPECT_FALSE(handle.token.cancel());
  EXPECT_EQ(y, expect);
  EXPECT_EQ(sched.stats().data_plane.requests_cancelled, 0u);
}

TEST(ServeRobust, DefaultTokenIsEmpty) {
  CancelToken token;
  EXPECT_FALSE(token.valid());
  EXPECT_FALSE(token.cancel());
}

// ---------------------------------------------------------------------------
// kShed admission control, closed loop.
// ---------------------------------------------------------------------------

// The acceptance scenario: saturate a tiny queue under kShed with a paused
// dispatcher and watch the detector walk kOk -> kOverloaded -> kShedding
// (shedding the request that tipped it), ride a high-priority request
// through, then drain, observe the latency EWMA shedding an unreachable
// deadline, and recover to kOk only after the hysteresis streak.
TEST(ServeRobust, ShedPolicyClosedLoopOverloadAndRecovery) {
  engine::ExecutionContext ctx({.pin_threads = false});
  MatrixRegistry reg;
  const CsrMatrix m = gen::banded(150, 3, 0.7, 41);
  reg.put("A", m, serve_options(&ctx, 1));
  const auto x = random_vector(150, 42);
  const std::vector<double> expect = direct_result(*reg.find("A"), x, 0.0);

  SchedulerConfig cfg;
  cfg.max_batch = 8;
  cfg.max_linger = 0us;
  cfg.queue_capacity = 8;
  cfg.overflow = SchedulerConfig::OverflowPolicy::kShed;
  cfg.start_paused = true;
  cfg.overload = {.overload_frac = 0.25,
                  .shed_frac = 0.5,
                  .recover_frac = 0.25,
                  .recover_samples = 2,
                  .ewma_alpha = 0.2};
  Scheduler sched(reg, cfg);
  EXPECT_EQ(sched.health(), HealthState::kOk);

  const MatrixRegistry::EntryPtr entry = reg.find("A");
  std::vector<std::vector<double>> ys;
  ys.reserve(8);  // stable addresses for in-flight y spans
  std::vector<std::future<void>> ok_futs;

  // Submits 1-4 sample pre-push depths 0,1,2,3 of 8: the third (2/8 =
  // overload_frac) escalates to kOverloaded, which then holds.
  for (int i = 0; i < 4; ++i) {
    ys.emplace_back(150, 0.0);
    ok_futs.push_back(sched.submit(entry, x, ys.back(), SubmitOptions{}).future);
  }
  EXPECT_EQ(sched.health(), HealthState::kOverloaded);

  // Submit 5 samples 4/8 = shed_frac: kShedding, and the request itself
  // (priority 0) is shed with kQueueFull before touching the ring.
  ys.emplace_back(150, 0.0);
  auto shed = sched.submit(entry, x, ys.back(), SubmitOptions{});
  EXPECT_EQ(sched.health(), HealthState::kShedding);
  expect_serve_error(std::move(shed.future), ServeErrorCode::kQueueFull);
  EXPECT_TRUE(all_equal(ys.back(), 0.0));

  // A high-priority, no-deadline submit rides through shedding.
  ys.emplace_back(150, 0.0);
  SubmitOptions high;
  high.priority = 1;
  ok_futs.push_back(sched.submit(entry, x, ys.back(), high).future);

  // Age the queue so dispatch records a large, trustworthy latency EWMA,
  // then serve the backlog.
  std::this_thread::sleep_for(100ms);
  sched.resume();
  for (auto& f : ok_futs) EXPECT_NO_THROW(f.get());
  for (std::size_t i = 0; i < ys.size(); ++i) {
    if (i == 4) continue;  // the shed request's y stays untouched
    EXPECT_EQ(ys[i], expect) << "request " << i;
  }
  EXPECT_GE(sched.stats().data_plane.ewma_queue_latency_us, 50000u);
  EXPECT_EQ(sched.health(), HealthState::kShedding);  // no samples since

  // High priority cannot save a deadline the EWMA already overruns: the
  // observed ~100ms queue latency dwarfs this 20ms budget, so the request
  // sheds kDeadlineExceeded at the door.  Its depth sample (0/8) starts
  // the recovery streak: 1 of 2, so the state is still kShedding —
  // hysteresis in action.
  ys.emplace_back(150, 0.0);
  SubmitOptions hopeless;
  hopeless.priority = 1;
  hopeless.deadline = std::chrono::steady_clock::now() + 20ms;
  auto doomed = sched.submit(entry, x, ys.back(), hopeless);
  expect_serve_error(std::move(doomed.future),
                     ServeErrorCode::kDeadlineExceeded);
  EXPECT_TRUE(all_equal(ys.back(), 0.0));
  EXPECT_EQ(sched.health(), HealthState::kShedding);

  // The second consecutive idle sample completes the streak: kOk, and the
  // request is admitted and served normally.
  ys.emplace_back(150, 0.0);
  auto recovered = sched.submit(entry, x, ys.back(), high);
  EXPECT_EQ(sched.health(), HealthState::kOk);
  EXPECT_NO_THROW(recovered.future.get());
  EXPECT_EQ(ys.back(), expect);

  const auto stats = sched.stats();
  EXPECT_EQ(stats.data_plane.requests_shed, 2u);  // submit 5 + the doomed one
  EXPECT_EQ(stats.data_plane.requests_expired, 0u);
  EXPECT_EQ(stats.data_plane.requests_cancelled, 0u);
  EXPECT_EQ(stats.data_plane.overload_transitions, 3u);
  EXPECT_EQ(stats.data_plane.health_state, HealthState::kOk);
  const auto* cell = stats.find("A");
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->requests_completed, 6u);  // 1-4, high, recovered
}

// ---------------------------------------------------------------------------
// Shutdown honoring deadlines and cancellation.
// ---------------------------------------------------------------------------

TEST(ServeRobust, DrainShutdownResolvesExpiredWithoutExecutingThem) {
  engine::ExecutionContext ctx({.pin_threads = false});
  MatrixRegistry reg;
  const CsrMatrix m = gen::banded(120, 3, 0.7, 51);
  reg.put("A", m, serve_options(&ctx, 1));
  const auto x = random_vector(120, 52);
  constexpr double kFill = 0.25;
  const std::vector<double> expect = direct_result(*reg.find("A"), x, kFill);

  SchedulerConfig cfg;
  cfg.start_paused = true;
  cfg.max_linger = 0us;
  Scheduler sched(reg, cfg);

  std::vector<double> y_live_a(120, kFill);
  std::vector<double> y_live_b(120, kFill);
  std::vector<double> y_expired(120, kFill);
  std::vector<double> y_cancel(120, kFill);
  auto live_a = sched.submit("A", x, y_live_a);
  auto live_b = sched.submit("A", x, y_live_b);
  SubmitOptions expiring;
  expiring.deadline = std::chrono::steady_clock::now() + 2ms;
  auto expired = sched.submit("A", x, y_expired, expiring);
  auto cancelled = sched.submit("A", x, y_cancel, SubmitOptions{});
  EXPECT_TRUE(cancelled.token.cancel());
  std::this_thread::sleep_for(10ms);

  // Drain shutdown without ever resuming: live requests must still run,
  // dead ones must resolve with their specific verdicts, not execute.
  sched.shutdown(Scheduler::Drain::kDrain);
  EXPECT_NO_THROW(live_a.get());
  EXPECT_NO_THROW(live_b.get());
  EXPECT_EQ(y_live_a, expect);
  EXPECT_EQ(y_live_b, expect);
  expect_serve_error(std::move(expired.future),
                     ServeErrorCode::kDeadlineExceeded);
  expect_serve_error(std::move(cancelled.future), ServeErrorCode::kCancelled);
  EXPECT_TRUE(all_equal(y_expired, kFill));
  EXPECT_TRUE(all_equal(y_cancel, kFill));

  const auto stats = sched.stats();
  EXPECT_EQ(stats.data_plane.requests_expired, 1u);
  EXPECT_EQ(stats.data_plane.requests_cancelled, 1u);
  const auto* cell = stats.find("A");
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->requests_completed, 2u);
}

TEST(ServeRobust, DiscardShutdownResolvesEveryFutureExactlyOnce) {
  engine::ExecutionContext ctx({.pin_threads = false});
  MatrixRegistry reg;
  const CsrMatrix m = gen::banded(120, 3, 0.7, 53);
  reg.put("A", m, serve_options(&ctx, 1));
  const auto x = random_vector(120, 54);
  constexpr double kFill = -1.0;

  SchedulerConfig cfg;
  cfg.start_paused = true;
  cfg.max_linger = 0us;
  Scheduler sched(reg, cfg);

  std::vector<double> y_live(120, kFill);
  std::vector<double> y_opt(120, kFill);
  std::vector<double> y_expired(120, kFill);
  std::vector<double> y_cancel(120, kFill);
  auto live = sched.submit("A", x, y_live);
  auto live_opt = sched.submit("A", x, y_opt, SubmitOptions{});
  SubmitOptions expiring;
  expiring.deadline = std::chrono::steady_clock::now() + 1ms;
  auto expired = sched.submit("A", x, y_expired, expiring);
  auto cancelled = sched.submit("A", x, y_cancel, SubmitOptions{});
  EXPECT_TRUE(cancelled.token.cancel());
  std::this_thread::sleep_for(5ms);

  sched.shutdown(Scheduler::Drain::kDiscard);
  // Discard owes every future a resolution, and the more precise verdict
  // where one was already earned.
  expect_serve_error(std::move(live), ServeErrorCode::kShutdown);
  expect_serve_error(std::move(live_opt.future), ServeErrorCode::kShutdown);
  expect_serve_error(std::move(expired.future),
                     ServeErrorCode::kDeadlineExceeded);
  expect_serve_error(std::move(cancelled.future), ServeErrorCode::kCancelled);
  EXPECT_TRUE(all_equal(y_live, kFill));
  EXPECT_TRUE(all_equal(y_opt, kFill));
  EXPECT_TRUE(all_equal(y_expired, kFill));
  EXPECT_TRUE(all_equal(y_cancel, kFill));
  const auto stats = sched.stats();
  const auto* cell = stats.find("A");
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->requests_completed, 0u);
}

// ---------------------------------------------------------------------------
// Registry tuning-failure propagation (no fault injection needed: a
// structurally invalid TuningOptions makes plan() throw for real).
// ---------------------------------------------------------------------------

TEST(ServeRegistryRobust, TuneFailurePropagatesAndLeavesNoEntry) {
  engine::ExecutionContext ctx({.pin_threads = false});
  MatrixRegistry reg;
  const CsrMatrix m = gen::banded(64, 2, 0.8, 61);
  TuningOptions bad = serve_options(&ctx, 1);
  bad.threads = 0;  // TunedMatrix::plan rejects zero threads

  std::shared_future<MatrixRegistry::EntryPtr> fut =
      reg.put_async("bad", m, bad);
  EXPECT_THROW(fut.get(), std::invalid_argument);
  // The failure left no placeholder or half-registered entry behind.
  EXPECT_EQ(reg.find("bad"), nullptr);
  EXPECT_EQ(reg.size(), 0u);
  // Every waiter on the shared future sees the same error.
  EXPECT_THROW(fut.get(), std::invalid_argument);

  // The synchronous path gives the same guarantee.
  EXPECT_THROW(reg.put("bad", m, bad), std::invalid_argument);
  EXPECT_EQ(reg.find("bad"), nullptr);

  // The name is not poisoned: a valid tune still publishes under it.
  const MatrixRegistry::EntryPtr good =
      reg.put("bad", m, serve_options(&ctx, 1));
  ASSERT_NE(good, nullptr);
  EXPECT_EQ(reg.find("bad"), good);
}

}  // namespace
}  // namespace spmv::serve
