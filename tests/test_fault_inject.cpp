// Seeded fault-injection tests for the serving plane.  These only exist
// in -DSPMV_FAULT_INJECTION=ON builds (the spmv_fault CTest entry);
// elsewhere the whole file compiles away with the framework.  Suites are
// named Fault* so both the spmv_fault filter (Serve*:Fault*) and the CI
// fault-injection job pick them up.
#include "util/fault_point.h"

#if defined(SPMV_FAULT_INJECTION)

#include <gtest/gtest.h>

#include <algorithm>
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

/// Arm on entry, disarm on exit: no test leaks an armed injector (or its
/// rates/handlers — the next arm() resets those) into its neighbors.
class FaultArm {
 public:
  explicit FaultArm(std::uint64_t seed) { FaultInjector::instance().arm(seed); }
  ~FaultArm() { FaultInjector::instance().disarm(); }
  FaultArm(const FaultArm&) = delete;
  FaultArm& operator=(const FaultArm&) = delete;
};

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

std::vector<double> direct_result(const MatrixRegistry::Entry& entry,
                                  std::span<const double> x, double fill) {
  std::vector<double> y(entry.plan.rows(), fill);
  engine::Executor exec(entry.plan);
  exec.multiply(x, y);
  return y;
}

bool all_equal(const std::vector<double>& y, double fill) {
  for (const double v : y) {
    if (v != fill) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// The injector itself.
// ---------------------------------------------------------------------------

TEST(FaultInjector, SeededScheduleIsDeterministicAndMatchesWouldFire) {
  auto& fi = FaultInjector::instance();
  constexpr std::uint64_t kSeed = 0xfeedfaceu;
  constexpr int kHits = 256;

  const auto run = [&fi](std::uint64_t seed) {
    FaultArm arm(seed);
    fi.set_rate("test.det", 0.5);
    std::vector<bool> fired;
    fired.reserve(kHits);
    for (int i = 0; i < kHits; ++i) {
      fired.push_back(SPMV_FAULT_POINT("test.det"));
    }
    return fired;
  };

  // The acceptance property: two runs under the same seed see the
  // identical fire/no-fire sequence at every hit.
  const std::vector<bool> first = run(kSeed);
  const std::vector<bool> second = run(kSeed);
  EXPECT_EQ(first, second);

  // And the sequence is exactly the a-priori pure function, so a failing
  // seed can be replayed (or predicted) offline.
  const std::uint64_t token = FaultInjector::token_of("test.det");
  const std::uint64_t threshold = FaultInjector::rate_to_threshold(0.5);
  for (int i = 0; i < kHits; ++i) {
    EXPECT_EQ(first[static_cast<std::size_t>(i)],
              FaultInjector::would_fire(kSeed, token, i, threshold))
        << "hit " << i;
  }

  // A different seed draws a different schedule (256 coin flips).
  EXPECT_NE(first, run(0x12345678u));

  // The rate is roughly honored over the sample.
  const auto count = static_cast<int>(
      std::count(first.begin(), first.end(), true));
  EXPECT_GT(count, kHits / 4);
  EXPECT_LT(count, 3 * kHits / 4);
}

TEST(FaultInjector, DisarmedOrZeroRatePointsNeverFire) {
  auto& fi = FaultInjector::instance();
  EXPECT_FALSE(SPMV_FAULT_POINT("test.off"));  // disarmed process default
  {
    FaultArm arm(1);
    // arm() reset the rate to 0: armed but unconfigured points stay off.
    for (int i = 0; i < 32; ++i) {
      EXPECT_FALSE(SPMV_FAULT_POINT("test.off"));
    }
    fi.set_rate("test.off", 1.0);
    EXPECT_TRUE(SPMV_FAULT_POINT("test.off"));
    EXPECT_EQ(fi.fired("test.off"), 1u);
    fi.set_rate("test.off", 0.0);
    EXPECT_FALSE(SPMV_FAULT_POINT("test.off"));
  }
  EXPECT_FALSE(SPMV_FAULT_POINT("test.off"));  // disarmed again
}

// ---------------------------------------------------------------------------
// Scheduler fault points.
// ---------------------------------------------------------------------------

TEST(FaultServe, InjectedQueueFullRejectsUnderRejectPolicy) {
  engine::ExecutionContext ctx({.pin_threads = false});
  MatrixRegistry reg;
  const CsrMatrix m = gen::banded(100, 3, 0.7, 71);
  reg.put("A", m, serve_options(&ctx, 1));
  const auto x = random_vector(100, 72);

  SchedulerConfig cfg;
  cfg.overflow = SchedulerConfig::OverflowPolicy::kReject;
  cfg.max_linger = 0us;
  Scheduler sched(reg, cfg);
  FaultArm arm(7);
  FaultInjector::instance().set_rate("scheduler.queue_full", 1.0);

  constexpr double kFill = 0.5;
  std::vector<double> y(100, kFill);
  // The ring is empty, but the injected fault makes the push path behave
  // as if it were full: kReject fails fast.
  try {
    sched.submit("A", x, y).get();
    ADD_FAILURE() << "expected kQueueFull";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrorCode::kQueueFull);
  }
  EXPECT_TRUE(all_equal(y, kFill));

  // Disarmed, the same submit goes through.
  FaultInjector::instance().set_rate("scheduler.queue_full", 0.0);
  EXPECT_NO_THROW(sched.submit("A", x, y).get());
  EXPECT_FALSE(all_equal(y, kFill));
}

TEST(FaultServe, InjectedQueueFullShedsUnderShedPolicy) {
  engine::ExecutionContext ctx({.pin_threads = false});
  MatrixRegistry reg;
  const CsrMatrix m = gen::banded(100, 3, 0.7, 73);
  reg.put("A", m, serve_options(&ctx, 1));
  const auto x = random_vector(100, 74);

  SchedulerConfig cfg;
  cfg.overflow = SchedulerConfig::OverflowPolicy::kShed;
  cfg.max_linger = 0us;
  Scheduler sched(reg, cfg);
  FaultArm arm(9);
  FaultInjector::instance().set_rate("scheduler.queue_full", 1.0);

  std::vector<double> y(100, 0.0);
  try {
    sched.submit("A", x, y).get();
    ADD_FAILURE() << "expected kQueueFull";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrorCode::kQueueFull);
  }
  EXPECT_EQ(sched.stats().data_plane.requests_shed, 1u);
}

TEST(FaultServe, InjectedQueueFullUnderBlockRetriesWithoutDeadlock) {
  engine::ExecutionContext ctx({.pin_threads = false});
  MatrixRegistry reg;
  const CsrMatrix m = gen::banded(100, 3, 0.7, 75);
  reg.put("A", m, serve_options(&ctx, 1));
  const auto x = random_vector(100, 76);
  const std::vector<double> expect = direct_result(*reg.find("A"), x, 0.0);

  SchedulerConfig cfg;  // kBlock default
  cfg.max_linger = 0us;
  Scheduler sched(reg, cfg);
  FaultArm arm(11);
  // Even at rate 1.0 the fault only forces the FIRST push attempt of each
  // submit to report full — a kBlock submitter then retries through the
  // backpressure loop and must make progress, not park forever.
  FaultInjector::instance().set_rate("scheduler.queue_full", 1.0);

  for (int i = 0; i < 4; ++i) {
    std::vector<double> y(100, 0.0);
    auto fut = sched.submit("A", x, y);
    EXPECT_NO_THROW(fut.get());
    EXPECT_EQ(y, expect);
  }
  EXPECT_EQ(FaultInjector::instance().fired("scheduler.queue_full"), 4u);
}

TEST(FaultServe, SlowDispatchIsFlaggedStalledByTheWatchdog) {
  engine::ExecutionContext ctx({.pin_threads = false});
  MatrixRegistry reg;
  const CsrMatrix m = gen::banded(100, 3, 0.7, 79);
  reg.put("A", m, serve_options(&ctx, 1));
  const auto x = random_vector(100, 80);
  const std::vector<double> expect = direct_result(*reg.find("A"), x, 0.0);

  SchedulerConfig cfg;
  cfg.max_linger = 0us;
  cfg.watchdog_stall_intervals = 1;  // one frozen probe with work = stalled
  Scheduler sched(reg, cfg);
  FaultArm arm(17);
  auto& fi = FaultInjector::instance();
  fi.set_rate("scheduler.slow_dispatch", 1.0);
  fi.set_delay("scheduler.slow_dispatch", 1000ms);

  std::vector<double> y1(100, 0.0);
  std::vector<double> y2(100, 0.0);
  auto f1 = sched.submit("A", x, y1);  // dispatcher enters the 1s stall
  // Give the dispatcher time to pop the first request and enter the
  // injected delay, THEN queue the second: it must still be in the ring
  // (work pending) while the heartbeat is frozen, or the watchdog would
  // rightly read the freeze as a parked-idle dispatcher.
  std::this_thread::sleep_for(100ms);
  auto f2 = sched.submit("A", x, y2);
  // Probe until the stall registers: two consecutive ticks inside the
  // delay window see a frozen heartbeat with work pending.
  for (int i = 0; i < 150 && sched.watchdog().stall_events() == 0; ++i) {
    sched.watchdog().tick();
    std::this_thread::sleep_for(2ms);
  }
  EXPECT_EQ(sched.watchdog().stall_events(), 1u);
  EXPECT_EQ(sched.watchdog().stalled_dispatchers(), 1u);
  EXPECT_GE(sched.stats().data_plane.stall_events, 1u);

  // Stop injecting, let the backlog drain, and watch it recover.
  fi.set_rate("scheduler.slow_dispatch", 0.0);
  EXPECT_NO_THROW(f1.get());
  EXPECT_NO_THROW(f2.get());
  EXPECT_EQ(y1, expect);
  EXPECT_EQ(y2, expect);
  sched.watchdog().tick();  // heartbeat moved (or queue idle): healthy
  EXPECT_EQ(sched.watchdog().stalled_dispatchers(), 0u);
}

TEST(FaultServe, DispatcherSelfSubmitFailsFastViaHandler) {
  engine::ExecutionContext ctx({.pin_threads = false});
  MatrixRegistry reg;
  const CsrMatrix m = gen::banded(100, 3, 0.7, 81);
  reg.put("A", m, serve_options(&ctx, 1));
  const auto x = random_vector(100, 82);
  const std::vector<double> expect = direct_result(*reg.find("A"), x, 0.0);

  SchedulerConfig cfg;
  cfg.max_linger = 0us;
  Scheduler sched(reg, cfg);
  FaultArm arm(19);
  auto& fi = FaultInjector::instance();

  // The handler runs ON the dispatcher thread mid-dispatch — exactly the
  // context the fail-fast guard exists for: a dispatcher submitting to
  // its own scheduler could park on a queue only it can drain.
  std::atomic<bool> threw{false};
  std::vector<double> y_inner(100, 0.0);
  fi.set_rate("scheduler.slow_dispatch", 1.0);
  fi.set_handler("scheduler.slow_dispatch", [&] {
    try {
      (void)sched.submit("A", x, y_inner);
    } catch (const std::logic_error&) {
      threw.store(true, std::memory_order_relaxed);
    }
  });

  std::vector<double> y(100, 0.0);
  auto fut = sched.submit("A", x, y);
  EXPECT_NO_THROW(fut.get());
  EXPECT_TRUE(threw.load(std::memory_order_relaxed));
  EXPECT_EQ(y, expect);
  EXPECT_TRUE(all_equal(y_inner, 0.0));  // the guarded submit never ran
  fi.set_handler("scheduler.slow_dispatch", nullptr);
}

TEST(FaultServe, SpuriousEventcountWakesPreserveCorrectness) {
  engine::ExecutionContext ctx({.pin_threads = false});
  MatrixRegistry reg;
  const CsrMatrix m = gen::banded(120, 3, 0.7, 83);
  reg.put("A", m, serve_options(&ctx, 1));
  const auto x = random_vector(120, 84);
  constexpr double kFill = 0.25;
  const std::vector<double> expect = direct_result(*reg.find("A"), x, kFill);

  FaultArm arm(29);
  FaultInjector::instance().set_rate("eventcount.spurious_wake", 0.7);

  SchedulerConfig cfg;
  cfg.queue_capacity = 4;  // small: backpressure sleeps get exercised too
  cfg.max_linger = std::chrono::microseconds(100);
  Scheduler sched(reg, cfg);

  // Every commit_wait on the work and space eventcounts now returns
  // spuriously 70% of the time; the prepare/re-check/commit loops must
  // absorb that without losing requests or corrupting results.
  constexpr int kClients = 2;
  constexpr int kReps = 16;
  std::vector<std::vector<double>> ys(
      kClients * kReps, std::vector<double>(120, kFill));
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kReps; ++r) {
        auto& y = ys[static_cast<std::size_t>(c * kReps + r)];
        try {
          sched.submit("A", x, y).get();
          if (y != expect) failures.fetch_add(1);
        } catch (...) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  // Shutdown under injected spurious wakes must also terminate cleanly.
  sched.shutdown(Scheduler::Drain::kDrain);
  EXPECT_GT(FaultInjector::instance().fired("eventcount.spurious_wake"), 0u);
}

// ---------------------------------------------------------------------------
// Registry fault points.
// ---------------------------------------------------------------------------

TEST(FaultRegistry, InjectedTuneFailureLeavesNoPlaceholder) {
  engine::ExecutionContext ctx({.pin_threads = false});
  MatrixRegistry reg;
  const CsrMatrix m = gen::banded(64, 2, 0.8, 91);
  FaultArm arm(31);
  auto& fi = FaultInjector::instance();
  fi.set_rate("registry.tune_fail", 1.0);

  std::shared_future<MatrixRegistry::EntryPtr> fut =
      reg.put_async("F", m, serve_options(&ctx, 1));
  EXPECT_THROW(fut.get(), std::runtime_error);
  EXPECT_EQ(reg.find("F"), nullptr);  // no placeholder, no half-entry
  EXPECT_EQ(reg.size(), 0u);
  EXPECT_THROW(reg.put("F", m, serve_options(&ctx, 1)), std::runtime_error);
  EXPECT_EQ(reg.find("F"), nullptr);

  // With the fault off (and a slow tune injected instead), publishing
  // works again and the delay only defers visibility.
  fi.set_rate("registry.tune_fail", 0.0);
  fi.set_rate("registry.tune_slow", 1.0);
  fi.set_delay("registry.tune_slow", 2ms);
  std::shared_future<MatrixRegistry::EntryPtr> ok =
      reg.put_async("F", m, serve_options(&ctx, 1));
  const MatrixRegistry::EntryPtr entry = ok.get();
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(reg.find("F"), entry);
}

// ---------------------------------------------------------------------------
// Full lifecycle under a mixed fault storm.
// ---------------------------------------------------------------------------

// Deadlines, cancellation, shedding, forced queue-full, spurious wakes,
// and injected dispatch latency all at once: the
// invariant is that every future resolves exactly once, with either the
// correct result or a defined ServeError — and a request that resolved
// with a pre-dispatch error never touched its y.
TEST(FaultServe, LifecycleUnderFaultStormResolvesEveryFutureOnce) {
  engine::ExecutionContext ctx({.pin_threads = false});
  MatrixRegistry reg;
  const CsrMatrix m = gen::banded(150, 3, 0.7, 93);
  reg.put("A", m, serve_options(&ctx, 1));
  const auto x = random_vector(150, 94);
  constexpr double kFill = 0.5;
  const std::vector<double> expect = direct_result(*reg.find("A"), x, kFill);

  FaultArm arm(37);
  auto& fi = FaultInjector::instance();
  fi.set_rate("scheduler.queue_full", 0.25);
  fi.set_rate("eventcount.spurious_wake", 0.25);
  fi.set_rate("scheduler.slow_dispatch", 0.5);
  fi.set_delay("scheduler.slow_dispatch", 200us);

  SchedulerConfig cfg;
  cfg.overflow = SchedulerConfig::OverflowPolicy::kShed;
  cfg.queue_capacity = 8;
  cfg.max_batch = 4;
  cfg.max_linger = std::chrono::microseconds(50);
  cfg.overload = {.overload_frac = 0.25,
                  .shed_frac = 0.5,
                  .recover_frac = 0.25,
                  .recover_samples = 2,
                  .ewma_alpha = 0.2};
  Scheduler sched(reg, cfg);

  constexpr int kClients = 2;
  constexpr int kReps = 24;
  struct Outcome {
    bool cancelled_won = false;
    bool ok = false;
    bool defined_error = false;
    ServeErrorCode code{};
  };
  std::vector<std::vector<double>> ys(
      kClients * kReps, std::vector<double>(150, kFill));
  std::vector<Outcome> outcomes(kClients * kReps);
  std::atomic<int> undefined_failures{0};

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kReps; ++r) {
        const auto idx = static_cast<std::size_t>(c * kReps + r);
        SubmitOptions opt;
        opt.priority = r % 2;
        if (r % 3 == 0) {
          // A mix of hopeless and generous deadlines.
          opt.deadline = std::chrono::steady_clock::now() +
                         (r % 2 == 0 ? 100us : 50ms);
        }
        auto handle = sched.submit("A", x, ys[idx], opt);
        if (r % 4 == 0) {
          outcomes[idx].cancelled_won = handle.token.cancel();
        }
        try {
          handle.future.get();
          outcomes[idx].ok = true;
        } catch (const ServeError& e) {
          outcomes[idx].defined_error = true;
          outcomes[idx].code = e.code();
        } catch (...) {
          undefined_failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(undefined_failures.load(), 0);
  int ok = 0;
  int failed = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    // Exactly one resolution per future.
    ASSERT_TRUE(o.ok != o.defined_error) << "request " << i;
    if (o.ok) {
      ++ok;
      EXPECT_FALSE(o.cancelled_won) << "request " << i;
      EXPECT_EQ(ys[i], expect) << "request " << i;
    } else {
      ++failed;
      EXPECT_TRUE(o.code == ServeErrorCode::kQueueFull ||
                  o.code == ServeErrorCode::kDeadlineExceeded ||
                  o.code == ServeErrorCode::kCancelled)
          << "request " << i << ": " << to_string(o.code);
      if (o.cancelled_won) {
        EXPECT_EQ(o.code, ServeErrorCode::kCancelled) << "request " << i;
      }
      // Pre-dispatch failures never touch the output buffer.
      EXPECT_TRUE(all_equal(ys[i], kFill)) << "request " << i;
    }
  }
  EXPECT_EQ(ok + failed, kClients * kReps);

  const auto stats = sched.stats();
  EXPECT_GT(stats.data_plane.faults_fired, 0u);
  const auto* cell = stats.find("A");
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->requests_completed, static_cast<std::uint64_t>(ok));
}

// ---------------------------------------------------------------------------
// Health watchdog fault point.
// ---------------------------------------------------------------------------

TEST(FaultHealth, SkippedProbesOnlyDelayStallDetection) {
  std::uint64_t beat = 1;  // frozen for the whole test
  HealthWatchdog wd(
      [&] {
        HealthProbe p;
        p.heartbeat = beat;
        p.work_pending = true;
        return p;
      },
      std::chrono::milliseconds(0), /*stall_intervals=*/1);

  FaultArm arm(41);
  auto& fi = FaultInjector::instance();
  fi.set_rate("health.probe_skip", 1.0);
  wd.tick();
  wd.tick();
  // Every probe was skipped: counted, but no tracking state advanced.
  EXPECT_EQ(wd.probes(), 2u);
  EXPECT_EQ(wd.stall_events(), 0u);
  EXPECT_EQ(wd.stalled_dispatchers(), 0u);

  fi.set_rate("health.probe_skip", 0.0);
  wd.tick();  // baseline for the (frozen) heartbeat
  wd.tick();  // frozen with work pending -> stalled
  EXPECT_EQ(wd.stall_events(), 1u);
  EXPECT_EQ(wd.stalled_dispatchers(), 1u);
}

}  // namespace
}  // namespace spmv::serve

#endif  // SPMV_FAULT_INJECTION
