// Run to completion: a request submitted with SubmitOptions::allow_inline
// executes on the submitting thread when the scheduler is idle and its
// matrix disarmed and fast, and queues otherwise.  These pin when it may
// run inline (DataPlaneStats::inline_runs counts the runs), that it keeps
// the one-batch-at-a-time invariant against the dispatcher, and that the
// lifecycle contracts hold on the inline path.  Suites are named Serve*
// so the spmv_concurrency CTest entry (and so the TSan gate) runs them.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "engine/execution_context.h"
#include "gen/generators.h"
#include "serve/registry.h"
#include "serve/scheduler.h"
#include "support/test_helpers.h"

namespace spmv::serve {
namespace {

using namespace std::chrono_literals;

bool wait_until(const std::function<bool()>& pred,
                std::chrono::milliseconds limit = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

std::uint64_t inline_runs(const Scheduler& sched) {
  return sched.stats().data_plane.inline_runs;
}

std::uint64_t queue_samples(const Scheduler& sched, const char* name) {
  const ServeStatsSnapshot snap = sched.stats();
  const MatrixStatsSnapshot* m = snap.find(name);
  return m == nullptr ? std::uint64_t{0} : m->queue_latency.count;
}

SubmitOptions allowed() {
  SubmitOptions o;
  o.allow_inline = true;
  return o;
}

TEST(ServeInline, RunsOnTheSubmitterOnlyWhenAllowedDisarmedAndIdle) {
  engine::ExecutionContext ctx({.pin_threads = false});
  MatrixRegistry reg;
  const CsrMatrix m = gen::banded(90, 3, 0.9, 60);
  reg.put("A", m, serve_options(&ctx, 1));
  const MatrixRegistry::EntryPtr entry = reg.find("A");
  const std::vector<double> x = random_vector(m.cols(), 61);
  const std::vector<double> expect = direct_result(*entry, x, 0.0);

  Scheduler sched(reg, {.max_batch = 32, .max_linger = 20ms});
  std::vector<double> y(m.rows(), 0.0);
  // Armed: a lone client's first two calls linger for company, even
  // with the permission.
  for (int i = 0; i < 2; ++i) {
    std::fill(y.begin(), y.end(), 0.0);
    sched.submit(entry, x, y, allowed()).future.get();
    EXPECT_EQ(y, expect);
  }
  EXPECT_EQ(inline_runs(sched), 0u);
  EXPECT_EQ(sched.stats().data_plane.lingers, 2u);

  // Disarmed, but without the permission: the dispatcher runs it.
  std::fill(y.begin(), y.end(), 0.0);
  sched.submit(entry, x, y).get();
  EXPECT_EQ(y, expect);
  EXPECT_EQ(inline_runs(sched), 0u);

  std::vector<double> scratch(m.rows(), 0.0);
  ASSERT_TRUE(run_inline_once(sched, entry, x, scratch));

  // Disarmed, idle and allowed: it runs, and completes, on this thread
  // before submit() returns, and the dispatcher stays asleep.
  const std::uint64_t sleeps = sched.stats().data_plane.dispatcher_sleeps;
  const std::uint64_t runs = inline_runs(sched);
  const std::uint64_t samples = queue_samples(sched, "A");
  std::thread::id completed_on;
  const ServeError never(ServeErrorCode::kInternal, "never completed");
  const ServeError* outcome = &never;
  SubmitOptions hook = allowed();
  hook.on_complete = [&](const ServeError* error) {
    completed_on = std::this_thread::get_id();
    outcome = error;
  };
  std::fill(y.begin(), y.end(), 0.0);
  SubmitHandle handle = sched.submit(entry, x, y, std::move(hook));
  EXPECT_EQ(completed_on, std::this_thread::get_id());
  EXPECT_EQ(outcome, nullptr);
  EXPECT_EQ(y, expect);
  // Claimed before it executed: too late to cancel.
  EXPECT_FALSE(handle.token.cancel());

  // A future-returning submit is ready when submit() returns.
  std::fill(y.begin(), y.end(), 0.0);
  SubmitHandle with_future = sched.submit(entry, x, y, allowed());
  ASSERT_EQ(with_future.future.wait_for(0s), std::future_status::ready);
  with_future.future.get();
  EXPECT_EQ(y, expect);

  const ServeStatsSnapshot snap = sched.stats();
  EXPECT_EQ(snap.data_plane.inline_runs, runs + 2);
  // At most the park the dispatcher may record after the first run.
  EXPECT_LE(snap.data_plane.dispatcher_sleeps, sleeps + 1);
  const MatrixStatsSnapshot* a = snap.find("A");
  ASSERT_NE(a, nullptr);
  // Each inline run is counted as a 1-wide batch, with its queue and
  // dispatch times.
  EXPECT_EQ(a->queue_latency.count, samples + 2);
  EXPECT_EQ(a->batches_dispatched, a->requests_completed);
  EXPECT_EQ(a->max_batch_width, 1u);
}

TEST(ServeInline, PausedOrStoppedSchedulerNeverRunsInline) {
  engine::ExecutionContext ctx({.pin_threads = false});
  MatrixRegistry reg;
  const CsrMatrix m = gen::banded(90, 3, 0.9, 62);
  reg.put("A", m, serve_options(&ctx, 1));
  const MatrixRegistry::EntryPtr entry = reg.find("A");
  const std::vector<double> x = random_vector(m.cols(), 63);
  const std::vector<double> expect = direct_result(*entry, x, 0.0);

  // max_linger 0: the matrix never lingers, so only the pause holds the
  // request back.
  Scheduler sched(reg, {.max_linger = 0us, .start_paused = true});
  std::vector<double> y(m.rows(), 0.0);
  SubmitHandle paused = sched.submit(entry, x, y, allowed());
  EXPECT_EQ(paused.future.wait_for(20ms), std::future_status::timeout);
  EXPECT_EQ(inline_runs(sched), 0u);
  sched.resume();
  paused.future.get();
  EXPECT_EQ(y, expect);
  EXPECT_EQ(inline_runs(sched), 0u);

  sched.shutdown();
  std::vector<double> late(m.rows(), 0.0);
  SubmitHandle stopped = sched.submit(entry, x, late, allowed());
  try {
    stopped.future.get();
    ADD_FAILURE() << "a stopped scheduler ran the request";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrorCode::kShutdown);
  }
  EXPECT_EQ(late, std::vector<double>(m.rows(), 0.0));
  EXPECT_EQ(inline_runs(sched), 0u);
}

TEST(ServeInline, BusyDispatcherQueuesTheRequest) {
  // The dispatcher holds the executor token while one of its batches
  // completes, so an allowed submit must queue behind it, not run
  // beside it.
  engine::ExecutionContext ctx({.pin_threads = false});
  MatrixRegistry reg;
  const CsrMatrix m = gen::banded(90, 3, 0.9, 64);
  reg.put("A", m, serve_options(&ctx, 1));
  const MatrixRegistry::EntryPtr entry = reg.find("A");
  const std::vector<double> x = random_vector(m.cols(), 65);
  const std::vector<double> expect = direct_result(*entry, x, 0.0);

  Scheduler sched(reg, {.max_linger = 0us});
  std::vector<double> scratch(m.rows(), 0.0);
  ASSERT_TRUE(run_inline_once(sched, entry, x, scratch));
  const std::uint64_t runs = inline_runs(sched);

  std::promise<void> entered;
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  SubmitOptions hold;
  hold.on_complete = [&entered, released](const ServeError* error) {
    EXPECT_EQ(error, nullptr);
    entered.set_value();
    released.wait();
  };
  std::vector<double> y_hold(m.rows(), 0.0);
  (void)sched.submit(entry, x, y_hold, std::move(hold));
  entered.get_future().wait();  // the dispatcher is inside the hook

  std::vector<double> y(m.rows(), 0.0);
  SubmitHandle queued = sched.submit(entry, x, y, allowed());
  EXPECT_EQ(queued.future.wait_for(20ms), std::future_status::timeout)
      << "the request ran while the dispatcher held the token";
  EXPECT_EQ(inline_runs(sched), runs);
  release.set_value();
  queued.future.get();
  EXPECT_EQ(y_hold, expect);
  EXPECT_EQ(y, expect);
  EXPECT_EQ(inline_runs(sched), runs);
}

TEST(ServeInline, SlowMatrixQueuesTheRequest) {
  // A matrix whose mean dispatch time is over kInlineDispatchLimit never
  // runs inline.  Make one dispatch slow by holding the pool its plan
  // multiplies on for well over the limit.
  engine::ExecutionContext ctx({.pin_threads = false});
  MatrixRegistry reg;
  const CsrMatrix m = gen::banded(90, 3, 0.9, 66);
  reg.put("A", m, serve_options(&ctx, 2));
  const MatrixRegistry::EntryPtr entry = reg.find("A");
  const std::vector<double> x = random_vector(m.cols(), 67);
  const std::vector<double> expect = direct_result(*entry, x, 0.0);

  Scheduler sched(reg, {.max_linger = 0us});
  std::promise<void> entered;
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::thread holder([&] {
    ctx.parallel_for(2, [&](unsigned t) {
      if (t == 0) entered.set_value();
      released.wait();
    });
  });
  entered.get_future().wait();
  std::vector<double> y(m.rows(), 0.0);
  std::future<void> slow = sched.submit(entry, x, y);
  const bool started = wait_until([&] { return queue_samples(sched, "A") == 1; });
  std::this_thread::sleep_for(10 * Scheduler::kInlineDispatchLimit);
  release.set_value();
  holder.join();
  ASSERT_TRUE(started) << "the held request never started";
  slow.get();
  EXPECT_EQ(y, expect);
  {
    const ServeStatsSnapshot snap = sched.stats();
    const MatrixStatsSnapshot* a = snap.find("A");
    ASSERT_NE(a, nullptr);
    ASSERT_GE(a->dispatch_latency.mean_us(),
              static_cast<double>(Scheduler::kInlineDispatchLimit.count()));
  }

  for (int i = 0; i < 5; ++i) {
    std::fill(y.begin(), y.end(), 0.0);
    sched.submit(entry, x, y, allowed()).future.get();
    EXPECT_EQ(y, expect);
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(inline_runs(sched), 0u);
}

TEST(ServeInline, RequestQueuedBehindAnInlineRunWaitsAndRearmsLingering) {
  // Hold ctx's pool so an inline run blocks mid-multiply, then submit a
  // second request into the same y with a different x.  It must not
  // start until the inline run finished, it re-arms the matrix's
  // lingering (it was submitted while a batch of its matrix executed),
  // and y ends bit-identical to the two multiplies in order.
  engine::ExecutionContext ctx({.pin_threads = false});
  MatrixRegistry reg;
  const CsrMatrix m = gen::banded(90, 3, 0.9, 68);
  reg.put("A", m, serve_options(&ctx, 2));
  const MatrixRegistry::EntryPtr entry = reg.find("A");
  const std::vector<double> x1 = random_vector(m.cols(), 69);
  const std::vector<double> x2 = random_vector(m.cols(), 70);
  std::vector<double> expect(m.rows(), 0.0);
  entry->plan.multiply(x1, expect);
  entry->plan.multiply(x2, expect);

  Scheduler sched(reg, {.max_batch = 32, .max_linger = 20ms});
  std::vector<double> scratch(m.rows(), 0.0);
  for (int i = 0; i < 2; ++i) sched.submit(entry, x1, scratch).get();
  ASSERT_EQ(sched.stats().data_plane.lingers, 2u);
  const std::uint64_t dispatches_before = ctx.dispatches();
  if (!run_inline_once(sched, entry, x1, scratch)) {
    // Under heavy CPU contention a pooled plan's mean dispatch time can
    // stay over the inline limit; then nothing may run inline, and there
    // is no inline run to hold.
    const ServeStatsSnapshot snap = sched.stats();
    ASSERT_GE(snap.find("A")->dispatch_latency.mean_us(),
              static_cast<double>(Scheduler::kInlineDispatchLimit.count()))
        << "no allowed call ran inline";
    GTEST_SKIP() << "mean dispatch time over the inline limit on this host";
  }
  ASSERT_GT(ctx.dispatches(), dispatches_before)
      << "the plan must multiply through ctx's pool for the hold below";
  const std::uint64_t runs = inline_runs(sched);
  const std::uint64_t samples = queue_samples(sched, "A");

  std::promise<void> entered;
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::thread holder([&] {
    ctx.parallel_for(2, [&](unsigned t) {
      if (t == 0) entered.set_value();
      released.wait();
    });
  });
  entered.get_future().wait();
  std::vector<double> y(m.rows(), 0.0);
  std::thread::id first_ran_on;
  std::thread submitter([&] {
    SubmitOptions o = allowed();
    o.on_complete = [&](const ServeError* error) {
      EXPECT_EQ(error, nullptr);
      first_ran_on = std::this_thread::get_id();
    };
    (void)sched.submit(entry, x1, y, std::move(o));
  });
  // An inline run records its queue latency as it starts, like a batch.
  const bool first_started =
      wait_until([&] { return queue_samples(sched, "A") == samples + 1; });
  std::future<void> second;
  bool second_waited = false;
  std::uint64_t started_while_held = 0;
  if (first_started) {
    second = sched.submit(entry, x2, y, allowed()).future;
    second_waited =
        second.wait_for(50ms) == std::future_status::timeout;
    started_while_held = queue_samples(sched, "A");
  }
  release.set_value();
  holder.join();
  const std::thread::id submitter_id = submitter.get_id();
  submitter.join();
  ASSERT_TRUE(first_started) << "the inline run never started";
  EXPECT_EQ(first_ran_on, submitter_id);
  EXPECT_TRUE(second_waited) << "the second request resolved during the run";
  EXPECT_EQ(started_while_held, samples + 1)
      << "a request into the same y started while the inline run executed";
  second.get();
  EXPECT_EQ(y, expect);
  EXPECT_EQ(inline_runs(sched), runs + 1);
  EXPECT_EQ(sched.stats().data_plane.lingers, 3u)
      << "the request queued behind the inline run did not re-arm lingering";
}

}  // namespace
}  // namespace spmv::serve
