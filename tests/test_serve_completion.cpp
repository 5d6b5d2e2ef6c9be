// The scheduler's one completion: a request submitted with
// SubmitOptions::on_complete finishes through that callback alone —
// exactly once, with the expected outcome, with no future kept, and only
// after its counters are updated — on every path a request can end by.
// Suites are named Serve* so the spmv_concurrency CTest entry (the TSan
// gate) runs them.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <optional>
#include <thread>
#include <vector>

#include "engine/execution_context.h"
#include "gen/generators.h"
#include "serve/registry.h"
#include "serve/scheduler.h"
#include "serve/serve_stats.h"
#include "support/test_helpers.h"

namespace spmv::serve {
namespace {

using namespace std::chrono_literals;

constexpr std::uint32_t kN = 96;
constexpr double kFill = 0.75;

/// One request's completion, observed: how often it ran and with what.
class Probe {
 public:
  /// Options whose completion feeds this probe.
  SubmitOptions options() {
    SubmitOptions o;
    o.on_complete = [this](const ServeError* error) {
      if (error != nullptr) code_ = error->code();
      // seq_cst: a test-side counter; the promise below publishes code_.
      if (calls_.fetch_add(1, std::memory_order_seq_cst) == 0) {
        first_.set_value();
      }
    };
    return o;
  }

  /// Block until the completion ran; its code, or nullopt on success.
  std::optional<ServeErrorCode> wait() {
    EXPECT_EQ(fired_.wait_for(10s), std::future_status::ready)
        << "the completion never ran";
    return code_;
  }

  [[nodiscard]] int calls() const {
    // seq_cst: test-side read of the counter above.
    return calls_.load(std::memory_order_seq_cst);
  }

 private:
  std::atomic<int> calls_{0};
  std::optional<ServeErrorCode> code_;
  std::promise<void> first_;
  std::future<void> fired_ = first_.get_future();
};

/// A registry holding matrix "A" and the direct result of multiplying it.
class ServeCompletion : public ::testing::Test {
 protected:
  ServeCompletion() {
    TuningOptions opt = TuningOptions::full(1);
    opt.tune_prefetch = false;
    opt.context = &ctx_;
    reg_.put("A", gen::banded(kN, 3, 0.8, 71), opt);
    expect_.assign(kN, kFill);
    reg_.find("A")->plan.multiply(x_, expect_);
  }

  /// The stats cell of "A" (every test below submits against it).
  static MatrixStatsSnapshot cell(const Scheduler& sched) {
    const ServeStatsSnapshot snap = sched.stats();
    const MatrixStatsSnapshot* a = snap.find("A");
    return a == nullptr ? MatrixStatsSnapshot{} : *a;
  }

  engine::ExecutionContext ctx_{{.pin_threads = false}};
  MatrixRegistry reg_;
  const std::vector<double> x_ = random_vector(kN, 72);
  std::vector<double> y_ = std::vector<double>(kN, kFill);
  std::vector<double> expect_;
};

TEST_F(ServeCompletion, Executed) {
  Scheduler sched(reg_, {.max_linger = 0us});
  Probe probe;
  SubmitHandle h = sched.submit("A", x_, y_, probe.options());
  EXPECT_FALSE(h.future.valid());
  EXPECT_EQ(probe.wait(), std::nullopt);
  EXPECT_EQ(cell(sched).requests_completed, 1u);
  EXPECT_EQ(y_, expect_);
  sched.shutdown();
  EXPECT_EQ(probe.calls(), 1);
}

TEST_F(ServeCompletion, UnknownName) {
  Scheduler sched(reg_);
  Probe probe;
  SubmitHandle h = sched.submit("nope", x_, y_, probe.options());
  EXPECT_FALSE(h.future.valid());
  EXPECT_EQ(probe.wait(), ServeErrorCode::kUnknownMatrix);
  EXPECT_EQ(sched.stats().unknown_matrix_rejected, 1u);
  sched.shutdown();
  EXPECT_EQ(probe.calls(), 1);
}

TEST_F(ServeCompletion, InvalidOperand) {
  Scheduler sched(reg_);
  Probe probe;
  const std::vector<double> x_short(kN - 1, 1.0);
  SubmitHandle h = sched.submit("A", x_short, y_, probe.options());
  EXPECT_FALSE(h.future.valid());
  EXPECT_EQ(probe.wait(), ServeErrorCode::kInvalidOperand);
  EXPECT_EQ(cell(sched).requests_rejected, 1u);
  sched.shutdown();
  EXPECT_EQ(probe.calls(), 1);
}

TEST_F(ServeCompletion, DeadlinePassedAtTheDoor) {
  Scheduler sched(reg_);
  Probe probe;
  SubmitOptions opt = probe.options();
  opt.deadline = std::chrono::steady_clock::now() - 1ms;
  SubmitHandle h = sched.submit("A", x_, y_, opt);
  EXPECT_FALSE(h.future.valid());
  EXPECT_EQ(probe.wait(), ServeErrorCode::kDeadlineExceeded);
  EXPECT_EQ(cell(sched).requests_rejected, 1u);
  EXPECT_EQ(sched.stats().data_plane.requests_expired, 1u);
  EXPECT_FALSE(h.token.cancel());  // the door decided the outcome
  sched.shutdown();
  EXPECT_EQ(probe.calls(), 1);
}

TEST_F(ServeCompletion, QueueFullUnderReject) {
  Scheduler sched(reg_, {.queue_capacity = 2,
                         .overflow = SchedulerConfig::OverflowPolicy::kReject,
                         .start_paused = true});
  std::vector<std::vector<double>> ys(2, std::vector<double>(kN, kFill));
  std::future<void> f0 = sched.submit("A", x_, ys[0]);
  std::future<void> f1 = sched.submit("A", x_, ys[1]);
  Probe probe;
  SubmitHandle h = sched.submit("A", x_, y_, probe.options());
  EXPECT_FALSE(h.future.valid());
  EXPECT_EQ(probe.wait(), ServeErrorCode::kQueueFull);
  EXPECT_EQ(cell(sched).requests_rejected, 1u);
  sched.resume();
  f0.get();
  f1.get();
  sched.shutdown();
  EXPECT_EQ(probe.calls(), 1);
  EXPECT_EQ(y_, std::vector<double>(kN, kFill));
}

TEST_F(ServeCompletion, ShedUnderShed) {
  SchedulerConfig cfg;
  cfg.queue_capacity = 8;
  cfg.overflow = SchedulerConfig::OverflowPolicy::kShed;
  cfg.start_paused = true;
  Scheduler sched(reg_, cfg);
  // Six queued requests put the seventh submit's depth sample at 6/8, the
  // detector's 0.75 shed threshold: it sheds that request at the door.
  std::vector<std::vector<double>> ys(6, std::vector<double>(kN, kFill));
  std::vector<std::future<void>> queued;
  for (auto& y : ys) queued.push_back(sched.submit("A", x_, y));
  Probe probe;
  SubmitHandle h = sched.submit("A", x_, y_, probe.options());
  EXPECT_FALSE(h.future.valid());
  EXPECT_EQ(probe.wait(), ServeErrorCode::kQueueFull);
  EXPECT_EQ(cell(sched).requests_rejected, 1u);
  EXPECT_EQ(sched.stats().data_plane.requests_shed, 1u);
  sched.resume();
  for (auto& f : queued) f.get();
  sched.shutdown();
  EXPECT_EQ(probe.calls(), 1);
  EXPECT_EQ(y_, std::vector<double>(kN, kFill));
}

TEST_F(ServeCompletion, CancelledWhileQueued) {
  Scheduler sched(reg_, {.start_paused = true});
  Probe probe;
  SubmitHandle h = sched.submit("A", x_, y_, probe.options());
  EXPECT_FALSE(h.future.valid());
  ASSERT_TRUE(h.token.cancel());
  sched.resume();
  EXPECT_EQ(probe.wait(), ServeErrorCode::kCancelled);
  EXPECT_EQ(cell(sched).requests_failed, 1u);
  EXPECT_EQ(sched.stats().data_plane.requests_cancelled, 1u);
  sched.shutdown();
  EXPECT_EQ(probe.calls(), 1);
  EXPECT_EQ(y_, std::vector<double>(kN, kFill));
}

TEST_F(ServeCompletion, ExpiredWhileQueued) {
  Scheduler sched(reg_, {.start_paused = true});
  Probe probe;
  SubmitOptions opt = probe.options();
  // Generous enough that the submit itself beats it even on a loaded
  // host (else the door, not the queue sweep, would reject it).
  opt.deadline = std::chrono::steady_clock::now() + 20ms;
  SubmitHandle h = sched.submit("A", x_, y_, opt);
  EXPECT_FALSE(h.future.valid());
  // The deadline lapses while dispatch is paused; the dispatcher's first
  // sweep then finds the request dead.
  std::this_thread::sleep_until(opt.deadline + 1ms);
  sched.resume();
  EXPECT_EQ(probe.wait(), ServeErrorCode::kDeadlineExceeded);
  EXPECT_EQ(cell(sched).requests_failed, 1u);
  EXPECT_EQ(sched.stats().data_plane.requests_expired, 1u);
  sched.shutdown();
  EXPECT_EQ(probe.calls(), 1);
  EXPECT_EQ(y_, std::vector<double>(kN, kFill));
}

TEST_F(ServeCompletion, DiscardedAtShutdown) {
  Scheduler sched(reg_, {.start_paused = true});
  Probe probe;
  SubmitHandle h = sched.submit("A", x_, y_, probe.options());
  EXPECT_FALSE(h.future.valid());
  sched.shutdown(Scheduler::Drain::kDiscard);
  EXPECT_EQ(probe.wait(), ServeErrorCode::kShutdown);
  EXPECT_EQ(cell(sched).requests_failed, 1u);
  EXPECT_EQ(probe.calls(), 1);
  EXPECT_EQ(y_, std::vector<double>(kN, kFill));
}

TEST_F(ServeCompletion, DrainedAtShutdown) {
  Scheduler sched(reg_, {.start_paused = true});
  Probe probe;
  SubmitHandle h = sched.submit("A", x_, y_, probe.options());
  EXPECT_FALSE(h.future.valid());
  sched.shutdown(Scheduler::Drain::kDrain);
  EXPECT_EQ(probe.wait(), std::nullopt);
  EXPECT_EQ(cell(sched).requests_completed, 1u);
  EXPECT_EQ(probe.calls(), 1);
  EXPECT_EQ(y_, expect_);
}

TEST_F(ServeCompletion, SubmitAfterShutdown) {
  Scheduler sched(reg_);
  sched.shutdown();
  Probe probe;
  SubmitHandle h = sched.submit("A", x_, y_, probe.options());
  EXPECT_FALSE(h.future.valid());
  EXPECT_EQ(probe.wait(), ServeErrorCode::kShutdown);
  EXPECT_EQ(cell(sched).requests_rejected, 1u);
  EXPECT_EQ(probe.calls(), 1);
  EXPECT_EQ(y_, std::vector<double>(kN, kFill));
}

TEST_F(ServeCompletion, OptionsCompletionIsMovedNotCopied) {
  // The network server's completion is too large for std::function's
  // inline buffer, so every copy between submit(std::move(options)) and
  // the request would be one more heap allocation per call.
  struct CountsCopies {
    std::atomic<int>* copies;
    std::promise<void>* finished;

    CountsCopies(std::atomic<int>* c, std::promise<void>* f)
        : copies(c), finished(f) {}
    CountsCopies(const CountsCopies& other)
        : copies(other.copies), finished(other.finished) {
      // seq_cst: a test-side counter.
      copies->fetch_add(1, std::memory_order_seq_cst);
    }
    CountsCopies(CountsCopies&&) noexcept = default;

    void operator()(const ServeError* error) const {
      EXPECT_EQ(error, nullptr);
      finished->set_value();
    }
  };
  std::atomic<int> copies{0};
  std::promise<void> finished;
  std::future<void> done = finished.get_future();

  Scheduler sched(reg_, {.max_linger = 0us});
  SubmitOptions opts;
  opts.on_complete = CountsCopies(&copies, &finished);
  SubmitHandle h = sched.submit("A", x_, y_, std::move(opts));
  EXPECT_FALSE(h.future.valid());
  ASSERT_EQ(done.wait_for(10s), std::future_status::ready);
  sched.shutdown();
  EXPECT_EQ(y_, expect_);
  // seq_cst: test-side read of the counter above.
  EXPECT_EQ(copies.load(std::memory_order_seq_cst), 0);
}

}  // namespace
}  // namespace spmv::serve
