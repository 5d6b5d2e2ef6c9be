// Request-coalescing SpMV scheduler: the serving front door.
//
// One dispatcher thread drains one bounded lock-free request queue:
//
//   submit(x, y) ──┐                                   ┌─► multiply_batch
//   submit(x, y) ──┼──► MpmcQueue ──► dispatcher ──────┤   (one batch at
//        ...     ──┘        │          (linger, batch  │    a time)
//                           │           by matrix)     └─► finish requests
//                           └── EventCount::notify_one() — one atomic load
//                               while the dispatcher is awake
//
//   * Submitters push onto a Vyukov ring (util/mpmc_queue.h) and wake the
//     dispatcher through an eventcount (util/eventcount.h) only when it
//     sleeps — the steady-state submit path takes no lock.
//   * Same-entry requests coalesce into one plan.multiply_batch call.
//     One batch executes at a time, so two requests can race over shared
//     memory only inside one batch, and batch building splits those apart
//     (see conflicts_with).
//   * Run to completion: a request whose submitter allows it
//     (SubmitOptions::allow_inline) executes on the submitting thread,
//     skipping the ring and both thread hops, when nothing could have
//     joined or delayed it anyway: the queue is empty, the dispatcher
//     holds no request and no batch executes, the scheduler is neither
//     paused nor stopping, its matrix has stopped lingering, and the
//     matrix's mean dispatch time is under kInlineDispatchLimit.  One
//     executor token keeps inline runs and the dispatcher apart: the
//     dispatcher holds it from the moment it has work until it parks,
//     and a submit only try-acquires it.  DataPlaneStats::inline_runs
//     counts these runs.
//   * Why this shape, measured with bench_serve on a 4-vCPU host: one
//     dispatcher beat two and four in every mode; and with one consumer a
//     mutex-guarded std::deque with two condition variables lost to this
//     ring on serve-open at 1 and 2 clients by more than the ring's own
//     run-to-run spread.
//
// The knobs are the classic batching-vs-latency tradeoff:
//
//   * max_batch    — widest coalesced dispatch (amortization ceiling);
//   * max_linger   — how long the head request may wait for company
//                    (width under heavy load).  Lingering is adaptive
//                    per matrix: after two windows in a row that added
//                    nothing, the matrix dispatches at once until
//                    concurrent traffic shows up again, so a lone
//                    closed-loop client does not pay the window on
//                    every call;
//   * queue_capacity + overflow policy — bounded queue: block the
//                    submitter (backpressure) or fail fast (kQueueFull).
//
// Lifecycle safety comes from the registry's refcounting: submit() pins
// the entry, so a request races freely with put()/erase() on its name —
// it executes on the version it resolved.  Results are bit-identical to a
// direct plan.multiply on the same plan (the engine's batch path
// guarantees per-rhs equality, and coalescing never reorders a single
// request's accumulation).
//
// One completion: every request ends in one private step, finish(), which
// counts it and then calls its completion exactly once — null on success,
// else a defined ServeError (a batch whose multiply throws finishes each
// member kInternal with the exception's what()).  A future exists only
// when the caller passes no SubmitOptions::on_complete: submit() then
// installs a completion that resolves it.
//
// Request lifecycle: a request may carry a *deadline* and a *priority*
// (SubmitOptions) and hand back a CancelToken.  Expired or cancelled
// requests are swept out of the queue and out of forming batches before
// dispatch — they never reach plan.multiply_batch — and finish
// kDeadlineExceeded / kCancelled.  A third overflow policy, kShed, rejects
// load the queue cannot serve in time: an OverloadDetector
// (serve/health.h) watches queue depth with hysteresis and an EWMA of
// queue latency, and while it reports kShedding, new priority<=0 submits
// shed immediately (kQueueFull) and deadline-carrying submits whose
// deadline the EWMA already overruns shed with kDeadlineExceeded.  Every
// path is observable (shed/expired/cancelled counters in DataPlaneStats)
// and testable under the seeded fault points (util/fault_point.h):
// scheduler.queue_full, scheduler.slow_dispatch, scheduler.dispatch_fail,
// and the eventcount's eventcount.spurious_wake.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "serve/health.h"
#include "serve/registry.h"
#include "serve/serve_stats.h"
#include "util/eventcount.h"
#include "util/mpmc_queue.h"
#include "util/thread_annotations.h"

namespace spmv::serve {

enum class ServeErrorCode {
  kUnknownMatrix,   ///< submit() name not in the registry
  kInvalidOperand,  ///< short/aliasing x|y (same checks as plan.multiply)
  kQueueFull,       ///< queue full under kReject, or shed under kShed
  kShutdown,        ///< scheduler stopped before the request could run
  kDeadlineExceeded,  ///< deadline passed (or predicted to) pre-dispatch
  kCancelled,       ///< CancelToken::cancel() won the race to dispatch
  kInternal,        ///< the batch's multiply threw; the message is its what()
};

const char* to_string(ServeErrorCode code);

/// The defined failure a request finishes with: passed to its completion,
/// and thrown by get() on the future of a submit without one.
class ServeError : public std::runtime_error {
 public:
  ServeError(ServeErrorCode code, const std::string& what)
      : std::runtime_error(what), code_(code) {}
  [[nodiscard]] ServeErrorCode code() const { return code_; }

 private:
  ServeErrorCode code_;
};

struct SchedulerConfig {
  /// Widest coalesced dispatch.  1 disables batching (useful as the
  /// unbatched baseline on identical scheduling machinery).
  std::size_t max_batch = 32;
  /// How long the oldest queued request may linger waiting for the batch
  /// to fill before dispatching anyway.  0 dispatches immediately.  The
  /// window also ends early on stall: when arrivals keep coming but none
  /// of them target this batch's matrix, lingering cannot widen it (its
  /// clients are already queued or blocked on us), so it dispatches.
  /// A matrix lingers only while lingering pays: after two consecutive
  /// windows that ended no wider than they began, its batches dispatch
  /// at once, until a window widens a batch, a batch forms at least 2
  /// wide on its own, or a request is submitted while a batch of the
  /// matrix executes.  DataPlaneStats::lingers and lingers_widened
  /// count the windows entered and those that paid.
  std::chrono::microseconds max_linger{100};
  /// Bounded queue: submits beyond this either block (backpressure) or
  /// fail fast, per `overflow`.  The ring rounds it up to a power of two
  /// no smaller than 2 (a structural minimum of the lock-free ring).
  std::size_t queue_capacity = 4096;
  /// kBlock: park the submitter until a slot frees (backpressure).
  /// kReject: fail fast with kQueueFull.
  /// kShed: admission-controlled reject — a full queue still fails
  /// kQueueFull, but additionally, while the OverloadDetector reports
  /// kShedding, priority<=0 submits shed immediately and submits whose
  /// deadline the latency EWMA already overruns shed kDeadlineExceeded
  /// (they would expire in the queue; shedding them at the door keeps
  /// the queue serving requests that can still make their deadlines).
  enum class OverflowPolicy : std::uint8_t { kBlock, kReject, kShed };
  OverflowPolicy overflow = OverflowPolicy::kBlock;
  /// Start with dispatching suspended until resume() — lets tests (and
  /// warm-up code) enqueue a known set of requests and observe exactly how
  /// they coalesce.
  bool start_paused = false;
};

/// Per-request submit options.  The defaults reproduce the plain
/// submit(): no deadline, priority 0.
struct SubmitOptions {
  /// Absolute deadline.  A request that has not *started dispatching* by
  /// this instant finishes kDeadlineExceeded instead of executing; an
  /// already-expired submit fails at the door.  time_point::max() (the
  /// default) means no deadline.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// Shedding priority: while the overload detector reports kShedding
  /// under OverflowPolicy::kShed, submits with priority <= 0 are shed.
  /// Higher priority also wins batch keying when requests for several
  /// matrices are pending.  No effect under kBlock/kReject.
  int priority = 0;
  /// The request's completion, for callers that cannot block (the network
  /// front-end's I/O threads).  Called exactly once, after the request is
  /// counted in stats(), with null on success or the ServeError it
  /// finished with, on whichever thread finished it: the submitter, inside
  /// submit(), for door rejects and inline runs (see allow_inline); the
  /// dispatcher for queued executed/swept requests; the shutdown thread
  /// for the final sweep.  It must be cheap and must not block or call
  /// back into the scheduler.  When set, no future is made
  /// (SubmitHandle::future is not valid).  Submits that throw (pool-worker
  /// / self-dispatcher fail-fast) create no request and never call it.
  std::function<void(const ServeError* error)> on_complete;
  /// Let the request run to completion on the submitting thread, inside
  /// submit(), when the scheduler is idle and the matrix disarmed (see
  /// the overview).  Off by default: a caller whose on_complete blocks,
  /// or that holds the engine pool the plan multiplies on, must never
  /// have the multiply run on its own thread.  An inline run is claimed,
  /// executed and finished exactly as a dispatched 1-wide batch: an
  /// expired request still never executes, and cancel() on its token
  /// returns false once submit() returned.
  bool allow_inline = false;
};

/// Handle to cancel one submitted request before it dispatches.  Cheap to
/// copy (one shared_ptr); thread-safe.  Default-constructed tokens are
/// empty and cancel() on them returns false.
class CancelToken {
 public:
  CancelToken() = default;

  /// Request cancellation.  True: the request had not been claimed for
  /// dispatch — it will never execute and it finishes kCancelled.  False:
  /// too late (dispatch claimed it, admission already rejected it, or an
  /// expiry sweep already finished it kDeadlineExceeded — it finishes
  /// with that outcome) or the token is empty.  Idempotent; at most one
  /// call returns true.
  bool cancel();

  [[nodiscard]] bool valid() const { return state_ != nullptr; }

 private:
  friend class Scheduler;
  explicit CancelToken(std::shared_ptr<std::atomic<std::uint8_t>> state)
      : state_(std::move(state)) {}
  std::shared_ptr<std::atomic<std::uint8_t>> state_;
};

/// What an options-carrying submit() hands back: the result future (not
/// valid when SubmitOptions::on_complete was given) plus the cancellation
/// handle for that request.
struct SubmitHandle {
  std::future<void> future;
  CancelToken token;
};

class Scheduler {
 public:
  /// A matrix runs inline only while its mean dispatch time is under
  /// this.  A constant, not an option: it bounds how long an inline run
  /// can hold up the submitting thread's other work (a network I/O
  /// thread's other connections), and sits well above the ~80 µs
  /// rpc-solver dispatch on a 4-vCPU KVM Xeon.
  static constexpr std::chrono::microseconds kInlineDispatchLimit{500};

  /// The registry must outlive the scheduler.
  explicit Scheduler(MatrixRegistry& registry, SchedulerConfig config = {});

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  ~Scheduler();  ///< shutdown(Drain::kDrain)

  /// Enqueue y ← y + A·x against the named matrix and return a future that
  /// becomes ready when y holds the result (or holds a ServeError; a
  /// failed multiply reads kInternal).  The x/y memory must stay valid and
  /// untouched until the request finishes; x and y must not alias, and y
  /// must be distinct per in-flight request.  Thread-safe; may block when
  /// the queue is full under kBlock.  Must not be called from an engine
  /// pool worker: a kBlock wait there can deadlock the pool (the
  /// dispatcher needs the pool to drain the queue), so this is enforced —
  /// such a call throws std::logic_error immediately instead of
  /// deadlocking under load.
  std::future<void> submit(const std::string& name, std::span<const double> x,
                           std::span<double> y);

  /// Same, with the registry lookup already done (pins `entry`): clients
  /// holding a hot entry skip the name lookup, and requests for a retired
  /// version still execute.
  std::future<void> submit(MatrixRegistry::EntryPtr entry,
                           std::span<const double> x, std::span<double> y);

  /// submit() with a deadline/priority, an optional completion and a
  /// CancelToken for the request.  All the plain-submit guarantees hold,
  /// plus: the request never executes after its deadline or a successful
  /// cancel — it finishes kDeadlineExceeded / kCancelled instead, exactly
  /// once.  `options` is taken by value: a caller passing
  /// std::move(options) hands its on_complete to the request uncopied.
  SubmitHandle submit(const std::string& name, std::span<const double> x,
                      std::span<double> y, SubmitOptions options);
  SubmitHandle submit(MatrixRegistry::EntryPtr entry,
                      std::span<const double> x, std::span<double> y,
                      SubmitOptions options);

  /// Begin dispatching when constructed with start_paused.  Idempotent.
  void resume();

  enum class Drain : std::uint8_t {
    kDrain,    ///< run every queued request, then stop
    kDiscard,  ///< fail queued requests with kShutdown, stop now
  };

  /// Stop the dispatcher.  Safe to call twice; after shutdown every
  /// submit() fails fast with kShutdown.
  void shutdown(Drain mode = Drain::kDrain) SPMV_EXCLUDES(join_mutex_);

  [[nodiscard]] ServeStatsSnapshot stats() const;
  [[nodiscard]] const SchedulerConfig& config() const { return config_; }

  /// Current admission-control state (kOk/kOverloaded/kShedding).
  [[nodiscard]] HealthState health() const { return detector_.state(); }
  [[nodiscard]] const OverloadDetector& overload_detector() const {
    return detector_;
  }

 private:
  struct Request {
    MatrixRegistry::EntryPtr entry;
    const double* x = nullptr;
    double* y = nullptr;
    std::shared_ptr<MatrixCell> cell;
    std::chrono::steady_clock::time_point enqueued;
    /// Absolute deadline; time_point::max() = none.
    std::chrono::steady_clock::time_point deadline;
    int priority = 0;
    /// Cancellation state shared with the client's CancelToken (null for
    /// plain submits — no allocation unless a token was asked for).
    /// kCancelQueued -> kCancelRequested (CancelToken::cancel) or
    /// -> kCancelClaimed (dispatcher, at batch finalization).
    std::shared_ptr<std::atomic<std::uint8_t>> cancel;
    /// The request's one completion: SubmitOptions::on_complete, or the
    /// future adapter submit() installs.  Only finish() calls it.
    std::function<void(const ServeError*)> complete;
    /// Submitted while a batch of its matrix was executing: it has
    /// company, so it re-arms the matrix's linger (see build_batch).
    bool queued_behind = false;
  };

  /// Shared body of all four submit() overloads.  A null `entry` fails
  /// kUnknownMatrix, naming `name` if given.  `token_out` non-null
  /// allocates and returns a cancellation token for the request.
  std::future<void> do_submit(MatrixRegistry::EntryPtr entry,
                              const std::string* name,
                              std::span<const double> x, std::span<double> y,
                              SubmitOptions options,
                              CancelToken* token_out);
  /// The one way a request ends: bump `counter` (its outcome's stats
  /// counter; null counts nothing), then call `complete` with `error`.
  static void finish(const std::function<void(const ServeError*)>& complete,
                     Counter* counter, const ServeError* error);
  /// Finish `req` if it is past its deadline or cancel-requested at
  /// `now` (kDeadlineExceeded / kCancelled) and report that it was.
  /// Every pre-dispatch sweep — batch building, linger, batch
  /// finalization, shutdown — funnels through this, so a dead request
  /// never reaches plan.multiply_batch and finishes exactly once.
  /// With `claim_token` the check is final: the cancel token is
  /// CAS-claimed, so when this returns false the request is committed to
  /// finish with its execution (or teardown) outcome and cancel() returns
  /// false from here on.  Peeking sweeps pass false, keeping parked
  /// requests cancellable.
  bool resolve_if_dead(Request& req, std::chrono::steady_clock::time_point now,
                       bool claim_token);
  /// Run `req` to completion on this thread if the scheduler is idle and
  /// its matrix disarmed and fast (see the overview); false, leaving
  /// `req` untouched, when it must queue instead.  Called only inside a
  /// submit's submits_in_flight_ announcement, after its stopping_ check.
  /// noexcept: a completion that throws ends the process here as it does
  /// on the dispatcher, rather than escaping with the token held.
  bool try_run_inline(Request& req) noexcept SPMV_EXCLUDES(executor_);
  void dispatcher_loop() SPMV_EXCLUDES(executor_);
  /// Pop from the queue into `pending` until the queue is dry or
  /// `pending` holds max_batch requests.
  void fill_pending(std::deque<Request>& pending);
  /// Build a dispatchable batch from `pending`: pick the head request's
  /// entry, gather up to max_batch same-entry requests without intra-batch
  /// operand conflicts, and linger for stragglers when the batch is the
  /// only local work and its matrix is armed (the per-matrix miss count in
  /// MatrixCell::linger_misses, reset by concurrent traffic).  Empty
  /// when every candidate was dead (expired or cancelled).
  std::vector<Request> build_batch(std::deque<Request>& pending);
  /// Linger: give non-empty `batch` time to fill before paying a dispatch
  /// for it.  Only called while `pending` is empty (lingering while other
  /// entries wait would delay them without widening this batch any
  /// faster) and max_linger is nonzero.
  void linger_fill(const MatrixRegistry::Entry* key,
                   std::vector<Request>& batch, std::deque<Request>& pending);
  /// Execute `batch` (one entry, no operand conflicts, every member
  /// claimed) as one multiply_batch and finish each member.
  void execute_batch(std::span<Request> batch) SPMV_REQUIRES(executor_);
  static void fail_request(Request& req, ServeErrorCode code,
                           const char* what);
  /// Would `r` race `batch` inside one dispatch?  The engine's batch path
  /// runs right-hand sides unordered, so a duplicated y or an x aliasing
  /// a batch member's y must split into a later dispatch.
  ///
  /// This intra-batch check is the only operand-conflict check, and it
  /// suffices because one batch executes at a time: execute_batch runs
  /// only under the executor token (the dispatcher's batches, and inline
  /// runs, which try-acquire it only while the queue is empty and the
  /// dispatcher holds nothing), each call returns only after every member
  /// has finished, and shutdown()'s final sweep runs after the join and
  /// after every submit (and so every inline run) has returned.  So a
  /// request whose y is in an executing batch cannot start until that
  /// batch is done.  A path that executes requests anywhere else (a
  /// second dispatcher) must keep this true — e.g. by taking the same
  /// token — or bring back cross-batch operand tracking.
  static bool conflicts_with(const std::vector<Request>& batch,
                             const Request& r);

  MatrixRegistry& registry_;
  SchedulerConfig config_;
  ServeStats stats_;
  DataPlaneStats plane_;
  OverloadDetector detector_;

  MpmcQueue<Request> queue_;
  EventCount work_ec_;   ///< the dispatcher sleeps here; submits notify
  EventCount space_ec_;  ///< kBlock submitters sleep here; pops notify

  std::atomic<bool> paused_{false};
  /// No new submits; the dispatcher winds down.
  std::atomic<bool> stopping_{false};
  /// stopping_ without draining.
  std::atomic<bool> discard_{false};
  /// Dekker counterpart to stopping_: submits announce themselves before
  /// checking stopping_, so shutdown() can wait out racing pushes and
  /// then sweep the ring exactly once (see submit/shutdown).
  std::atomic<unsigned> submits_in_flight_{0};
  /// The executor token: held by the dispatcher from the moment it has
  /// work until it parks, and by an inline run (try-acquired) for its one
  /// execution.  Whoever holds it is the only thread in execute_batch.
  Mutex executor_;

  Mutex join_mutex_;
  std::thread dispatcher_ SPMV_GUARDED_BY(join_mutex_);
};

}  // namespace spmv::serve
