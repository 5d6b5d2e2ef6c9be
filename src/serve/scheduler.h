// Request-coalescing SpMV scheduler on a sharded lock-free data plane:
// the serving front door.
//
// Williams et al. win SpMV throughput by eliminating per-operation
// overheads that serialize the machine; the first scheduler had exactly
// such an overhead — one mutex-guarded deque drained by condvar-woken
// dispatchers delivered ~0.4-0.5x of direct-call throughput at every
// client count.  This version shards the data plane so the request path
// serializes on nothing:
//
//   submit(x, y) ──hash(thread id)──► shard 0  [MpmcQueue]  ─┐
//   submit(x, y) ───────────────────► shard 1  [MpmcQueue]  ─┤ steal
//        ...                              ...                ├──────► N
//   submit(x, y) ───────────────────► shard K  [MpmcQueue]  ─┘  dispatchers
//                          │
//                          └── EventCount::notify_one() — one atomic load
//                              when every dispatcher is already busy
//
//   * Submitters push onto their thread's home shard (lock-free Vyukov
//     ring, util/mpmc_queue.h) and wake at most one sleeping dispatcher
//     through an eventcount (util/eventcount.h) — the steady-state submit
//     path takes no lock and wakes nobody who is already awake.
//   * Each dispatcher drains its own shard first, then *steals* from
//     sibling shards until it has a full batch — stealing preserves
//     coalescing width instead of fragmenting it across shards.
//   * Same-entry requests coalesce into one Executor::multiply_batch, as
//     before; operand-conflict tracking (duplicate y / x-aliasing-y
//     across concurrently executing batches) lives in a flat-hash
//     tracker touched once per batch, not once per request, and never on
//     the submit path.
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
//                    submitter (backpressure) or fail fast (kQueueFull);
//   * dispatch_threads / shards — data-plane width.
//
// Lifecycle safety comes from the registry's refcounting: submit() pins
// the entry, so a request races freely with put()/erase() on its name —
// it executes on the version it resolved, and every future resolves with
// a value or a defined ServeError.  Results are bit-identical to a direct
// Executor::multiply on the same plan (the engine's batch path guarantees
// per-rhs equality, and coalescing never reorders a single request's
// accumulation).
//
// Request lifecycle (PR 8): a request may carry a *deadline* and a
// *priority* (SubmitOptions) and hand back a CancelToken alongside its
// future.  Expired or cancelled requests are swept out of the rings and
// out of forming batches before dispatch — they never reach
// Executor::multiply_batch — and resolve kDeadlineExceeded / kCancelled.
// A third overflow policy, kShed, rejects load the queue cannot serve in
// time: an OverloadDetector (serve/health.h) watches queue depth with
// hysteresis and an EWMA of queue latency, and while it reports
// kShedding, new priority<=0 submits shed immediately (kQueueFull) and
// deadline-carrying submits whose deadline the EWMA already overruns
// shed with kDeadlineExceeded.  A HealthWatchdog probes per-dispatcher
// heartbeat counters to flag stalled dispatchers.  Every path is
// observable (shed/expired/cancelled counters in DataPlaneStats) and
// testable under the seeded fault points (util/fault_point.h):
// scheduler.queue_full, scheduler.slow_dispatch, scheduler.steal_skip.
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
#include "util/flat_hash.h"
#include "util/mpmc_queue.h"
#include "util/thread_annotations.h"

namespace spmv::serve {

enum class ServeErrorCode {
  kUnknownMatrix,   ///< submit() name not in the registry
  kInvalidOperand,  ///< short/aliasing x|y (same checks as Executor)
  kQueueFull,       ///< queue full under kReject, or shed under kShed
  kShutdown,        ///< scheduler stopped before the request could run
  kDeadlineExceeded,  ///< deadline passed (or predicted to) pre-dispatch
  kCancelled,       ///< CancelToken::cancel() won the race to dispatch
};

const char* to_string(ServeErrorCode code);

/// The defined failure type for submit() futures.
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
  /// matrix executes.  DataPlaneSnapshot::lingers and lingers_widened
  /// count the windows entered and those that paid.
  std::chrono::microseconds max_linger{100};
  /// Bounded queue: submits beyond this either block (backpressure) or
  /// fail fast, per `overflow`.  The capacity is split evenly across
  /// shards and each shard's share rounds up to a power of two no smaller
  /// than 2 (a structural minimum of the lock-free ring), so the
  /// effective total can round up; a submitter whose home shard is full
  /// overflows onto siblings before blocking or rejecting, so the full
  /// capacity is reachable from any thread.
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
  /// Dispatcher threads draining the shards.  More than one lets batches
  /// for different matrices execute concurrently (they still serialize on
  /// the engine's dispatch lock for the actual pool work).
  unsigned dispatch_threads = 1;
  /// Request-queue shards.  0 (default) means one per dispatcher.
  /// Submitters hash to a home shard by thread id; dispatcher i owns
  /// shard i mod shards and steals from the rest.
  unsigned shards = 0;
  /// Start with dispatching suspended until resume() — lets tests (and
  /// warm-up code) enqueue a known set of requests and observe exactly how
  /// they coalesce.
  bool start_paused = false;
  /// Hysteresis thresholds for the overload detector feeding kShed
  /// admission and the health() state.
  OverloadConfig overload{};
  /// Probe period of the stalled-dispatcher watchdog.  0 (default)
  /// starts no watchdog thread; tests drive Scheduler::watchdog().tick()
  /// directly for deterministic probe timing.
  std::chrono::milliseconds watchdog_interval{0};
  /// Consecutive frozen-heartbeat probes (with work pending) before a
  /// dispatcher is declared stalled.
  std::uint32_t watchdog_stall_intervals = 3;
};

/// Per-request submit options.  The defaults reproduce the plain
/// submit(): no deadline, priority 0.
struct SubmitOptions {
  /// Absolute deadline.  A request that has not *started dispatching* by
  /// this instant resolves kDeadlineExceeded instead of executing; an
  /// already-expired submit fails at the door.  time_point::max() (the
  /// default) means no deadline.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// Shedding priority: while the overload detector reports kShedding
  /// under OverflowPolicy::kShed, submits with priority <= 0 are shed.
  /// Higher priority also wins batch keying when requests for several
  /// matrices are pending.  No effect under kBlock/kReject.
  int priority = 0;
  /// Completion hook for event-driven callers (the network front-end's
  /// I/O threads cannot block on a future).  Invoked exactly once, after
  /// the request's future is resolved — with a value or a ServeError —
  /// from whatever thread resolved it: the submitting thread for door
  /// rejects, a dispatcher for executed/swept requests, the shutdown
  /// thread for the final sweep.  The hook must be cheap and must not
  /// block or call back into the scheduler (a dispatcher thread runs it).
  /// Submits that throw (pool-worker / self-dispatcher fail-fast) created
  /// no request and never invoke it.
  std::function<void()> on_complete;
};

/// Handle to cancel one submitted request before it dispatches.  Cheap to
/// copy (one shared_ptr); thread-safe.  Default-constructed tokens are
/// empty and cancel() on them returns false.
class CancelToken {
 public:
  CancelToken() = default;

  /// Request cancellation.  True: the request had not been claimed for
  /// dispatch — it will never execute and its future resolves
  /// kCancelled.  False: too late (dispatch claimed it, admission
  /// already rejected it, or an expiry sweep already resolved it
  /// kDeadlineExceeded — the future resolves with that outcome) or the
  /// token is empty.  Idempotent; at most one call returns true.
  bool cancel();

  [[nodiscard]] bool valid() const { return state_ != nullptr; }

 private:
  friend class Scheduler;
  explicit CancelToken(std::shared_ptr<std::atomic<std::uint8_t>> state)
      : state_(std::move(state)) {}
  std::shared_ptr<std::atomic<std::uint8_t>> state_;
};

/// What an options-carrying submit() hands back: the result future plus
/// the cancellation handle for that request.
struct SubmitHandle {
  std::future<void> future;
  CancelToken token;
};

class Scheduler {
 public:
  /// The registry must outlive the scheduler.
  explicit Scheduler(MatrixRegistry& registry, SchedulerConfig config = {});

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  ~Scheduler();  ///< shutdown(Drain::kDrain)

  /// Enqueue y ← y + A·x against the named matrix and return a future that
  /// becomes ready when y holds the result (or holds a ServeError).  The
  /// x/y memory must stay valid and untouched until the future is ready;
  /// x and y must not alias, and y must be distinct per in-flight request.
  /// Thread-safe; may block when the queue is full under kBlock.  Must not
  /// be called from an engine pool worker: a kBlock wait there can
  /// deadlock the pool (the dispatcher needs the pool to drain the
  /// queue), so this is enforced — such a call throws std::logic_error
  /// immediately instead of deadlocking under load.
  std::future<void> submit(const std::string& name, std::span<const double> x,
                           std::span<double> y);

  /// Same, with the registry lookup already done (pins `entry`): clients
  /// holding a hot entry skip the name lookup, and requests for a retired
  /// version still execute.
  std::future<void> submit(MatrixRegistry::EntryPtr entry,
                           std::span<const double> x, std::span<double> y);

  /// submit() with a deadline/priority and a CancelToken for the request.
  /// All the plain-submit guarantees hold, plus: the request never
  /// executes after its deadline or a successful cancel — it resolves
  /// kDeadlineExceeded / kCancelled instead, exactly once.
  SubmitHandle submit(const std::string& name, std::span<const double> x,
                      std::span<double> y, const SubmitOptions& options);
  SubmitHandle submit(MatrixRegistry::EntryPtr entry,
                      std::span<const double> x, std::span<double> y,
                      const SubmitOptions& options);

  /// Begin dispatching when constructed with start_paused.  Idempotent.
  void resume();

  enum class Drain : std::uint8_t {
    kDrain,    ///< run every queued request, then stop
    kDiscard,  ///< fail queued requests with kShutdown, stop now
  };

  /// Stop the dispatchers.  Safe to call twice; after shutdown every
  /// submit() fails fast with kShutdown.
  void shutdown(Drain mode = Drain::kDrain) SPMV_EXCLUDES(join_mutex_);

  [[nodiscard]] ServeStatsSnapshot stats() const;
  [[nodiscard]] const SchedulerConfig& config() const { return config_; }

  /// Current admission-control state (kOk/kOverloaded/kShedding).
  [[nodiscard]] HealthState health() const { return detector_.state(); }
  [[nodiscard]] const OverloadDetector& overload_detector() const {
    return detector_;
  }
  /// The stalled-dispatcher watchdog.  Always constructed; it only runs
  /// a thread when config().watchdog_interval > 0 — with interval 0,
  /// call watchdog().tick() to probe on demand.
  [[nodiscard]] HealthWatchdog& watchdog() { return *watchdog_; }
  [[nodiscard]] const HealthWatchdog& watchdog() const { return *watchdog_; }

 private:
  struct Request {
    MatrixRegistry::EntryPtr entry;
    const double* x = nullptr;
    double* y = nullptr;
    std::promise<void> promise;
    std::shared_ptr<MatrixServeStats> stats;
    std::chrono::steady_clock::time_point enqueued;
    /// Absolute deadline; time_point::max() = none.
    std::chrono::steady_clock::time_point deadline;
    int priority = 0;
    /// Cancellation state shared with the client's CancelToken (null for
    /// plain submits — no allocation unless a token was asked for).
    /// kCancelQueued -> kCancelRequested (CancelToken::cancel) or
    /// -> kCancelClaimed (dispatcher, just before operand claim).
    std::shared_ptr<std::atomic<std::uint8_t>> cancel;
    /// SubmitOptions::on_complete, fired once after the promise resolves.
    std::function<void()> on_complete;
    bool stolen = false;  ///< popped from a shard its dispatcher doesn't own
    /// Submitted while a batch of its matrix was executing: it has
    /// company, so it re-arms the matrix's linger (see build_batch).
    bool queued_behind = false;
  };

  /// One request-queue shard.  Padded so neighboring shards' ring cursors
  /// never share a cache line.
  struct alignas(kCacheLineSize) Shard {
    explicit Shard(std::size_t capacity) : ring(capacity) {}
    MpmcQueue<Request> ring;
  };

  /// Operands of batches currently executing on some dispatcher.  A
  /// request conflicts — and stays with its dispatcher, deferred — while
  /// its y is registered as an in-flight x or y, or its x as an in-flight
  /// y, so concurrent dispatchers can never race two batches over shared
  /// memory.  One mutex acquisition per batch (claim) and one per
  /// retirement (release); the submit path never touches it.
  class InflightTracker {
   public:
    /// Remove from `batch` every request whose operands collide with a
    /// registered batch and return them (order preserved); register the
    /// operands of the requests that remain.
    std::vector<Request> claim(std::vector<Request>& batch)
        SPMV_EXCLUDES(mutex_);
    /// Drop `batch`'s operands from the in-flight sets.
    void release(const std::vector<Request>& batch) SPMV_EXCLUDES(mutex_);

   private:
    Mutex mutex_;
    FlatCountMap<const double*> xs_ SPMV_GUARDED_BY(mutex_);
    FlatCountMap<const double*> ys_ SPMV_GUARDED_BY(mutex_);
  };

  /// Shared body of all four submit() overloads.  `token_out` non-null
  /// allocates and returns a cancellation token for the request.
  std::future<void> do_submit(MatrixRegistry::EntryPtr entry,
                              std::span<const double> x, std::span<double> y,
                              const SubmitOptions& options,
                              CancelToken* token_out);
  /// Resolve `req` if it is past its deadline or cancel-requested at
  /// `now` (kDeadlineExceeded / kCancelled) and report that it was.
  /// Every pre-dispatch sweep — pull, linger, batch finalization,
  /// shutdown — funnels through this, so a dead request never reaches
  /// Executor::multiply_batch and resolves exactly once.  With
  /// `claim_token` the check is final: the cancel token is CAS-claimed,
  /// so when this returns false the request is committed to resolve with
  /// its execution (or teardown) outcome and cancel() returns false from
  /// here on.  Peeking sweeps pass false, keeping parked requests
  /// cancellable.
  bool resolve_if_dead(Request& req, std::chrono::steady_clock::time_point now,
                       bool claim_token);
  void dispatcher_loop(unsigned tid);
  /// Push `req` onto the home shard, overflowing onto siblings when the
  /// home ring is full; `req` is untouched when every ring is full.
  bool try_push_any(std::size_t home, Request& req);
  /// Pop from `shard`'s ring into `pending` until the ring is dry or
  /// `pending` reaches `target`; counts steals when the shard is not the
  /// dispatcher's home.  Returns how many requests were popped.
  std::size_t pull_shard(std::size_t shard, std::size_t home,
                         std::deque<Request>& pending, std::size_t target);
  /// Top `pending` up to at least max_batch requests: home shard first,
  /// then steal from siblings — stealing keeps batches wide instead of
  /// fragmenting same-matrix traffic across shards.
  std::size_t fill_pending(std::size_t home, std::deque<Request>& pending);
  /// Build a dispatchable batch from `pending`: pick the head request's
  /// entry, gather up to max_batch same-entry requests without intra-batch
  /// operand conflicts, linger for stragglers when the batch is the only
  /// local work and its matrix is armed (the per-matrix miss count in
  /// MatrixServeStats::linger_misses, reset by concurrent traffic), then
  /// claim the batch's operands in the in-flight tracker (conflicting
  /// requests go back to `pending`, deferred until a retirement).  Tries
  /// later entries when the head's are all deferred.
  /// Empty result means everything in `pending` is conflict-deferred.
  std::vector<Request> build_batch(std::size_t home,
                                   std::deque<Request>& pending);
  /// Linger: give non-empty `batch` time to fill before paying a dispatch
  /// for it.  Only called while `pending` is empty (lingering while other
  /// entries wait would delay them without widening this batch any
  /// faster) and max_linger is nonzero.
  void linger_fill(const MatrixRegistry::Entry* key, std::size_t home,
                   std::vector<Request>& batch, std::deque<Request>& pending);
  void execute_batch(std::vector<Request> batch);
  static void fail_request(Request& req, ServeErrorCode code,
                           const char* what);
  /// Would `r` race `batch` inside one dispatch?  The engine's batch path
  /// runs right-hand sides unordered, so a duplicated y or an x aliasing
  /// a batch member's y must split into a later dispatch.
  static bool conflicts_with(const std::vector<Request>& batch,
                             const Request& r);
  /// Home shard of the calling thread (stable per thread).
  [[nodiscard]] std::size_t home_shard() const;
  [[nodiscard]] bool any_shard_nonempty() const;

  /// Per-dispatcher liveness counter, bumped once per loop iteration and
  /// read by the watchdog probe.  Padded: heartbeats are written hot by
  /// their dispatcher and must not false-share with a neighbor's.
  struct alignas(kCacheLineSize) Heartbeat {
    std::atomic<std::uint64_t> beats{0};
  };

  MatrixRegistry& registry_;
  SchedulerConfig config_;
  ServeStats stats_;
  DataPlaneStats plane_;
  OverloadDetector detector_;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<Heartbeat>> heartbeats_;
  EventCount work_ec_;   ///< dispatchers sleep here; submit/retire notify
  EventCount space_ec_;  ///< kBlock submitters sleep here; pops notify
  InflightTracker inflight_;

  std::atomic<bool> paused_{false};
  /// No new submits; dispatchers wind down.
  std::atomic<bool> stopping_{false};
  /// stopping_ without draining.
  std::atomic<bool> discard_{false};
  /// Dekker counterpart to stopping_: submits announce themselves before
  /// checking stopping_, so shutdown() can wait out racing pushes and
  /// then sweep the rings exactly once (see submit/shutdown).
  std::atomic<unsigned> submits_in_flight_{0};
  /// Bumped when a batch retires its in-flight operands: dispatchers
  /// whose whole pending set is conflict-deferred sleep until this
  /// changes (work_ec_ delivers the wake; the counter closes the
  /// check-then-sleep race).
  std::atomic<std::uint64_t> retire_count_{0};

  Mutex join_mutex_;
  std::vector<std::thread> dispatchers_ SPMV_GUARDED_BY(join_mutex_);
  bool joined_ SPMV_GUARDED_BY(join_mutex_) = false;

  /// Declared last: destroyed first, so the probe thread (which reads
  /// heartbeats_ and the shards) is joined before anything it touches.
  std::unique_ptr<HealthWatchdog> watchdog_;
};

}  // namespace spmv::serve
