#include "serve/scheduler.h"

#include <algorithm>
#include <utility>

#include "core/thread_pool.h"
#include "engine/executor.h"
#include "util/fault_point.h"

namespace spmv::serve {

const char* to_string(ServeErrorCode code) {
  switch (code) {
    case ServeErrorCode::kUnknownMatrix: return "unknown-matrix";
    case ServeErrorCode::kInvalidOperand: return "invalid-operand";
    case ServeErrorCode::kQueueFull: return "queue-full";
    case ServeErrorCode::kShutdown: return "shutdown";
    case ServeErrorCode::kDeadlineExceeded: return "deadline-exceeded";
    case ServeErrorCode::kCancelled: return "cancelled";
  }
  return "?";
}

namespace {

std::future<void> failed_future(ServeErrorCode code, const std::string& what) {
  std::promise<void> p;
  p.set_exception(std::make_exception_ptr(ServeError(code, what)));
  return p.get_future();
}

/// CancelToken state machine: kQueued -> kRequested (client cancel) or
/// kQueued -> kClaimed (dispatcher, at batch finalization).
constexpr std::uint8_t kCancelQueued = 0;
constexpr std::uint8_t kCancelRequested = 1;
constexpr std::uint8_t kCancelClaimed = 2;

constexpr auto kNoDeadline = std::chrono::steady_clock::time_point::max();

/// Consecutive linger windows that ended no wider than they began, after
/// which a matrix stops lingering until its batches widen again (see
/// build_batch).  One miss is not enough: an open-loop client refilling
/// its window in bursts misses now and then, and disarming on the first
/// miss cut bench_serve's serve-open mean batch width at 1 client from 8
/// to 6.1-6.8.
constexpr std::uint32_t kLingerMissLimit = 2;

/// The scheduler whose dispatcher_loop is running on this thread, if
/// any — the self-submit fail-fast guard (a dispatcher blocking on its
/// own full queue would wait for itself to drain it).
thread_local const Scheduler* tl_dispatcher_of = nullptr;

}  // namespace

bool CancelToken::cancel() {
  if (state_ == nullptr) return false;
  std::uint8_t expected = kCancelQueued;
  // relaxed CAS: the token word IS the whole protocol — no payload is
  // published through it, and the request's outcome travels through the
  // promise/future machinery, which synchronizes on its own.  Winning
  // the CAS only means the dispatcher's later claim-CAS will fail.
  return state_->compare_exchange_strong(expected, kCancelRequested,
                                         std::memory_order_relaxed,
                                         std::memory_order_relaxed);
}

Scheduler::Scheduler(MatrixRegistry& registry, SchedulerConfig config)
    : registry_(registry),
      config_(config),
      detector_(config.overload),
      queue_(std::max<std::size_t>(1, config.queue_capacity)) {
  config_.max_batch = std::max<std::size_t>(1, config_.max_batch);
  config_.queue_capacity = std::max<std::size_t>(1, config_.queue_capacity);
  watchdog_ = std::make_unique<HealthWatchdog>(
      [this] {
        HealthProbe probe;
        // relaxed: a liveness counter — any recent value answers "has
        // it moved since the last probe"; no data rides on it.
        probe.heartbeat = heartbeat_.load(std::memory_order_relaxed);
        // A frozen heartbeat only signals a stall when there is work the
        // dispatcher should be making progress on; a paused dispatcher
        // is idle by design (acquire pairs with resume()'s release).
        probe.work_pending = queue_.approx_size() != 0 &&
                             !paused_.load(std::memory_order_acquire);
        return probe;
      },
      config_.watchdog_interval, config_.watchdog_stall_intervals);
  // relaxed: stored before the dispatcher thread exists; thread creation
  // synchronizes-with the thread's start, which publishes this.
  paused_.store(config_.start_paused, std::memory_order_relaxed);
  MutexLock lock(join_mutex_);
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

Scheduler::~Scheduler() { shutdown(Drain::kDrain); }

std::future<void> Scheduler::submit(const std::string& name,
                                    std::span<const double> x,
                                    std::span<double> y) {
  MatrixRegistry::EntryPtr entry = registry_.find(name);
  if (entry == nullptr) {
    stats_.record_unknown_matrix();
    return failed_future(ServeErrorCode::kUnknownMatrix,
                         "serve: no matrix registered as '" + name + "'");
  }
  return do_submit(std::move(entry), x, y, SubmitOptions{}, nullptr);
}

std::future<void> Scheduler::submit(MatrixRegistry::EntryPtr entry,
                                    std::span<const double> x,
                                    std::span<double> y) {
  return do_submit(std::move(entry), x, y, SubmitOptions{}, nullptr);
}

SubmitHandle Scheduler::submit(const std::string& name,
                               std::span<const double> x, std::span<double> y,
                               const SubmitOptions& options) {
  MatrixRegistry::EntryPtr entry = registry_.find(name);
  if (entry == nullptr) {
    stats_.record_unknown_matrix();
    SubmitHandle handle{
        failed_future(ServeErrorCode::kUnknownMatrix,
                      "serve: no matrix registered as '" + name + "'"),
        CancelToken{}};
    // The future is already resolved; the completion contract ("invoked
    // exactly once, after resolution") holds for door failures too.
    if (options.on_complete) options.on_complete();
    return handle;
  }
  return submit(std::move(entry), x, y, options);
}

SubmitHandle Scheduler::submit(MatrixRegistry::EntryPtr entry,
                               std::span<const double> x, std::span<double> y,
                               const SubmitOptions& options) {
  SubmitHandle handle;
  handle.future = do_submit(std::move(entry), x, y, options, &handle.token);
  return handle;
}

std::future<void> Scheduler::do_submit(MatrixRegistry::EntryPtr entry,
                                       std::span<const double> x,
                                       std::span<double> y,
                                       const SubmitOptions& options,
                                       CancelToken* token_out) {
  // Fail fast instead of deadlocking: a kBlock wait on an engine pool
  // worker parks the very thread the dispatcher needs to drain the queue.
  // Unconditional (not assert-only) — the deadlock it prevents would
  // otherwise ship in release builds and only fire under load.
  if (ThreadPool::on_worker_thread()) {
    throw std::logic_error(
        "serve: Scheduler::submit called from an engine pool worker "
        "thread; submit must be called from client threads (a blocked "
        "submit here would deadlock the pool the dispatcher runs on)");
  }
  // Same shape, one layer up: a dispatcher submitting to its own
  // scheduler can park on a full queue that only it can drain.
  if (tl_dispatcher_of == this) {
    throw std::logic_error(
        "serve: Scheduler::submit called from this scheduler's own "
        "dispatcher thread; a blocked submit here would deadlock the "
        "dispatcher on the queue it is responsible for draining");
  }
  if (entry == nullptr) {
    std::future<void> failed = failed_future(ServeErrorCode::kUnknownMatrix,
                                             "serve: null registry entry");
    if (options.on_complete) options.on_complete();
    return failed;
  }
  std::shared_ptr<MatrixServeStats> cell = stats_.cell(entry->name);
  cell->requests_submitted.fetch_add(1, std::memory_order_relaxed);
  try {
    engine::validate_multiply_operands(entry->plan, x, y);
  } catch (const std::invalid_argument& e) {
    cell->requests_rejected.fetch_add(1, std::memory_order_relaxed);
    std::future<void> failed =
        failed_future(ServeErrorCode::kInvalidOperand, e.what());
    if (options.on_complete) options.on_complete();
    return failed;
  }

  Request req;
  req.entry = std::move(entry);
  req.x = x.data();
  req.y = y.data();
  // relaxed: a heuristic hint for the linger gate (see build_batch); a
  // stale read costs at most one window or one skipped window.
  req.queued_behind =
      cell->batches_executing.load(std::memory_order_relaxed) != 0;
  req.stats = std::move(cell);
  req.deadline = options.deadline;
  req.priority = options.priority;
  req.on_complete = options.on_complete;
  if (token_out != nullptr) {
    req.cancel = std::make_shared<std::atomic<std::uint8_t>>(kCancelQueued);
    *token_out = CancelToken(req.cancel);
  }
  // Stamped before any backpressure wait: queue latency is the client's
  // submit → dispatch-start time, including time parked on a full queue
  // (a histogram that hid backpressure would read healthy exactly when
  // saturation is throttling clients).
  req.enqueued = std::chrono::steady_clock::now();
  std::future<void> fut = req.promise.get_future();

  const auto reject = [&req](ServeErrorCode code, const char* what) {
    if (req.cancel != nullptr) {
      // Rejected at the door: the outcome is decided, so cancel() must
      // report false from here on instead of promising a kCancelled
      // resolution that never comes.  relaxed store: the caller's thread
      // is still inside submit(), so nobody can race this token yet.
      req.cancel->store(kCancelClaimed, std::memory_order_relaxed);
    }
    req.stats->requests_rejected.fetch_add(1, std::memory_order_relaxed);
    req.promise.set_exception(
        std::make_exception_ptr(ServeError(code, what)));
    if (req.on_complete) req.on_complete();
  };

  // Admission control.  Feed the overload detector a pre-push depth
  // sample on every policy (health() stays meaningful for kBlock/kReject
  // monitoring); only kShed acts on it.
  const HealthState state =
      detector_.sample(queue_.approx_size(), queue_.capacity());
  // An already-expired request never executes, under any policy: fail at
  // the door instead of making the dispatcher sweep it later.
  if (req.deadline != kNoDeadline && req.enqueued >= req.deadline) {
    plane_.requests_expired.fetch_add(1, std::memory_order_relaxed);
    reject(ServeErrorCode::kDeadlineExceeded,
           "serve: request deadline already passed at submit");
    return fut;
  }
  if (config_.overflow == SchedulerConfig::OverflowPolicy::kShed &&
      state == HealthState::kShedding) {
    if (req.priority <= 0) {
      plane_.requests_shed.fetch_add(1, std::memory_order_relaxed);
      reject(ServeErrorCode::kQueueFull,
             "serve: request shed (scheduler overloaded)");
      return fut;
    }
    // High-priority requests ride through shedding — unless their own
    // deadline is already hopeless given the observed queue latency.
    const auto predicted =
        req.enqueued +
        std::chrono::microseconds(detector_.ewma_latency_us());
    if (req.deadline != kNoDeadline && predicted >= req.deadline) {
      plane_.requests_shed.fetch_add(1, std::memory_order_relaxed);
      reject(ServeErrorCode::kDeadlineExceeded,
             "serve: request shed (deadline unreachable under overload)");
      return fut;
    }
  }

  // seq_cst RMW: the submit side of the Dekker handshake with shutdown().
  // The announcement must be globally ordered before the stopping_ check
  // below: either that check sees stopping_ (we fail with kShutdown and
  // never push), or our increment precedes shutdown()'s counter read, so
  // its final ring sweep waits for our push.  No push can slip past both.
  submits_in_flight_.fetch_add(1, std::memory_order_seq_cst);
  bool enqueued = false;
  // Simulated capacity exhaustion: the first push attempt reports full,
  // exercising the reject/shed path (or one backpressure round under
  // kBlock — only the first attempt, so a kBlock submitter still makes
  // progress through real pushes and cannot park forever).
  bool forced_full = SPMV_FAULT_POINT("scheduler.queue_full");
  // seq_cst: see the handshake above — must be ordered after the
  // announcement, or a concurrent shutdown() could miss this push.
  if (stopping_.load(std::memory_order_seq_cst)) {
    reject(ServeErrorCode::kShutdown, "serve: scheduler is shut down");
  } else {
    for (;;) {
      if (!forced_full && queue_.try_push(std::move(req))) {
        enqueued = true;
        break;
      }
      forced_full = false;
      if (config_.overflow != SchedulerConfig::OverflowPolicy::kBlock) {
        if (config_.overflow == SchedulerConfig::OverflowPolicy::kShed) {
          plane_.requests_shed.fetch_add(1, std::memory_order_relaxed);
        }
        reject(ServeErrorCode::kQueueFull, "serve: request queue full");
        break;
      }
      // Backpressure: park until a dispatch frees a ring slot.  The
      // prepare/re-check/commit dance closes the race against a pop (or a
      // shutdown) that lands between our failed push and the sleep.
      const std::uint64_t ticket = space_ec_.prepare_wait();
      // seq_cst: ordered after prepare_wait's announcement so a
      // concurrent shutdown() either wakes us or is seen here (same
      // handshake shape as the stopping_ check above).
      if (stopping_.load(std::memory_order_seq_cst)) {
        space_ec_.cancel_wait();
        reject(ServeErrorCode::kShutdown, "serve: scheduler is shut down");
        break;
      }
      if (queue_.try_push(std::move(req))) {
        space_ec_.cancel_wait();
        enqueued = true;
        break;
      }
      space_ec_.commit_wait(ticket);
    }
  }
  if (enqueued) {
    plane_.queue_depth.record(queue_.approx_size());
    // Wake the dispatcher if it sleeps; when it is busy this is a single
    // atomic load.
    work_ec_.notify_one();
  }
  // seq_cst RMW: closes the Dekker window — shutdown()'s spin-wait
  // acquire-reads this counter reaching zero, and the RMW release
  // sequence makes every push before a decrement visible to its sweep.
  submits_in_flight_.fetch_sub(1, std::memory_order_seq_cst);
  return fut;
}

void Scheduler::resume() {
  // release: pairs with the acquire load in the dispatcher pause gate (no
  // data rides on it, but the pairing keeps the flag's role explicit).
  paused_.store(false, std::memory_order_release);
  work_ec_.notify_all();
}

bool Scheduler::conflicts_with(const std::vector<Request>& batch,
                               const Request& r) {
  for (const Request& b : batch) {
    if (r.y == b.y || r.y == b.x || r.x == b.y) return true;
  }
  return false;
}

bool Scheduler::resolve_if_dead(Request& req,
                                std::chrono::steady_clock::time_point now,
                                bool claim_token) {
  const bool expired = req.deadline != kNoDeadline && now >= req.deadline;
  bool cancelled = false;
  if (req.cancel != nullptr) {
    if (claim_token || expired) {
      // Terminal either way — a dispatch claim, or an expiry about to
      // resolve the future — so the token must close: a cancel() that
      // arrives after this point has to report false, never "true" for
      // a request that resolved kDeadlineExceeded.
      std::uint8_t expected = kCancelQueued;
      // relaxed CAS: the token word is the whole protocol (see
      // CancelToken::cancel) — no payload rides on it; the promise
      // machinery synchronizes the outcome.  Success closes the
      // cancellation window for good; failure means a concurrent
      // cancel() already owns the request — cancellation wins even when
      // the deadline also passed.
      cancelled = !req.cancel->compare_exchange_strong(
          expected, kCancelClaimed, std::memory_order_relaxed,
          std::memory_order_relaxed);
    } else {
      // relaxed peek: a cancel we miss here is caught by the claiming
      // call at batch finalization, the last gate before dispatch.
      cancelled =
          req.cancel->load(std::memory_order_relaxed) == kCancelRequested;
    }
  }
  if (cancelled) {
    plane_.requests_cancelled.fetch_add(1, std::memory_order_relaxed);
    fail_request(req, ServeErrorCode::kCancelled,
                 "serve: request cancelled before dispatch");
    return true;
  }
  if (expired) {
    plane_.requests_expired.fetch_add(1, std::memory_order_relaxed);
    fail_request(req, ServeErrorCode::kDeadlineExceeded,
                 "serve: request deadline exceeded before dispatch");
    return true;
  }
  return false;
}

void Scheduler::fill_pending(std::deque<Request>& pending) {
  bool popped = false;
  Request req;
  while (pending.size() < config_.max_batch && queue_.try_pop(req)) {
    pending.push_back(std::move(req));
    popped = true;
  }
  if (popped) space_ec_.notify_all();  // ring slots freed
}

std::vector<Scheduler::Request> Scheduler::build_batch(
    std::deque<Request>& pending) {
  std::vector<Request> batch;
  batch.reserve(config_.max_batch);
  // Sweep dead requests before keying a batch: an expired or cancelled
  // request must never enter one, and a request split off by a conflict
  // may have died while it waited here.
  {
    const auto now = std::chrono::steady_clock::now();
    for (auto it = pending.begin(); it != pending.end();) {
      if (resolve_if_dead(*it, now, /*claim_token=*/false)) {
        it = pending.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (pending.empty()) return batch;
  // Key the batch on the highest-priority waiter — first among equals,
  // so default-priority traffic keeps strict arrival order.
  const auto key_it = std::max_element(
      pending.begin(), pending.end(), [](const Request& a, const Request& b) {
        return a.priority < b.priority;
      });
  const MatrixRegistry::Entry* key = key_it->entry.get();
  // Extract up to max_batch same-entry requests with no intra-batch
  // operand conflicts, in arrival order.  The first key-entry request
  // always extracts (no conflicts against an empty batch).
  for (auto it = pending.begin();
       it != pending.end() && batch.size() < config_.max_batch;) {
    if (it->entry.get() == key && !conflicts_with(batch, *it)) {
      batch.push_back(std::move(*it));
      it = pending.erase(it);
    } else {
      ++it;
    }
  }
  // Linger only while this batch is the sole local work: lingering with
  // other requests waiting would delay them without widening this batch
  // any faster (their execution time is itself a natural accumulation
  // window for ours).  Drain mode dispatches immediately.
  //
  // And only while lingering pays for this matrix.  A window that ends
  // no wider than it began (timed out, or cut short by a stall) is a
  // miss; after kLingerMissLimit misses in a row the matrix dispatches
  // at once, so a lone closed-loop client stops paying the window on
  // every call.  Concurrent clients re-arm the matrix: a window that
  // widens its batch, a batch that formed 2+ wide on its own, or a head
  // request submitted while a batch of this matrix was executing.  The
  // last is what two closed-loop clients produce once disarmed — each
  // one's request queues behind the other's 1-wide batch — and what a
  // lone one never does, as it resubmits only after its result.
  // relaxed (every linger_misses access): a heuristic gate touched only
  // by the dispatcher thread; no data rides on it.
  std::atomic<std::uint32_t>& misses = batch.front().stats->linger_misses;
  if (batch.size() >= 2 || batch.front().queued_behind) {
    misses.store(0, std::memory_order_relaxed);
  }
  // acquire: pairs with shutdown()'s store; a stale false only costs
  // one linger window — the eventcount handshake inside linger_fill
  // still guarantees the shutdown notify is not lost.
  if (pending.empty() && batch.size() < config_.max_batch &&
      config_.max_linger.count() != 0 &&
      misses.load(std::memory_order_relaxed) < kLingerMissLimit &&
      !stopping_.load(std::memory_order_acquire)) {
    const std::size_t width = batch.size();
    plane_.lingers.fetch_add(1, std::memory_order_relaxed);
    linger_fill(key, batch, pending);
    if (batch.size() > width) {
      plane_.lingers_widened.fetch_add(1, std::memory_order_relaxed);
      misses.store(0, std::memory_order_relaxed);
    } else {
      misses.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Batch finalization: the last, *claiming* dead-sweep.  Members can
  // expire or be cancelled during the linger window; survivors have
  // their cancel token CAS-claimed, so past this gate cancel() returns
  // false and the request runs to completion.
  const auto now = std::chrono::steady_clock::now();
  for (auto it = batch.begin(); it != batch.end();) {
    if (resolve_if_dead(*it, now, /*claim_token=*/true)) {
      it = batch.erase(it);
    } else {
      ++it;
    }
  }
  return batch;
}

void Scheduler::linger_fill(const MatrixRegistry::Entry* key,
                            std::vector<Request>& batch,
                            std::deque<Request>& pending) {
  // Deadline anchored to the oldest request's enqueue time, so a request
  // never waits more than max_linger total no matter how its batch forms
  // — and capped by the earliest member request-deadline, so lingering
  // never expires work it was trying to widen.
  auto deadline = batch.front().enqueued + config_.max_linger;
  for (const Request& r : batch) {
    deadline = std::min(deadline, r.deadline);
  }
  // acquire: as in build_batch — shutdown wake-up is handled by the
  // eventcount handshake; this check just exits promptly.
  while (batch.size() < config_.max_batch && pending.empty() &&
         !stopping_.load(std::memory_order_acquire)) {
    // Pull fresh arrivals straight into the batch; anything foreign (an
    // other entry, or an intra-batch conflict) parks in pending.
    bool grew = false;
    bool freed = false;
    Request req;
    while (batch.size() < config_.max_batch && queue_.try_pop(req)) {
      freed = true;
      if (resolve_if_dead(req, std::chrono::steady_clock::now(),
                          /*claim_token=*/false)) {
        continue;  // resolved; its ring slot is freed either way
      }
      if (req.entry.get() == key && !conflicts_with(batch, req)) {
        batch.push_back(std::move(req));
        grew = true;
      } else {
        pending.push_back(std::move(req));
      }
    }
    if (freed) space_ec_.notify_all();  // ring slots freed
    // Stall detection: an arrival sweep that brought only foreign work
    // means every client of THIS entry is already queued or blocked on a
    // future we hold — no amount of further lingering can widen the
    // batch, so dispatch (the loop condition sees pending non-empty).
    // Wakes without any arrival keep lingering.
    if (grew || !pending.empty()) continue;
    const std::uint64_t ticket = work_ec_.prepare_wait();
    // seq_cst: the waiter side of the eventcount handshake — ordered
    // after prepare_wait so a push or shutdown notify between our sweep
    // above and the sleep below is either seen here or wakes us.
    if (stopping_.load(std::memory_order_seq_cst) ||
        queue_.approx_size() != 0) {
      work_ec_.cancel_wait();
      continue;
    }
    plane_.dispatcher_sleeps.fetch_add(1, std::memory_order_relaxed);
    if (work_ec_.commit_wait_until(ticket, deadline) ==
        std::cv_status::timeout) {
      break;
    }
  }
}

void Scheduler::fail_request(Request& req, ServeErrorCode code,
                             const char* what) {
  req.stats->requests_failed.fetch_add(1, std::memory_order_relaxed);
  req.promise.set_exception(std::make_exception_ptr(ServeError(code, what)));
  if (req.on_complete) req.on_complete();
}

void Scheduler::execute_batch(std::vector<Request> batch) {
  MatrixServeStats& stats = *batch.front().stats;
  // Executing from here until just before the first promise resolves, so
  // a closed-loop client never sees its own batch here.  relaxed: the
  // linger gate's heuristic hint (see do_submit).
  stats.batches_executing.fetch_add(1, std::memory_order_relaxed);
  // Simulated slow dispatch: injected latency (and an optional handler
  // running ON the dispatcher thread — how the self-submit fail-fast
  // guard is exercised) before the batch timer starts.
  SPMV_FAULT_DELAY("scheduler.slow_dispatch");
  const auto start = std::chrono::steady_clock::now();
  std::vector<const double*> xs;
  std::vector<double*> ys;
  xs.reserve(batch.size());
  ys.reserve(batch.size());
  for (const Request& r : batch) {
    xs.push_back(r.x);
    ys.push_back(r.y);
    const auto waited = start - r.enqueued;
    r.stats->queue_latency.record_ns(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(waited)
            .count()));
    // Feed the observed queue latency into the overload detector's EWMA
    // (the deadline-aware shed predictor under kShed).
    detector_.record_latency(
        std::chrono::duration_cast<std::chrono::microseconds>(waited));
  }
  plane_.batch_width.record(batch.size());
  const MatrixRegistry::Entry& entry = *batch.front().entry;
  std::exception_ptr err;
  try {
    engine::Executor exec(entry.plan, entry.scratch);
    exec.multiply_batch(xs, ys);
  } catch (...) {
    err = std::current_exception();
  }
  // relaxed: as the increment above.
  stats.batches_executing.fetch_sub(1, std::memory_order_relaxed);
  if (err == nullptr) {
    const auto end = std::chrono::steady_clock::now();
    stats.record_batch(batch.size());
    stats.dispatch_latency.record_ns(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count()));
    for (Request& r : batch) {
      // Count before resolving: a client that waits on its future and then
      // snapshots stats must see its own completion.
      r.stats->requests_completed.fetch_add(1, std::memory_order_relaxed);
      r.promise.set_value();
      if (r.on_complete) r.on_complete();
    }
  } else {
    for (Request& r : batch) {
      r.stats->requests_failed.fetch_add(1, std::memory_order_relaxed);
      r.promise.set_exception(err);
      if (r.on_complete) r.on_complete();
    }
  }
}

void Scheduler::dispatcher_loop() {
  // The self-submit fail-fast guard keys on this (see do_submit).
  tl_dispatcher_of = this;
  // Requests popped but not yet dispatched: arrivals beyond one batch,
  // requests of other entries, and requests split off by a conflict.
  std::deque<Request> pending;
  for (;;) {
    // relaxed: a liveness counter for the watchdog — "has it moved since
    // the last probe" needs no ordering with the work it witnesses.
    heartbeat_.fetch_add(1, std::memory_order_relaxed);
    // acquire: makes discard_'s relaxed store visible once stopping_
    // reads true (discard_ is stored before stopping_'s release).
    const bool stopping = stopping_.load(std::memory_order_acquire);
    if (stopping && discard_.load(std::memory_order_relaxed)) {
      // relaxed ok above: ordered by the acquire on stopping_.
      const auto now = std::chrono::steady_clock::now();
      for (Request& r : pending) {
        // Dead requests keep their specific verdict even in a discard
        // teardown; everything else resolves kShutdown.  Claiming: this
        // resolution is final, so a racing cancel() must lose.
        if (!resolve_if_dead(r, now, /*claim_token=*/true)) {
          fail_request(r, ServeErrorCode::kShutdown,
                       "serve: scheduler shut down before the request was "
                       "dispatched");
        }
      }
      pending.clear();
      return;  // shutdown() sweeps what's left in the ring
    }
    if (!stopping && paused_.load(std::memory_order_acquire)) {
      // acquire: pairs with resume()'s release store.
      const std::uint64_t ticket = work_ec_.prepare_wait();
      // seq_cst / acquire: re-check after the wait announcement so a
      // resume() or shutdown() between the gate check and here is caught
      // (the eventcount fence pairing makes this race-free).
      if (paused_.load(std::memory_order_acquire) &&
          !stopping_.load(std::memory_order_seq_cst)) {
        plane_.dispatcher_sleeps.fetch_add(1, std::memory_order_relaxed);
        work_ec_.commit_wait(ticket);
      } else {
        work_ec_.cancel_wait();
      }
      continue;
    }
    fill_pending(pending);
    if (pending.empty()) {
      if (stopping) return;  // drained
      const std::uint64_t ticket = work_ec_.prepare_wait();
      // seq_cst: re-check ordered after the wait announcement — a submit
      // whose push landed before its notify saw "no waiters" is caught
      // here; otherwise its notify sees us and wakes (Dekker pairing via
      // the eventcount's fence).
      if (stopping_.load(std::memory_order_seq_cst) ||
          queue_.approx_size() != 0) {
        work_ec_.cancel_wait();
        continue;
      }
      plane_.dispatcher_sleeps.fetch_add(1, std::memory_order_relaxed);
      work_ec_.commit_wait(ticket);
      continue;
    }
    std::vector<Request> batch = build_batch(pending);
    if (!batch.empty()) execute_batch(std::move(batch));
  }
}

void Scheduler::shutdown(Drain mode) {
  if (mode == Drain::kDiscard) {
    // relaxed: published by the release half of the stopping_ store below
    // — any thread that acquires stopping_ == true also sees discard_.
    discard_.store(true, std::memory_order_relaxed);
  }
  // seq_cst: the shutdown side of the Dekker handshake with submit() —
  // globally ordered against each submit's announce-then-check, so every
  // submit either observes this store (and fails with kShutdown, pushing
  // nothing) or its announcement is visible to the spin-wait below.
  stopping_.store(true, std::memory_order_seq_cst);
  work_ec_.notify_all();
  space_ec_.notify_all();
  // Wait out racing submits: once the counter reads zero, every announced
  // submit has finished, and the RMW release sequence on the counter makes
  // each one's push visible to the sweep below.  Blocked kBlock submitters
  // were woken above and fail out through their stopping_ re-check.
  // seq_cst: the read side of the handshake described at the store above.
  while (submits_in_flight_.load(std::memory_order_seq_cst) != 0) {
    std::this_thread::yield();
  }
  std::thread to_join;
  {
    MutexLock lock(join_mutex_);
    to_join.swap(dispatcher_);
  }
  if (to_join.joinable()) to_join.join();
  // Final sweep: requests whose push raced the dispatcher's exit (and, in
  // discard mode, everything the dispatcher never pulled).  The
  // dispatcher is joined, so this runs single-threaded and keeps one
  // batch executing at a time: kDrain executes each request inline,
  // kDiscard fails them.
  // relaxed: the dispatcher is joined; nothing concurrent remains.
  const bool discard =
      mode == Drain::kDiscard || discard_.load(std::memory_order_relaxed);
  Request req;
  while (queue_.try_pop(req)) {
    // Expired/cancelled requests resolve with their specific verdict in
    // BOTH modes: kDrain must not execute work past its deadline, and
    // kDiscard owes the caller the more precise error it already earned.
    // Claiming: whatever happens next (inline execution or kShutdown) is
    // final, so a racing cancel() must lose.
    if (resolve_if_dead(req, std::chrono::steady_clock::now(),
                        /*claim_token=*/true)) {
      continue;
    }
    if (discard) {
      fail_request(req, ServeErrorCode::kShutdown,
                   "serve: scheduler shut down before the request was "
                   "dispatched");
    } else {
      std::vector<Request> one;
      one.push_back(std::move(req));
      execute_batch(std::move(one));
    }
  }
  // The plane is quiesced; stop probing it.
  watchdog_->stop();
}

ServeStatsSnapshot Scheduler::stats() const {
  ServeStatsSnapshot out = stats_.snapshot();
  out.data_plane.dispatcher_sleeps =
      plane_.dispatcher_sleeps.load(std::memory_order_relaxed);
  out.data_plane.requests_shed =
      plane_.requests_shed.load(std::memory_order_relaxed);
  out.data_plane.requests_expired =
      plane_.requests_expired.load(std::memory_order_relaxed);
  out.data_plane.requests_cancelled =
      plane_.requests_cancelled.load(std::memory_order_relaxed);
  out.data_plane.lingers = plane_.lingers.load(std::memory_order_relaxed);
  out.data_plane.lingers_widened =
      plane_.lingers_widened.load(std::memory_order_relaxed);
  out.data_plane.health_state = detector_.state();
  out.data_plane.overload_transitions = detector_.transitions();
  out.data_plane.ewma_queue_latency_us = detector_.ewma_latency_us();
  out.data_plane.stalled_dispatchers = watchdog_->stalled_dispatchers();
  out.data_plane.stall_events = watchdog_->stall_events();
#if defined(SPMV_FAULT_INJECTION)
  out.data_plane.faults_fired = FaultInjector::instance().total_fired();
#endif
  out.data_plane.batch_width = plane_.batch_width.snapshot();
  out.data_plane.queue_depth = plane_.queue_depth.snapshot();
  return out;
}

}  // namespace spmv::serve
