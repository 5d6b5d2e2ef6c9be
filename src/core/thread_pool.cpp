#include "core/thread_pool.h"

#include <chrono>
#include <stdexcept>

#include "util/cpu.h"

namespace spmv {

namespace {

thread_local bool t_on_pool_worker = false;

/// How long a waiter burns before parking on the condvar.  Long enough to
/// bridge the gap between back-to-back multiplies (the engine re-dispatches
/// within a few µs on a warm pool), short enough that an idle pool goes
/// quiet almost immediately.
constexpr std::chrono::microseconds kSpinBudget{50};

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Spin until `pred()` holds, with bounded exponential backoff: short
/// pause bursts that double up to 64, then sched yields (so an
/// oversubscribed host hands the CPU to whoever we are waiting for).
/// Returns false once ~kSpinBudget elapses with pred still false.
template <typename Pred>
bool spin_with_backoff(const Pred& pred) {
  const auto start = std::chrono::steady_clock::now();
  unsigned pauses = 1;
  for (;;) {
    for (unsigned i = 0; i < pauses; ++i) cpu_relax();
    if (pred()) return true;
    if (std::chrono::steady_clock::now() - start >= kSpinBudget) {
      return false;
    }
    if (pauses < 64) {
      pauses *= 2;
    } else {
      std::this_thread::yield();
    }
  }
}

/// Marks the calling thread as a pool worker while it runs its tid-0
/// share, so nested dispatches inline exactly as they would on a worker.
class WorkerScope {
 public:
  WorkerScope() : prev_(t_on_pool_worker) { t_on_pool_worker = true; }
  ~WorkerScope() { t_on_pool_worker = prev_; }

 private:
  bool prev_;
};

}  // namespace

ThreadPool::ThreadPool(unsigned threads, bool pin) {
  if (threads == 0) throw std::invalid_argument("ThreadPool: zero threads");
  if (threads > kActiveMask) {
    throw std::invalid_argument("ThreadPool: too many threads");
  }
  parking_ = std::make_unique<Parking[]>(threads);
  // Workers inherit this thread's affinity mask; pinning keeps each one
  // inside it, one CPU per tid in mask order.
  const std::vector<unsigned> allowed = allowed_cpus();
  cpus_ = allowed.empty() ? host_info().logical_cpus
                          : static_cast<unsigned>(allowed.size());
  workers_.reserve(threads - 1);
  for (unsigned tid = 1; tid < threads; ++tid) {
    workers_.emplace_back([this, tid] { worker_loop(tid); });
    if (pin) {
      pin_thread(workers_.back(), allowed.empty()
                                      ? tid % host_info().logical_cpus
                                      : allowed[tid % allowed.size()]);
    }
  }
}

ThreadPool::~ThreadPool() {
  // The empty critical section below orders this store against any worker
  // between "decided to park" and "asleep": either it already waits (the
  // notify wakes it) or its predicate re-check happens-after our unlock,
  // so it sees shutdown_.  seq_cst; spinners read the atomic directly.
  shutdown_.store(true, std::memory_order_seq_cst);
  for (unsigned tid = 1; tid < size(); ++tid) {
    Parking& p = parking_[tid];
    { MutexLock lock(p.mutex); }
    p.cv.notify_one();
  }
  for (auto& w : workers_) w.join();
}

bool ThreadPool::on_worker_thread() { return t_on_pool_worker; }

void ThreadPool::record_error(std::exception_ptr e) {
  MutexLock lock(error_mutex_);
  if (!first_error_) first_error_ = std::move(e);
}

void ThreadPool::run(const std::function<void(unsigned)>& task) {
  run(size(), task);
}

void ThreadPool::run(unsigned active,
                     const std::function<void(unsigned)>& task) {
  if (active > size()) {
    throw std::invalid_argument(
        "ThreadPool::run: active exceeds worker count");
  }
  if (active == 0) return;
  if (active == 1) {
    // The whole dispatch is the caller's share: no barrier at all.
    const WorkerScope scope;
    task(0);
    return;
  }

  // Publish the dispatch: task_ first, then the generation word.  No
  // dispatch is in flight (contract), so nothing reads them yet.
  task_ = &task;
  reset_error();
  // relaxed: published by the dispatch-word store below, whose release
  // half orders it before any worker's acquire of the new word.
  remaining_.store(active - 1, std::memory_order_relaxed);
  // relaxed: only run() writes the word, and run() calls are serialized
  // (contract), so this thread's own last store is what it reads back.
  const std::uint64_t prev = dispatch_word_.load(std::memory_order_relaxed);
  const std::uint64_t next =
      (((prev >> kActiveBits) + 1) << kActiveBits) | active;
  // seq_cst, not just release: the store must be ordered before the
  // parked loads below (Dekker handshake with a worker about to park).
  dispatch_word_.store(next, std::memory_order_seq_cst);
  // Wake exactly the selected workers that parked; bystanders (tid >=
  // active) sleep on, as they take no part in this dispatch.
  for (unsigned tid = 1; tid < active; ++tid) {
    Parking& p = parking_[tid];
    // seq_cst: the other half of that Dekker handshake — either we see
    // the worker's parked store and wake it, or its predicate sees the
    // word.
    if (p.parked.load(std::memory_order_seq_cst)) {
      MutexLock lock(p.mutex);
      p.cv.notify_one();
    }
  }

  // Fork-join with caller participation: tid 0 runs right here while the
  // workers chew tids 1..active-1.
  {
    const WorkerScope scope;
    try {
      task(0);
    } catch (...) {
      record_error(std::current_exception());
    }
  }

  // Wait for the barrier.  This touches no lock at all when the workers
  // finish within the budget — the common case for a warm pool running
  // microsecond SpMV bodies.
  // acquire: pairs with each worker's remaining_ decrement, so reading 0
  // makes every worker's task writes (and error slot) visible here.
  bool done = remaining_.load(std::memory_order_acquire) == 0;
  if (!done && spin_pays(active)) {
    done = spin_with_backoff([&] {
      // acquire: same pairing as the first check above.
      return remaining_.load(std::memory_order_acquire) == 0;
    });
  }
  if (!done) {
    // seq_cst store/load pair: Dekker handshake with the last worker's
    // remaining_ decrement / caller_parked_ load (see worker_loop) — the
    // caller must not park after the wake it is waiting for.
    caller_parked_.store(true, std::memory_order_seq_cst);
    // seq_cst: second half of the handshake above.
    if (remaining_.load(std::memory_order_seq_cst) != 0) {
      MutexLock lock(mutex_);
      // acquire: pairs with the workers' decrements, as above.
      while (remaining_.load(std::memory_order_acquire) != 0) {
        cv_done_.wait(mutex_);
      }
    }
    // relaxed: no worker reads the flag again in this dispatch (the last
    // one already did), and the next dispatch-word store publishes the
    // reset to the workers of the next one.
    caller_parked_.store(false, std::memory_order_relaxed);
  }
  task_ = nullptr;
  // Stealing without error_mutex_ is safe: every worker that wrote it
  // did so before its remaining_ decrement, which we have acquired.
  if (std::exception_ptr e = steal_error()) std::rethrow_exception(e);
}

std::uint64_t ThreadPool::wait_for_dispatch(unsigned tid, std::uint64_t seen,
                                            bool stay_hot) {
  // acquire: pairs with run()'s word store, publishing task_ and the
  // barrier counters of the dispatch it names.
  std::uint64_t w = dispatch_word_.load(std::memory_order_acquire);
  // relaxed: shutdown_ publishes no data; a late sight only delays exit.
  if (w != seen || shutdown_.load(std::memory_order_relaxed)) return w;
  // After executing a task, stay hot for the budget: back-to-back
  // multiplies re-dispatch long before it expires, making the whole
  // round-trip mutex-free.
  if (stay_hot) {
    if (spin_with_backoff([&] {
          // acquire: as the first load above; relaxed shutdown_ likewise.
          w = dispatch_word_.load(std::memory_order_acquire);
          return w != seen || shutdown_.load(std::memory_order_relaxed);
        })) {
      return w;
    }
  }
  {
    Parking& p = parking_[tid];
    MutexLock lock(p.mutex);
    // seq_cst store before the predicate's word load: Dekker handshake
    // with run()'s word store / parked load pair (see there).
    p.parked.store(true, std::memory_order_seq_cst);
    // seq_cst word load in the predicate: same Dekker handshake.  relaxed
    // shutdown_: the destructor's store is ordered by p.mutex (see there).
    // A dispatch that does not select this worker never notifies it, so
    // it sleeps through; one that does finds it here or sees it awake.
    while (dispatch_word_.load(std::memory_order_seq_cst) == seen &&
           !shutdown_.load(std::memory_order_relaxed)) {
      p.cv.wait(p.mutex);
    }
    // relaxed: the flag only gates run()'s notify; a stale true costs one
    // spurious notify, and it is cleared under p.mutex.
    p.parked.store(false, std::memory_order_relaxed);
  }
  // acquire: pairs with run()'s word store, as above.
  return dispatch_word_.load(std::memory_order_acquire);
}

void ThreadPool::worker_loop(unsigned tid) {
  t_on_pool_worker = true;
  std::uint64_t seen = 0;
  bool stay_hot = false;
  for (;;) {
    const std::uint64_t w = wait_for_dispatch(tid, seen, stay_hot);
    // relaxed: shutdown_ publishes no data (see wait_for_dispatch).
    if (shutdown_.load(std::memory_order_relaxed)) return;
    seen = w;
    const unsigned active = static_cast<unsigned>(w & kActiveMask);
    if (tid >= active) {
      // Not part of this dispatch's barrier — and not entitled to read
      // task_ either (the caller may republish it the moment the
      // executing workers finish), so idle cold until next selected.
      stay_hot = false;
      continue;
    }
    // Safe to read task_: this worker is active in the acquired word, and
    // the caller cannot overwrite it until our remaining_ decrement below.
    stay_hot = spin_pays(active);
    try {
      (*task_)(tid);
    } catch (...) {
      record_error(std::current_exception());
    }
    // seq_cst: the release half publishes this task's writes to the
    // caller's acquire of remaining_ == 0; the full order is the Dekker
    // handshake with run()'s caller_parked_ store / remaining_ load.
    if (remaining_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
      // Last one out: wake the caller iff it actually parked.  seq_cst:
      // second half of the same handshake.
      if (caller_parked_.load(std::memory_order_seq_cst)) {
        MutexLock lock(mutex_);
        cv_done_.notify_one();
      }
    }
  }
}

}  // namespace spmv
