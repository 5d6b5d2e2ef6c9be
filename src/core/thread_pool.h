// Persistent worker pool for parallel SpMV (paper §4.3: Pthreads threading
// with process affinity).
//
// SpMV bodies are microseconds long, so thread creation per call would
// dominate; the pool keeps workers alive across calls and dispatches with
// an *atomic* generation-counter barrier.  Worker i can be pinned to the
// i-th CPU the creating thread may run on (process affinity); NUMA-aware
// planning runs the per-thread encoding *on* the owning worker so
// first-touch places pages locally (memory affinity).
//
// One barrier, fork-join with caller participation: the caller publishes
// the task with one release store of the generation word, executes tid
// 0's share *itself* (so a pool of width n starts only n-1 threads, and
// the caller's CPU does useful work instead of waiting), and spins — with
// bounded exponential backoff: pause → yield → condvar park after ~50 µs
// idle — for the remaining workers.  Workers that just finished a task
// spin the same way for the next generation.  Back-to-back multiplies on
// a warm pool therefore never touch a mutex, and everyone parks after
// the budget, so an idle pool costs nothing.  Each worker parks on its
// own condvar, and a dispatch wakes exactly the workers it selects:
// bystanders of a narrow dispatch on a wide pool stay asleep.  On the
// 4-vCPU KVM Xeon this barrier beat a mutex/condvar park at 2, 4 and 8
// (oversubscribed) threads.
//
// This file is on lint_concurrency.py's lock-free audit list: every
// atomic operation states its memory_order and argues it in an adjacent
// comment.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace spmv {

class ThreadPool {
 public:
  /// A pool of width `threads`: tid 0 is whichever thread calls run(),
  /// so this starts `threads - 1` workers, for tids 1..threads-1.  When
  /// `pin` is set, worker tid is pinned to the (tid mod n)-th of the n
  /// CPUs the constructing thread may run on (allowed_cpus(), so
  /// `taskset` and cpusets are honoured), or to logical CPU tid modulo
  /// the host CPU count where that mask cannot be read.
  explicit ThreadPool(unsigned threads, bool pin = false);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool();

  /// Dispatch width: the workers plus the calling thread.
  [[nodiscard]] unsigned size() const {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Run `task(tid)` for every tid in [0, size()) and wait for all of
  /// them to finish.  Exceptions thrown by tasks propagate (first one
  /// wins) after the barrier completes.
  void run(const std::function<void(unsigned)>& task);

  /// Run `task(tid)` for tid in [0, active) only; the remaining workers
  /// stay out of this dispatch's barrier entirely, so a narrow dispatch on
  /// a wide shared pool completes without waiting for idle workers.
  /// Throws std::invalid_argument when `active` exceeds size() — silently
  /// skipping iterations would drop row partitions.
  /// The caller runs task(0) itself (on_worker_thread() is true inside it,
  /// so nested dispatches inline like they do on workers) and workers run
  /// tids 1..active-1.
  /// Only one run()/run(active, ...) may be in flight at a time — callers
  /// that share a pool must serialize dispatches (ExecutionContext does).
  void run(unsigned active, const std::function<void(unsigned)>& task);

  /// True when called from inside one of *any* ThreadPool's workers, or
  /// from a caller running its tid-0 share.  Used to refuse (or inline)
  /// nested dispatches that would deadlock.
  static bool on_worker_thread();

 private:
  /// One worker's parking place: its own condvar, so run() wakes only
  /// the workers a dispatch selects.
  struct alignas(64) Parking {
    Mutex mutex;
    CondVar cv;
    /// Parked (or about to) on cv: Dekker-style handshake with the
    /// dispatch-word store, so run() locks and notifies only when set.
    std::atomic<bool> parked{false};
  };

  /// Busy-waiting pays only while a dispatch's threads each have a CPU
  /// of their own: `active` threads (the caller runs tid 0) against the
  /// CPUs this pool may use.  Past that, a spinner steals cycles from the
  /// thread it waits for, so both sides park at once instead.
  [[nodiscard]] bool spin_pays(unsigned active) const {
    return active <= cpus_;
  }
  void worker_loop(unsigned tid);
  /// Block worker `tid` until the dispatch word moves past `seen` and
  /// that dispatch selects it (or a spurious wake, or shutdown), and
  /// return the word it read.  With `stay_hot` (this worker just executed
  /// a task of a dispatch that fits the CPUs) it spins for ~kSpinBudget
  /// before parking; otherwise it parks immediately.
  std::uint64_t wait_for_dispatch(unsigned tid, std::uint64_t seen,
                                  bool stay_hot);
  /// Record `e` as the dispatch's error if it is the first one.  Called
  /// from whichever thread's task threw (workers, or the caller).
  void record_error(std::exception_ptr e) SPMV_EXCLUDES(error_mutex_);
  /// Pre-dispatch reset and post-barrier steal of first_error_ WITHOUT
  /// error_mutex_ — the documented lock-free boundary of the barrier.
  /// Safe because run() has exclusive access at both call sites: the
  /// reset happens before the dispatch-word release store (no worker is
  /// executing this dispatch yet), and the steal happens after run()
  /// acquired remaining_ == 0 (every worker's error-slot write, made
  /// under error_mutex_, happened-before its remaining_ decrement).
  void reset_error() SPMV_NO_THREAD_SAFETY_ANALYSIS { first_error_ = nullptr; }
  std::exception_ptr steal_error() SPMV_NO_THREAD_SAFETY_ANALYSIS {
    std::exception_ptr e = first_error_;
    first_error_ = nullptr;
    return e;
  }

  /// workers_[i] runs tid i + 1.
  std::vector<std::thread> workers_;
  /// parking_[tid] for tids 1..size()-1 (slot 0, the caller's, unused).
  std::unique_ptr<Parking[]> parking_;
  /// CPUs the pool may use: allowed_cpus() at construction, or the host
  /// count where that mask cannot be read.
  unsigned cpus_ = 1;

  // One dispatch is described by the generation word (generation in the
  // high bits, the active count in the low kActiveBits) plus task_.  The
  // caller writes task_, then release-stores the word; a worker
  // acquire-loads the word and reads task_ only when it executes part of
  // *that* dispatch — bystanders (tid >= active) never touch it, so the
  // next dispatch may overwrite it as soon as the executing workers have
  // all decremented remaining_.
  static constexpr unsigned kActiveBits = 16;
  static constexpr unsigned kActiveMask = (1u << kActiveBits) - 1;
  std::atomic<std::uint64_t> dispatch_word_{0};
  const std::function<void(unsigned)>* task_ = nullptr;

  /// Workers of the current dispatch that have not finished their task.
  std::atomic<unsigned> remaining_{0};
  std::atomic<bool> shutdown_{false};
  /// Caller parked in cv_done_ (Dekker-style handshake with remaining_:
  /// the last worker only locks/notifies when set).
  std::atomic<bool> caller_parked_{false};

  Mutex mutex_;  ///< the caller's park/wake only — never on the spin path
  CondVar cv_done_;
  Mutex error_mutex_;  ///< taken only when a task throws
  /// Guarded while tasks run; run() resets/steals it lock-free at the
  /// barrier edges (see reset_error/steal_error).
  std::exception_ptr first_error_ SPMV_GUARDED_BY(error_mutex_);
};

}  // namespace spmv
