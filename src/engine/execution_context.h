// Shared parallel execution context for every SpMV variant (paper §4.3).
//
// The paper's library keeps one pinned Pthreads pool alive across the whole
// tuning-and-multiply lifetime; re-spawning threads per planned matrix (as
// each variant here once did privately) both wastes startup time and breaks
// the process-affinity story — two pools pinned to the same CPUs fight each
// other.  ExecutionContext centralizes that ownership: one lazily grown,
// optionally pinned ThreadPool that all plans borrow for NUMA first-touch
// encoding and for every multiply, with concurrent dispatches serialized so
// multiply() is safe from any number of caller threads.  Every dispatch
// goes through the pool's one barrier (core/thread_pool.h): the caller
// runs t = 0 and spins briefly for the workers.
//
// Affinity has one owner: ExecutionConfig::pin_threads, applied when the
// pool is created (and when it is regrown).  No plan and no dispatch can
// change it, so every plan family on a context runs on the same workers
// under the same policy.
//
// Most code uses the process-wide ExecutionContext::global(); tests and
// embedders that need isolation construct their own and pass it through
// TuningOptions::context (or the variant constructors).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "core/thread_pool.h"
#include "util/counter.h"
#include "util/thread_annotations.h"

namespace spmv::engine {

struct ExecutionConfig {
  /// Pin worker i to the (i mod n)-th of the n CPUs the creating thread
  /// may run on (process affinity, Table 2) when the pool is created; see
  /// ThreadPool.  The caller's thread, which runs t = 0 of every
  /// dispatch, keeps its own affinity.
  bool pin_threads = true;
};

class ExecutionContext {
 public:
  explicit ExecutionContext(ExecutionConfig config = {});

  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  ~ExecutionContext();

  /// The process-wide context that plans use unless told otherwise.
  static ExecutionContext& global();

  /// Run `task(t)` for every t in [0, threads) and wait for completion.
  ///
  ///  * threads <= 1 runs inline on the caller — serial multiplies never
  ///    touch the pool or its dispatch lock.
  ///  * The worker pool is created on first parallel use and grown (never
  ///    shrunk) when a wider dispatch arrives; existing plans keep working.
  ///    Its workers are pinned iff config().pin_threads.
  ///  * Concurrent callers serialize on an internal mutex, so any number of
  ///    host threads may execute plans simultaneously.
  ///  * The caller runs t = 0 itself and pool workers run the rest (see
  ///    ThreadPool::run); every dispatch shares the pool's one barrier.
  ///  * Called from inside a pool task (nested parallelism), the task
  ///    runs inline serially instead of deadlocking on the dispatch lock.
  void parallel_for(unsigned threads,
                    const std::function<void(unsigned)>& task)
      SPMV_EXCLUDES(dispatch_mutex_);

  /// Current worker count (0 until the first parallel dispatch).
  [[nodiscard]] unsigned capacity() const SPMV_EXCLUDES(dispatch_mutex_);

  /// Completed pool dispatches (inline serial runs are not counted).
  [[nodiscard]] std::uint64_t dispatches() const { return dispatches_; }

  /// Times a worker pool was created or regrown — the pool-sharing tests
  /// assert this stays at 1 while many plans execute.
  [[nodiscard]] std::uint64_t pools_spawned() const { return pools_spawned_; }

  [[nodiscard]] const ExecutionConfig& config() const { return config_; }

 private:
  ExecutionConfig config_;
  /// Guards pool_ (re)creation and serializes dispatches — ThreadPool::run
  /// supports one in-flight dispatch.  Per-call correctness under the
  /// interleaving this allows comes from plans keeping all mutable state in
  /// caller-owned Scratch (see engine/spmv_plan.h).
  mutable Mutex dispatch_mutex_;
  std::unique_ptr<ThreadPool> pool_ SPMV_GUARDED_BY(dispatch_mutex_);
  Counter dispatches_;
  Counter pools_spawned_;
};

/// The context to use: `preferred` when non-null, else the global one.
inline ExecutionContext& context_or_global(ExecutionContext* preferred) {
  return preferred != nullptr ? *preferred : ExecutionContext::global();
}

}  // namespace spmv::engine
