#include "engine/execution_context.h"

namespace spmv::engine {

ExecutionContext::ExecutionContext(ExecutionConfig config)
    : config_(config) {}

ExecutionContext::~ExecutionContext() = default;

ExecutionContext& ExecutionContext::global() {
  static ExecutionContext ctx;
  return ctx;
}

unsigned ExecutionContext::capacity() const {
  MutexLock lock(dispatch_mutex_);
  return pool_ ? pool_->size() : 0;
}

void ExecutionContext::parallel_for(unsigned threads,
                                    const std::function<void(unsigned)>& task,
                                    bool pin) {
  if (threads <= 1) {
    task(0);
    return;
  }
  if (ThreadPool::on_worker_thread()) {
    // Nested dispatch from inside a pool task: the dispatching caller holds
    // the lock while waiting for us, so run the iterations inline.
    for (unsigned t = 0; t < threads; ++t) task(t);
    return;
  }
  MutexLock lock(dispatch_mutex_);
  const bool may_pin = config_.pin_threads && pin;
  if (!pool_ || pool_->size() < threads) {
    pool_.reset();  // join the narrower pool before spawning the wider one
    const bool pin_now = may_pin || pinned_;  // regrow keeps the upgrade
    pool_ = std::make_unique<ThreadPool>(threads, pin_now);
    pinned_ = pin_now;
    pools_spawned_.add();
  } else if (may_pin && !pinned_) {
    // Affinity is an upgrade-only, order-independent policy: the pool ends
    // up pinned iff any pinning plan ever dispatches, no matter which plan
    // spawned the workers first.
    pool_->pin_workers();
    pinned_ = true;
  }
  pool_->run(threads, task);
  dispatches_.add();
}

}  // namespace spmv::engine
