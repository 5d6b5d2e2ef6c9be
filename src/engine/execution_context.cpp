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
                                    const std::function<void(unsigned)>& task) {
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
  if (!pool_ || pool_->size() < threads) {
    pool_.reset();  // join the narrower pool before spawning the wider one
    pool_ = std::make_unique<ThreadPool>(threads, config_.pin_threads);
    pools_spawned_.add();
  }
  pool_->run(threads, task);
  dispatches_.add();
}

}  // namespace spmv::engine
