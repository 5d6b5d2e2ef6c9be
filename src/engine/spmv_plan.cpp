#include "engine/spmv_plan.h"

#include <stdexcept>

#include "engine/execution_context.h"

namespace spmv::engine {

Scratch::~Scratch() = default;

SpmvPlan::~SpmvPlan() = default;

std::uint64_t SpmvPlan::x_elements() const { return cols(); }

std::uint64_t SpmvPlan::y_elements() const { return rows(); }

ExecutionContext& SpmvPlan::context() const {
  return ExecutionContext::global();
}

std::unique_ptr<Scratch> SpmvPlan::make_scratch() const {
  return std::make_unique<Scratch>();
}

void SpmvPlan::execute_batch(std::span<const double* const> xs,
                             std::span<double* const> ys,
                             Scratch* scratch) const {
  for (std::size_t i = 0; i < xs.size(); ++i) {
    execute(xs[i], ys[i], scratch);
  }
}

namespace {

void validate_batch_operands(std::span<const double* const> xs,
                             std::span<double* const> ys) {
  if (xs.size() != ys.size()) {
    throw std::invalid_argument("multiply_batch: batch size mismatch");
  }
  // Bare pointers carry no length, so only null/aliasing are checkable
  // here; the caller guarantees x_elements()/y_elements() valid elements
  // per pointer (see the header contract).  Aliasing is checked across the
  // whole batch, not just pairwise: the single-dispatch batch path runs
  // all right-hand sides with no barrier between them, so a chained batch
  // (xs[j] == ys[i], "use this y as the next x") would race.
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (xs[i] == nullptr || ys[i] == nullptr) {
      throw std::invalid_argument("multiply_batch: null operand in batch");
    }
    for (std::size_t j = 0; j < xs.size(); ++j) {
      if (xs[i] == ys[j]) {
        throw std::invalid_argument(
            "multiply_batch: batch operands alias (xs/ys must be disjoint; "
            "chain dependent multiplies through multiply() instead)");
      }
      if (j < i && ys[i] == ys[j]) {
        throw std::invalid_argument(
            "multiply_batch: duplicate y in batch (two right-hand sides "
            "would accumulate into the same destination concurrently)");
      }
    }
  }
}

}  // namespace

void validate_multiply_operands(const SpmvPlan& plan,
                                std::span<const double> x,
                                std::span<double> y) {
  if (x.size() < plan.x_elements() || y.size() < plan.y_elements()) {
    throw std::invalid_argument("multiply: operand too short");
  }
  if (x.data() == y.data()) {
    throw std::invalid_argument("multiply: x and y must not alias");
  }
}

// A call that throws frees its scratch instead of returning it: the cache
// only re-warms.
void SpmvPlan::multiply(std::span<const double> x,
                        std::span<double> y) const {
  validate_multiply_operands(*this, x, y);
  std::unique_ptr<Scratch> scratch = scratches_.take(*this);
  execute(x.data(), y.data(), scratch.get());
  scratches_.give_back(std::move(scratch));
}

void SpmvPlan::multiply_batch(std::span<const double* const> xs,
                              std::span<double* const> ys) const {
  validate_batch_operands(xs, ys);
  std::unique_ptr<Scratch> scratch = scratches_.take(*this);
  execute_batch(xs, ys, scratch.get());
  scratches_.give_back(std::move(scratch));
}

std::unique_ptr<Scratch> SpmvPlan::ScratchCache::take(const SpmvPlan& plan) {
  {
    MutexLock lock(state_->mutex);
    if (!state_->free_list.empty()) {
      std::unique_ptr<Scratch> s = std::move(state_->free_list.back());
      state_->free_list.pop_back();
      return s;
    }
  }
  return plan.make_scratch();
}

void SpmvPlan::ScratchCache::give_back(std::unique_ptr<Scratch> scratch) {
  MutexLock lock(state_->mutex);
  if (state_->free_list.size() < kMaxCached) {
    state_->free_list.push_back(std::move(scratch));
  }
  // else: drop it.
}

}  // namespace spmv::engine
