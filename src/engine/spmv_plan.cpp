#include "engine/spmv_plan.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "engine/execution_context.h"

namespace spmv::engine {

Scratch::~Scratch() = default;

double* Scratch::x_panel(std::size_t elements) {
  if (x_panel_.size() < elements) x_panel_ = AlignedBuffer<double>(elements);
  return x_panel_.data();
}

double* Scratch::y_panel(std::size_t elements) {
  if (y_panel_.size() < elements) y_panel_ = AlignedBuffer<double>(elements);
  return y_panel_.data();
}

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

void run_fused_batch(
    std::span<const double* const> xs, std::span<double* const> ys,
    std::uint32_t rows, std::uint32_t cols, unsigned min_width,
    unsigned max_width, bool decompose_ragged, Scratch& scratch,
    const std::function<void(const double* xp, double* yp, unsigned w)>&
        sweep,
    const std::function<void(const double* x, double* y)>& single) {
  if (min_width < 2) {
    throw std::invalid_argument("run_fused_batch: min_width < 2");
  }
  std::size_t i = 0;
  while (i < xs.size()) {
    const std::size_t remaining = xs.size() - i;
    if (remaining < min_width) {
      // Below the crossover the pack traffic outweighs the amortization.
      for (; i < xs.size(); ++i) single(xs[i], ys[i]);
      return;
    }
    const unsigned capped = static_cast<unsigned>(
        std::min<std::size_t>(max_width, remaining));
    const unsigned w =
        decompose_ragged ? std::bit_floor(capped) : capped;
    if (w < min_width) {
      // Decomposition left only a chunk the crossover model predicts is a
      // loss (e.g. min_width 3, remainder 3 -> width-2 chunk): honor the
      // model and run the tail through single multiplies instead.
      for (; i < xs.size(); ++i) single(xs[i], ys[i]);
      return;
    }
    double* xp =
        scratch.x_panel(static_cast<std::size_t>(cols) * w);
    double* yp =
        scratch.y_panel(static_cast<std::size_t>(rows) * w);
    // Pack, panel-sequential: w concurrent read streams, one write stream.
    for (std::uint32_t c = 0; c < cols; ++c) {
      double* dst = xp + static_cast<std::size_t>(c) * w;
      for (unsigned j = 0; j < w; ++j) dst[j] = xs[i + j][c];
    }
    // The y panel starts from the caller's y values (not zero): each
    // right-hand side's chain then runs y0 + block contributions in the
    // single-multiply order, which is what makes fused == looped bitwise.
    for (std::uint32_t r = 0; r < rows; ++r) {
      double* dst = yp + static_cast<std::size_t>(r) * w;
      for (unsigned j = 0; j < w; ++j) dst[j] = ys[i + j][r];
    }
    sweep(xp, yp, w);
    for (std::uint32_t r = 0; r < rows; ++r) {
      const double* src = yp + static_cast<std::size_t>(r) * w;
      for (unsigned j = 0; j < w; ++j) ys[i + j][r] = src[j];
    }
    i += w;
  }
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
