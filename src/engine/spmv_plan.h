// Plan/scratch split: immutable planned state vs per-call scratch.
//
// Planning (partitioning, blocking, encoding) is expensive and happens
// once; execution happens millions of times, possibly from many server
// threads at once.  The engine therefore separates the two:
//
//   * SpmvPlan is the immutable product of planning.  execute() is const
//     and touches no plan state besides reading it — every mutable byte a
//     call needs (private destination vectors, carry slots, DMA staging
//     buffers, fused-batch panels) lives in a Scratch object.
//   * Scratch is the per-call state.  Two concurrent execute() calls with
//     distinct Scratch objects are data-race free and produce bit-identical
//     results to back-to-back serial calls.
//
// multiply() and multiply_batch() are every plan's one front door: they
// validate the operands, borrow a scratch from the plan's own free list
// and run execute()/execute_batch().  All six parallel variants and both
// baselines implement this interface, so servers, benches and the
// scheduler's batch path treat them uniformly.  Every plan dispatches on
// its ExecutionContext, which alone decides worker affinity.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "util/thread_annotations.h"

namespace spmv::engine {

class ExecutionContext;
class SpmvPlan;

/// Base class for a plan's per-call mutable state.  Plans with no per-call
/// state of their own use the base class directly, so make_scratch()
/// never returns nullptr.
class Scratch {
 public:
  virtual ~Scratch();
};

class SpmvPlan {
 public:
  virtual ~SpmvPlan();

  /// y ← y + A·x.  Throws std::invalid_argument when x or y is shorter
  /// than x_elements()/y_elements() or when they alias.  Any number of
  /// threads may call it on one plan at once.  Must not be called from
  /// inside a pool worker of the plan's own context.
  void multiply(std::span<const double> x, std::span<double> y) const;

  /// ys[i] ← ys[i] + A·xs[i] for all i, through execute_batch() (one
  /// dispatch per batch for the tuned matrix, plus a fused matrix stream
  /// where its planner chose one).  xs and ys must be the same length;
  /// each pointer must be non-null and reference at least
  /// x_elements()/y_elements() valid elements — lengths cannot be checked
  /// from bare pointers, unlike multiply()'s spans.  No xs pointer may
  /// equal any ys pointer, and no two ys pointers may be equal (both
  /// checked): the batch executes with no ordering between right-hand
  /// sides, so chained batches and shared destinations are rejected —
  /// express dependent multiplies as successive multiply() calls.  Throws
  /// std::invalid_argument on a violation; thread-safe like multiply().
  void multiply_batch(std::span<const double* const> xs,
                      std::span<double* const> ys) const;

  /// Logical operator shape.
  [[nodiscard]] virtual std::uint32_t rows() const = 0;
  [[nodiscard]] virtual std::uint32_t cols() const = 0;

  /// Elements execute() reads from x / accumulates into y.  Defaults to
  /// cols()/rows(); the multi-vector plan multiplies both by k.
  [[nodiscard]] virtual std::uint64_t x_elements() const;
  [[nodiscard]] virtual std::uint64_t y_elements() const;

  /// Worker count the plan was partitioned for (1 = serial execution).
  [[nodiscard]] virtual unsigned plan_threads() const = 0;

  /// The execution context this plan dispatches on (never null; defaults
  /// to ExecutionContext::global() unless the plan was built with one).
  [[nodiscard]] virtual ExecutionContext& context() const;

  /// Allocate the scratch one concurrent execute()/execute_batch() call
  /// needs.  Never null: plans without private state get a base Scratch.
  [[nodiscard]] virtual std::unique_ptr<Scratch> make_scratch() const;

  /// y ← y + A·x with no operand checks: the hook each plan implements
  /// and multiply() calls.  `x`/`y` must have x_elements()/y_elements()
  /// valid elements and not alias.  `scratch` comes from this plan's
  /// make_scratch() and is not shared between concurrent calls; plans
  /// that keep no per-call state ignore it.  Must not be invoked from
  /// inside a pool worker of the plan's own context.
  virtual void execute(const double* x, double* y, Scratch* scratch) const = 0;

  /// ys[i] ← ys[i] + A·xs[i] for every i: the hook multiply_batch() calls,
  /// with operands already checked and a non-null `scratch`.  The default
  /// loops over execute(); TunedMatrix overrides it with one dispatch per
  /// batch and, above its planned crossover width, a fused SpMM sweep.
  /// Overrides must stay bit-identical to the loop.
  virtual void execute_batch(std::span<const double* const> xs,
                             std::span<double* const> ys,
                             Scratch* scratch) const;

 protected:
  SpmvPlan() = default;
  SpmvPlan(SpmvPlan&&) noexcept = default;
  SpmvPlan& operator=(SpmvPlan&&) noexcept = default;

 private:
  /// The front doors' free list of scratches: a call borrows one (making a
  /// fresh one only when every cached one is out) and returns it, so
  /// steady-state calls allocate nothing and concurrent callers never
  /// share one.  Scratches returned beyond kMaxCached are freed, so a
  /// burst of concurrent calls does not pin its peak memory for the plan's
  /// lifetime (a scratch can be plan_threads × rows doubles).  The state
  /// sits behind a pointer so the plan stays movable.
  class ScratchCache {
   public:
    [[nodiscard]] std::unique_ptr<Scratch> take(const SpmvPlan& plan);
    void give_back(std::unique_ptr<Scratch> scratch);

   private:
    static constexpr std::size_t kMaxCached = 16;
    struct State {
      Mutex mutex;
      std::vector<std::unique_ptr<Scratch>> free_list SPMV_GUARDED_BY(mutex);
    };
    std::unique_ptr<State> state_ = std::make_unique<State>();
  };
  mutable ScratchCache scratches_;
};

/// The operand checks multiply() performs, exposed so the serving
/// scheduler rejects a request at submit time with identical semantics.
/// Throws std::invalid_argument on violation.
void validate_multiply_operands(const SpmvPlan& plan,
                                std::span<const double> x,
                                std::span<double> y);

}  // namespace spmv::engine
