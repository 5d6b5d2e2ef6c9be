// Column-partitioned parallel SpMV (paper §4.3).
//
// The second parallelization strategy the paper names (and defers): each
// thread owns a contiguous *column* stripe, balanced by nonzeros, and
// computes a private destination vector from its stripe; a parallel
// chunked reduction then folds the private vectors into y.  Column
// partitioning trades the row approach's x-vector sharing for y-vector
// reduction traffic — it wins when the source vector is the bottleneck
// (LP-shaped matrices whose x exceeds every cache) and loses when rows
// are short and the reduction dominates.
//
// Each stripe is register-block encoded with the same tuner as the row
// path, so the comparison in the ablation bench isolates the partitioning
// axis alone.  The private destination vectors live in per-call engine
// scratch, so concurrent multiply() calls are safe.
#pragma once

#include <vector>

#include "core/blocked.h"
#include "core/options.h"
#include "engine/spmv_plan.h"
#include "matrix/csr.h"

namespace spmv {

class ColumnPartitionedSpmv final : public engine::SpmvPlan {
 public:
  /// Plan: split columns into `opt.threads` nnz-balanced stripes and
  /// encode each with the footprint tuner.  The plan borrows the worker
  /// pool of `opt.context` (nullptr: the global context).
  static ColumnPartitionedSpmv plan(const CsrMatrix& a,
                                    const TuningOptions& opt);

  ColumnPartitionedSpmv(ColumnPartitionedSpmv&&) noexcept;
  ColumnPartitionedSpmv& operator=(ColumnPartitionedSpmv&&) noexcept;
  ~ColumnPartitionedSpmv() override;

  [[nodiscard]] std::uint32_t rows() const override { return rows_; }
  [[nodiscard]] std::uint32_t cols() const override { return cols_; }
  [[nodiscard]] unsigned threads() const {
    return static_cast<unsigned>(stripes_.size());
  }
  /// Column boundaries chosen (for tests: stripe t covers
  /// [boundaries[t], boundaries[t+1])).
  [[nodiscard]] const std::vector<std::uint32_t>& boundaries() const {
    return boundaries_;
  }

  // engine::SpmvPlan
  [[nodiscard]] unsigned plan_threads() const override { return threads(); }
  [[nodiscard]] engine::ExecutionContext& context() const override {
    return *ctx_;
  }
  [[nodiscard]] std::unique_ptr<engine::Scratch> make_scratch() const override;
  void execute(const double* x, double* y,
               engine::Scratch* scratch) const override;

 private:
  ColumnPartitionedSpmv() = default;

  struct Stripe {
    std::vector<EncodedBlock> blocks;
  };

  std::uint32_t rows_ = 0, cols_ = 0;
  unsigned prefetch_ = 0;
  KernelBackend backend_ = KernelBackend::kScalar;  ///< resolved at plan
  std::vector<Stripe> stripes_;
  std::vector<std::uint32_t> boundaries_;
  engine::ExecutionContext* ctx_ = nullptr;
};

}  // namespace spmv
