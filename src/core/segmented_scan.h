// Segmented-scan parallel SpMV (paper §4.3).
//
// Row partitioning assigns whole rows to threads, which can load-imbalance
// matrices with a few huge rows (LP).  The paper's third strategy — "a
// thread based segmented scan would allow dynamic parallelization (by
// nonzeros) within a sub-block of the matrix" — splits the *nonzero stream*
// exactly evenly instead: every thread gets nnz/T consecutive nonzeros
// regardless of row boundaries, accumulates complete interior rows
// directly, and publishes partial sums for its (possibly shared) first and
// last rows, which a cheap serial fix-up folds in after the barrier.
//
// The paper deferred this to future work; it is implemented here both as a
// library feature and as the ablation target for the row-vs-nonzero
// partitioning comparison.  The carry slots live in per-call engine
// scratch, so concurrent multiply() calls are safe.
#pragma once

#include <vector>

#include "core/partition.h"
#include "engine/spmv_plan.h"
#include "matrix/csr.h"

namespace spmv {

class SegmentedScanSpmv final : public engine::SpmvPlan {
 public:
  /// Plan a nonzero-balanced split of `a` across `threads`.
  /// The matrix is copied in (the planner owns its storage).  The plan
  /// borrows `ctx`'s worker pool (nullptr: the global context).
  SegmentedScanSpmv(CsrMatrix a, unsigned threads,
                    engine::ExecutionContext* ctx = nullptr);

  SegmentedScanSpmv(SegmentedScanSpmv&&) noexcept;
  SegmentedScanSpmv& operator=(SegmentedScanSpmv&&) noexcept;
  ~SegmentedScanSpmv() override;

  [[nodiscard]] std::uint32_t rows() const override { return matrix_.rows(); }
  [[nodiscard]] std::uint32_t cols() const override { return matrix_.cols(); }
  [[nodiscard]] unsigned threads() const {
    return static_cast<unsigned>(chunks_.size());
  }

  /// Largest nonzero count assigned to any thread over the ideal share —
  /// by construction within one nonzero of perfect (compare
  /// partition_imbalance for row partitioning).
  [[nodiscard]] double nnz_imbalance() const;

  // engine::SpmvPlan
  [[nodiscard]] unsigned plan_threads() const override { return threads(); }
  [[nodiscard]] engine::ExecutionContext& context() const override {
    return *ctx_;
  }
  [[nodiscard]] std::unique_ptr<engine::Scratch> make_scratch() const override;
  void execute(const double* x, double* y,
               engine::Scratch* scratch) const override;

 private:
  struct Chunk {
    std::uint64_t k0 = 0, k1 = 0;       ///< nonzero range [k0, k1)
    std::uint32_t row_first = 0;        ///< row containing k0
    std::uint32_t row_last = 0;         ///< row containing k1 - 1
  };

  CsrMatrix matrix_;
  std::vector<Chunk> chunks_;
  engine::ExecutionContext* ctx_ = nullptr;
};

}  // namespace spmv
