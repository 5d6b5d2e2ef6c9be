// Symmetric SpMV: store only the upper triangle, halving matrix traffic.
//
// The paper lists symmetry among OSKI's optimizations it does *not*
// exploit ("e.g., we do not exploit symmetry in our experiments") and then
// names it first among the bandwidth-reduction techniques its conclusions
// call for ("software designers should consider bandwidth reduction as a
// key algorithmic optimization (e.g., symmetry, ...)").  This module
// implements that extension: y ← y + A·x for numerically symmetric A using
// only the diagonal-and-above nonzeros, each off-diagonal entry applied in
// both its (i, j) and (j, i) roles during a single sweep.
//
// The transposed contribution scatters into y, so parallel execution uses
// per-thread private destination vectors with a chunked reduction, like
// column partitioning.  The private vectors live in per-call engine
// scratch, so concurrent multiply() calls are safe.
#pragma once

#include <vector>

#include "core/partition.h"
#include "engine/spmv_plan.h"
#include "matrix/csr.h"

namespace spmv {

/// Check numeric symmetry (|a_ij - a_ji| <= tol for all entries).
bool is_symmetric(const CsrMatrix& a, double tol = 0.0);

class SymmetricSpmv final : public engine::SpmvPlan {
 public:
  /// Build from a full symmetric matrix (validated; throws
  /// std::invalid_argument if `a` is not square and symmetric).  The plan
  /// borrows `ctx`'s worker pool (nullptr: the global context).
  static SymmetricSpmv from_full(const CsrMatrix& a, unsigned threads = 1,
                                 engine::ExecutionContext* ctx = nullptr);

  SymmetricSpmv(SymmetricSpmv&&) noexcept;
  SymmetricSpmv& operator=(SymmetricSpmv&&) noexcept;
  ~SymmetricSpmv() override;

  [[nodiscard]] std::uint32_t rows() const override { return upper_.rows(); }
  [[nodiscard]] std::uint32_t cols() const override { return upper_.cols(); }
  [[nodiscard]] std::uint64_t stored_nnz() const { return upper_.nnz(); }
  /// Stored bytes (upper triangle only) over the full matrix's CSR bytes —
  /// the bandwidth-reduction ratio, ~0.5 + diagonal share.
  [[nodiscard]] double storage_ratio() const { return storage_ratio_; }

  // engine::SpmvPlan
  [[nodiscard]] unsigned plan_threads() const override {
    return static_cast<unsigned>(thread_rows_.size());
  }
  [[nodiscard]] engine::ExecutionContext& context() const override {
    return *ctx_;
  }
  [[nodiscard]] std::unique_ptr<engine::Scratch> make_scratch() const override;
  void execute(const double* x, double* y,
               engine::Scratch* scratch) const override;

 private:
  SymmetricSpmv() = default;

  CsrMatrix upper_;  ///< diagonal and above
  double storage_ratio_ = 1.0;
  std::vector<RowRange> thread_rows_;
  engine::ExecutionContext* ctx_ = nullptr;
};

}  // namespace spmv
