// Multiple-vector SpMV (SpMM): Y ← Y + A·X for k dense vectors at once.
//
// OSKI's "multiple vectors" optimization, cited by the paper (§2.1) and
// implied by its Ak-methods outlook: amortize each matrix element over k
// right-hand sides, multiplying the kernel's flop:byte ratio by nearly k.
// For a bandwidth-bound kernel this is the single largest algorithmic
// lever available — with k = 8, the matrix stream is read once for 16
// flops per nonzero instead of 2.
//
// X and Y are row-major (vector index fastest), so a nonzero's k products
// are one contiguous SIMD-friendly run.  The sweep itself is the engine's
// fused SpMM kernel set (core/kernels_block.h) — the same kernels the
// batched execute_batch() panel path dispatches, so there is exactly one
// SpMM inner-loop implementation in the library.  This plan's operands
// simply ARE panels already, so it runs the kernels with no packing step:
// the matrix is encoded per thread as 1×1 BCSR blocks (16-bit indices
// where they fit) and each worker runs the width-k fused kernel over its
// block (SIMD-specialized for k in {2, 4, 8}, runtime-width otherwise).
#pragma once

#include <vector>

#include "core/blocked.h"
#include "core/kernels_block.h"
#include "core/partition.h"
#include "engine/spmv_plan.h"
#include "matrix/csr.h"

namespace spmv {

class MultiVectorSpmv final : public engine::SpmvPlan {
 public:
  /// Plan for `k` simultaneous vectors on `threads` threads.  The matrix
  /// is encoded into per-thread blocks (the CSR input is not retained,
  /// hence by reference — no copy).  The plan borrows `ctx`'s worker pool
  /// (nullptr: the global context).
  MultiVectorSpmv(const CsrMatrix& a, unsigned k, unsigned threads = 1,
                  engine::ExecutionContext* ctx = nullptr);

  MultiVectorSpmv(MultiVectorSpmv&&) noexcept;
  MultiVectorSpmv& operator=(MultiVectorSpmv&&) noexcept;
  ~MultiVectorSpmv() override;

  [[nodiscard]] std::uint32_t rows() const override { return rows_; }
  [[nodiscard]] std::uint32_t cols() const override { return cols_; }
  [[nodiscard]] unsigned vectors() const { return k_; }

  /// Model flop:byte of the k-vector sweep relative to single-vector
  /// (the bandwidth-amortization factor the ablation bench reports).
  [[nodiscard]] double flop_byte_amplification() const;

  // engine::SpmvPlan — operands carry k interleaved vectors, row-major:
  // X[c*k + j] is element c of vector j, Y[r*k + j] element r of vector j.
  [[nodiscard]] std::uint64_t x_elements() const override {
    return static_cast<std::uint64_t>(cols_) * k_;
  }
  [[nodiscard]] std::uint64_t y_elements() const override {
    return static_cast<std::uint64_t>(rows_) * k_;
  }
  [[nodiscard]] unsigned plan_threads() const override {
    return static_cast<unsigned>(thread_rows_.size());
  }
  [[nodiscard]] engine::ExecutionContext& context() const override {
    return *ctx_;
  }
  void execute(const double* x, double* y,
               engine::Scratch* scratch) const override;

 private:
  std::uint32_t rows_ = 0, cols_ = 0;
  std::uint64_t nnz_ = 0;
  unsigned k_ = 1;
  std::vector<RowRange> thread_rows_;
  std::vector<EncodedBlock> blocks_;        ///< one 1×1 BCSR block per thread
  std::vector<FusedBlockKernels> kernels_;  ///< resolved at plan time
  engine::ExecutionContext* ctx_ = nullptr;
};

}  // namespace spmv
