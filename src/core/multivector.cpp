#include "core/multivector.h"

#include <stdexcept>

#include "core/encode.h"
#include "engine/execution_context.h"

namespace spmv {

MultiVectorSpmv::MultiVectorSpmv(const CsrMatrix& a, unsigned k,
                                 unsigned threads,
                                 engine::ExecutionContext* ctx)
    : rows_(a.rows()),
      cols_(a.cols()),
      nnz_(a.nnz()),
      k_(k),
      ctx_(&engine::context_or_global(ctx)) {
  if (k == 0) throw std::invalid_argument("MultiVectorSpmv: k == 0");
  if (threads == 0) throw std::invalid_argument("MultiVectorSpmv: threads");
  thread_rows_ = partition_rows_by_nnz(a, threads);
  blocks_.reserve(thread_rows_.size());
  kernels_.reserve(thread_rows_.size());
  for (const RowRange& range : thread_rows_) {
    const BlockExtent ext{range.begin, range.end, 0, a.cols()};
    const IndexWidth idx =
        index_width_fits16(a, ext, 1, 1, BlockFormat::kBcsr)
            ? IndexWidth::k16
            : IndexWidth::k32;
    blocks_.push_back(
        encode_block(a, ext, 1, 1, BlockFormat::kBcsr, idx));
    kernels_.push_back(fused_block_kernels(BlockFormat::kBcsr, idx, 1, 1,
                                           KernelBackend::kAuto));
  }
}

MultiVectorSpmv::MultiVectorSpmv(MultiVectorSpmv&&) noexcept = default;
MultiVectorSpmv& MultiVectorSpmv::operator=(MultiVectorSpmv&&) noexcept =
    default;
MultiVectorSpmv::~MultiVectorSpmv() = default;

double MultiVectorSpmv::flop_byte_amplification() const {
  // Single-vector: 2 flops per (12-byte) nonzero.  k vectors: 2k flops for
  // the same matrix bytes plus k-fold vector traffic.
  const double nnz = static_cast<double>(nnz_);
  const double vec =
      8.0 * (static_cast<double>(cols_) + 2.0 * rows_);
  const double single = 2.0 * nnz / (12.0 * nnz + vec);
  const double multi =
      2.0 * nnz * k_ / (12.0 * nnz + vec * k_);
  return multi / single;
}

void MultiVectorSpmv::execute(const double* x, double* y,
                              engine::Scratch* /*scratch*/) const {
  // The operands are already row-major k-wide panels, so this is the fused
  // batch path minus the packing: each worker runs the width-k kernel over
  // its encoded block (disjoint row ranges, no scratch needed).
  auto work = [&](unsigned t) {
    kernels_[t].for_width(k_)(blocks_[t], x, y, /*prefetch_distance=*/0, k_);
  };
  ctx_->parallel_for(plan_threads(), work);
}

}  // namespace spmv
