#include "core/column_partition.h"

#include <algorithm>
#include <stdexcept>

#include "core/encode.h"
#include "core/kernels_block.h"
#include "core/kernels_simd.h"
#include "core/tuner.h"
#include "engine/execution_context.h"
#include "engine/reduction.h"

namespace spmv {

ColumnPartitionedSpmv ColumnPartitionedSpmv::plan(const CsrMatrix& a,
                                                  const TuningOptions& opt) {
  if (opt.threads == 0) {
    throw std::invalid_argument("ColumnPartitionedSpmv: zero threads");
  }
  ColumnPartitionedSpmv s;
  s.rows_ = a.rows();
  s.cols_ = a.cols();
  s.prefetch_ = opt.prefetch_distance;
  s.backend_ = resolve_kernel_backend(opt.backend);
  s.ctx_ = &engine::context_or_global(opt.context);

  // Column nonzero histogram -> nnz-balanced stripe boundaries.
  std::vector<std::uint64_t> col_nnz(a.cols() + 1, 0);
  for (const std::uint32_t c : a.col_idx()) ++col_nnz[c + 1];
  for (std::uint32_t c = 0; c < a.cols(); ++c) col_nnz[c + 1] += col_nnz[c];
  const std::uint64_t total = a.nnz();

  const unsigned threads = opt.threads;
  s.boundaries_.assign(threads + 1, 0);
  s.boundaries_[threads] = a.cols();
  std::uint32_t c = 0;
  for (unsigned t = 1; t < threads; ++t) {
    const std::uint64_t target = total * t / threads;
    while (c < a.cols() && col_nnz[c] < target) ++c;
    s.boundaries_[t] = c;
  }
  // Boundaries must be monotone even for degenerate inputs.
  for (unsigned t = 1; t <= threads; ++t) {
    s.boundaries_[t] = std::max(s.boundaries_[t], s.boundaries_[t - 1]);
  }

  s.stripes_.resize(threads);
  for (unsigned t = 0; t < threads; ++t) {
    const BlockExtent extent{0, a.rows(), s.boundaries_[t],
                             s.boundaries_[t + 1]};
    if (extent.col0 == extent.col1) continue;
    const BlockDecision d = choose_encoding(a, extent, opt);
    s.stripes_[t].blocks.push_back(
        encode_block(a, extent, d.br, d.bc, d.fmt, d.idx));
  }

  return s;
}

ColumnPartitionedSpmv::ColumnPartitionedSpmv(ColumnPartitionedSpmv&&) noexcept =
    default;
ColumnPartitionedSpmv& ColumnPartitionedSpmv::operator=(
    ColumnPartitionedSpmv&&) noexcept = default;
ColumnPartitionedSpmv::~ColumnPartitionedSpmv() = default;

std::unique_ptr<engine::Scratch> ColumnPartitionedSpmv::make_scratch() const {
  if (threads() <= 1) return engine::SpmvPlan::make_scratch();
  return std::make_unique<engine::PrivateYScratch>(threads(), rows_);
}

void ColumnPartitionedSpmv::execute(const double* x, double* y,
                                    engine::Scratch* scratch) const {
  const unsigned threads = this->threads();
  if (threads <= 1) {
    for (const Stripe& stripe : stripes_) {
      for (const EncodedBlock& blk : stripe.blocks) {
        run_block(blk, x, y, prefetch_, backend_);
      }
    }
    return;
  }

  auto& s = *static_cast<engine::PrivateYScratch*>(scratch);
  // Phase 1: each thread multiplies its stripe into its private y.
  // Phase 2: chunked parallel reduction into the caller's y.
  ctx_->parallel_for(threads, [&](unsigned t) {
    auto& py = s.private_y[t];
    std::fill(py.begin(), py.end(), 0.0);
    for (const EncodedBlock& blk : stripes_[t].blocks) {
      run_block(blk, x, py.data(), prefetch_, backend_);
    }
  });
  engine::reduce_private_y(*ctx_, threads, rows_, s, y);
}

}  // namespace spmv
