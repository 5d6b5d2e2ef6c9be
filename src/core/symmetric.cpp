#include "core/symmetric.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/tuner.h"
#include "engine/execution_context.h"
#include "engine/reduction.h"
#include "matrix/coo.h"

namespace spmv {

bool is_symmetric(const CsrMatrix& a, double tol) {
  if (a.rows() != a.cols()) return false;
  const CsrMatrix t = a.transpose();
  if (t.col_idx().size() != a.col_idx().size()) return false;
  if (!std::equal(a.col_idx().begin(), a.col_idx().end(),
                  t.col_idx().begin())) {
    return false;
  }
  const auto av = a.values();
  const auto tv = t.values();
  for (std::size_t k = 0; k < av.size(); ++k) {
    if (std::abs(av[k] - tv[k]) > tol) return false;
  }
  return true;
}

SymmetricSpmv SymmetricSpmv::from_full(const CsrMatrix& a, unsigned threads,
                                       engine::ExecutionContext* ctx) {
  if (threads == 0) {
    throw std::invalid_argument("SymmetricSpmv: zero threads");
  }
  if (!is_symmetric(a)) {
    throw std::invalid_argument("SymmetricSpmv: matrix is not symmetric");
  }
  SymmetricSpmv s;
  s.ctx_ = &engine::context_or_global(ctx);
  // Extract diagonal and above.
  CooBuilder b(a.rows(), a.cols());
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto v = a.values();
  for (std::uint32_t r = 0; r < a.rows(); ++r) {
    for (std::uint64_t k = rp[r]; k < rp[r + 1]; ++k) {
      if (ci[k] >= r) b.add(r, ci[k], v[k]);
    }
  }
  s.upper_ = b.build();
  s.storage_ratio_ =
      static_cast<double>(csr_footprint(s.upper_.nnz(), s.upper_.rows())) /
      static_cast<double>(csr_footprint(a.nnz(), a.rows()));
  s.thread_rows_ = partition_rows_by_nnz(s.upper_, threads);
  return s;
}

SymmetricSpmv::SymmetricSpmv(SymmetricSpmv&&) noexcept = default;
SymmetricSpmv& SymmetricSpmv::operator=(SymmetricSpmv&&) noexcept = default;
SymmetricSpmv::~SymmetricSpmv() = default;

namespace {

/// One thread's sweep over rows [r0, r1) of the upper triangle: the
/// natural contribution accumulates into yd, the transposed contribution
/// scatters into ys (the two may be the same buffer in the serial case).
void sweep(const CsrMatrix& upper, std::uint32_t r0, std::uint32_t r1,
           const double* x, double* yd, double* ys) {
  const auto rp = upper.row_ptr();
  const auto ci = upper.col_idx();
  const auto v = upper.values();
  for (std::uint32_t r = r0; r < r1; ++r) {
    const double xr = x[r];
    double acc = 0.0;
    for (std::uint64_t k = rp[r]; k < rp[r + 1]; ++k) {
      const std::uint32_t c = ci[k];
      acc += v[k] * x[c];
      if (c != r) ys[c] += v[k] * xr;  // transposed role
    }
    yd[r] += acc;
  }
}

}  // namespace

std::unique_ptr<engine::Scratch> SymmetricSpmv::make_scratch() const {
  if (plan_threads() <= 1) return engine::SpmvPlan::make_scratch();
  return std::make_unique<engine::PrivateYScratch>(plan_threads(),
                                                   upper_.rows());
}

void SymmetricSpmv::execute(const double* x, double* y,
                            engine::Scratch* scratch) const {
  const unsigned threads = plan_threads();
  if (threads <= 1) {
    sweep(upper_, 0, upper_.rows(), x, y, y);
    return;
  }
  auto& s = *static_cast<engine::PrivateYScratch*>(scratch);
  ctx_->parallel_for(threads, [&](unsigned t) {
    auto& py = s.private_y[t];
    std::fill(py.begin(), py.end(), 0.0);
    sweep(upper_, thread_rows_[t].begin, thread_rows_[t].end, x, py.data(),
          py.data());
  });
  engine::reduce_private_y(*ctx_, threads, upper_.rows(), s, y);
}

}  // namespace spmv
