#include "core/segmented_scan.h"

#include <algorithm>
#include <stdexcept>

#include "engine/execution_context.h"

namespace spmv {

namespace {

/// Per-call carry slots: partial sums for each chunk's (possibly shared)
/// first and last row.
struct SegScanScratch final : engine::Scratch {
  explicit SegScanScratch(std::size_t threads)
      : head_partial(threads, 0.0), tail_partial(threads, 0.0) {}
  std::vector<double> head_partial;
  std::vector<double> tail_partial;
};

}  // namespace

SegmentedScanSpmv::SegmentedScanSpmv(CsrMatrix a, unsigned threads,
                                     engine::ExecutionContext* ctx)
    : matrix_(std::move(a)), ctx_(&engine::context_or_global(ctx)) {
  if (threads == 0) {
    throw std::invalid_argument("SegmentedScanSpmv: zero threads");
  }
  const std::uint64_t nnz = matrix_.nnz();
  const auto row_ptr = matrix_.row_ptr();

  // Row owning nonzero k: upper_bound over row_ptr.
  auto row_of = [&](std::uint64_t k) {
    const auto it =
        std::upper_bound(row_ptr.begin(), row_ptr.end(), k) - 1;
    return static_cast<std::uint32_t>(it - row_ptr.begin());
  };

  chunks_.resize(threads);
  for (unsigned t = 0; t < threads; ++t) {
    Chunk& c = chunks_[t];
    c.k0 = nnz * t / threads;
    c.k1 = nnz * (t + 1) / threads;
    if (c.k0 < c.k1) {
      c.row_first = row_of(c.k0);
      c.row_last = row_of(c.k1 - 1);
    }
  }
}

SegmentedScanSpmv::SegmentedScanSpmv(SegmentedScanSpmv&&) noexcept = default;
SegmentedScanSpmv& SegmentedScanSpmv::operator=(SegmentedScanSpmv&&) noexcept =
    default;
SegmentedScanSpmv::~SegmentedScanSpmv() = default;

double SegmentedScanSpmv::nnz_imbalance() const {
  std::uint64_t worst = 0;
  for (const Chunk& c : chunks_) worst = std::max(worst, c.k1 - c.k0);
  const double ideal = static_cast<double>(matrix_.nnz()) /
                       static_cast<double>(chunks_.size());
  return ideal == 0.0 ? 1.0 : static_cast<double>(worst) / ideal;
}

std::unique_ptr<engine::Scratch> SegmentedScanSpmv::make_scratch() const {
  return std::make_unique<SegScanScratch>(chunks_.size());
}

void SegmentedScanSpmv::execute(const double* x, double* y,
                                engine::Scratch* scratch) const {
  auto& s = *static_cast<SegScanScratch*>(scratch);
  const auto row_ptr = matrix_.row_ptr();
  const auto col_idx = matrix_.col_idx();
  const auto values = matrix_.values();
  const double* xp = x;
  double* yp = y;
  double* head_partial = s.head_partial.data();
  double* tail_partial = s.tail_partial.data();

  auto work = [&](unsigned t) {
    const Chunk& c = chunks_[t];
    head_partial[t] = 0.0;
    tail_partial[t] = 0.0;
    if (c.k0 >= c.k1) return;

    std::uint64_t k = c.k0;
    // Head: the tail of row_first (possibly shared with the previous
    // chunk) — accumulate to the carry slot, not to y.
    const std::uint64_t head_end = std::min(c.k1, row_ptr[c.row_first + 1]);
    double acc = 0.0;
    for (; k < head_end; ++k) acc += values[k] * xp[col_idx[k]];
    if (c.row_first == c.row_last) {
      // The whole chunk lives in one row; everything is a carry.
      head_partial[t] = acc;
      return;
    }
    head_partial[t] = acc;

    // Interior rows are fully owned: accumulate straight into y.
    for (std::uint32_t r = c.row_first + 1; r < c.row_last; ++r) {
      const std::uint64_t end = row_ptr[r + 1];
      acc = 0.0;
      for (; k < end; ++k) acc += values[k] * xp[col_idx[k]];
      yp[r] += acc;
    }

    // Tail: the head of row_last (possibly shared with the next chunk).
    acc = 0.0;
    for (; k < c.k1; ++k) acc += values[k] * xp[col_idx[k]];
    tail_partial[t] = acc;
  };

  ctx_->parallel_for(static_cast<unsigned>(chunks_.size()), work);

  // Serial fix-up: fold the 2T carries into their rows.  Chunks are
  // ordered, so this is a short deterministic loop.
  for (std::size_t t = 0; t < chunks_.size(); ++t) {
    const Chunk& c = chunks_[t];
    if (c.k0 >= c.k1) continue;
    yp[c.row_first] += head_partial[t];
    if (c.row_last != c.row_first) yp[c.row_last] += tail_partial[t];
  }
}

}  // namespace spmv
