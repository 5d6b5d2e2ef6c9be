#include "core/tuned_matrix.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/cache_block.h"
#include "core/kernels_block.h"
#include "core/kernels_simd.h"
#include "engine/execution_context.h"
#include "util/aligned.h"
#include "util/cpu.h"
#include "util/timer.h"

namespace spmv {

namespace {

/// The fused batch path's per-call panel buffers, lazily grown to the
/// widest chunk seen and recycled through the plan's scratch free list,
/// so steady-state batched serving allocates nothing.
struct PanelScratch final : engine::Scratch {
  AlignedBuffer<double> x;
  AlignedBuffer<double> y;
};

double* panel(AlignedBuffer<double>& buf, std::size_t elements) {
  if (buf.size() < elements) buf = AlignedBuffer<double>(elements);
  return buf.data();
}

}  // namespace

std::string TuningReport::summary() const {
  std::ostringstream os;
  os << rows << "x" << cols << ", nnz=" << nnz << ", threads=" << threads
     << ", cache blocks=" << cache_blocks << ", footprint "
     << tuned_bytes / 1024.0 / 1024.0 << " MiB ("
     << compression_ratio() * 100.0 << "% of CSR), fill=" << fill_ratio
     << ", bcoo=" << blocks_bcoo << ", idx16=" << blocks_idx16
     << ", register-blocked=" << blocks_register_blocked
     << ", backend=" << to_string(backend) << " (" << blocks_simd << "/"
     << cache_blocks << " blocks simd), prefetch=" << prefetch_distance
     << ", fused-batch>=";
  if (fused_batch_min_width == 0) {
    os << "off";
  } else {
    os << fused_batch_min_width;
  }
  return os.str();
}

TunedMatrix::TunedMatrix(TunedMatrix&&) noexcept = default;
TunedMatrix& TunedMatrix::operator=(TunedMatrix&&) noexcept = default;
TunedMatrix::~TunedMatrix() = default;

TunedMatrix TunedMatrix::plan(const CsrMatrix& a, const TuningOptions& opt) {
  if (opt.threads == 0) throw std::invalid_argument("plan: zero threads");
  Timer timer;

  TunedMatrix m;
  m.opt_ = opt;
  m.ctx_ = &engine::context_or_global(opt.context);
  m.report_.rows = a.rows();
  m.report_.cols = a.cols();
  m.report_.nnz = a.nnz();
  m.report_.threads = opt.threads;
  m.report_.csr_bytes = csr_footprint(a.nnz(), a.rows());
  m.report_.backend = resolve_kernel_backend(opt.backend);

  // 1. Thread-level row partition, balanced by nonzeros.
  m.thread_rows_ = partition_rows_by_nnz(a, opt.threads);

  // 2. Cache/TLB blocking parameters.
  CacheBlockParams cb;
  cb.cache_blocking = opt.cache_blocking;
  cb.tlb_blocking = opt.tlb_blocking;
  cb.cache_bytes = opt.cache_bytes_for_blocking != 0
                       ? opt.cache_bytes_for_blocking
                       : host_info().l2_bytes;
  cb.line_bytes = host_info().cache_line_bytes;
  cb.page_bytes = host_info().page_bytes;
  cb.tlb_entries = opt.tlb_entries != 0 ? opt.tlb_entries : 64;

  // Plan extents and decisions per thread (serial: cheap metadata work).
  struct PlannedBlock {
    BlockExtent extent;
    BlockDecision decision;
  };
  std::vector<std::vector<PlannedBlock>> planned(opt.threads);
  for (unsigned t = 0; t < opt.threads; ++t) {
    const RowRange range = m.thread_rows_[t];
    for (const BlockExtent& extent :
         plan_cache_blocks(a, range.begin, range.end, cb)) {
      PlannedBlock pb;
      pb.extent = extent;
      pb.decision = choose_encoding(a, extent, opt);
      // The tuner minimizes storage; which code backend the chosen shape
      // runs on follows from the host (per block: SIMD when the backend
      // has that shape, scalar otherwise).
      pb.decision.backend =
          block_kernel_backend(pb.decision.fmt, pb.decision.idx,
                               pb.decision.br, pb.decision.bc,
                               m.report_.backend);
      planned[t].push_back(pb);
    }
  }

  // 3. Encode, NUMA first touch: thread t's blocks are encoded on the
  // thread that runs tid t at multiply time (pool worker t, pinned when
  // the context pins, or the caller for t = 0), so the pages land in its
  // local domain.
  m.blocks_.resize(opt.threads);
  auto encode_thread = [&](unsigned t) {
    auto& dst = m.blocks_[t];
    dst.reserve(planned[t].size());
    for (const PlannedBlock& pb : planned[t]) {
      dst.push_back(encode_block(a, pb.extent, pb.decision.br,
                                 pb.decision.bc, pb.decision.fmt,
                                 pb.decision.idx));
    }
  };
  m.ctx_->parallel_for(opt.threads, encode_thread);

  // 4. Report, and the per-block kernel pointers multiply() dispatches
  // through (resolved once here instead of per block per multiply).
  std::uint64_t stored = 0, true_nnz = 0;
  m.kernels_.resize(opt.threads);
  m.fused_kernels_.resize(opt.threads);
  for (unsigned t = 0; t < opt.threads; ++t) {
    m.kernels_[t].reserve(m.blocks_[t].size());
    m.fused_kernels_[t].reserve(m.blocks_[t].size());
    for (std::size_t b = 0; b < m.blocks_[t].size(); ++b) {
      const EncodedBlock& blk = m.blocks_[t][b];
      const PlannedBlock& pb = planned[t][b];
      m.kernels_[t].push_back(block_kernel(blk.fmt, blk.idx, blk.br, blk.bc,
                                           m.report_.backend));
      m.fused_kernels_[t].push_back(fused_block_kernels(
          blk.fmt, blk.idx, blk.br, blk.bc, m.report_.backend));
      m.report_.tuned_bytes += blk.footprint_bytes();
      stored += blk.stored_nnz;
      true_nnz += blk.true_nnz;
      ++m.report_.cache_blocks;
      if (blk.fmt == BlockFormat::kBcoo) ++m.report_.blocks_bcoo;
      if (blk.idx == IndexWidth::k16) ++m.report_.blocks_idx16;
      if (blk.br * blk.bc > 1) ++m.report_.blocks_register_blocked;
      if (pb.decision.backend != KernelBackend::kScalar) {
        ++m.report_.blocks_simd;
      }
      m.report_.blocks.push_back({t, pb.extent, pb.decision});
    }
  }
  if (true_nnz != a.nnz()) {
    throw std::logic_error("plan: encoded nnz mismatch (internal error)");
  }
  m.report_.fill_ratio =
      true_nnz == 0 ? 1.0
                    : static_cast<double>(stored) / static_cast<double>(true_nnz);

  // Fused-batch crossover (§2.1 "multiple vectors"): fusing a width-k
  // chunk streams the encoded matrix once instead of k times, saving
  // (k-1)·tuned_bytes, and pays for packing/unpacking the operand panels —
  // about one extra stream of the x panel and two of the y panel,
  // 8·k·(cols + 2·rows) bytes.  Record the smallest width where the saving
  // wins; for hypersparse matrices (nnz ≈ rows) no width qualifies and
  // fusion stays off.
  const std::uint64_t panel_bytes =
      8ull * (static_cast<std::uint64_t>(a.cols()) +
              2ull * static_cast<std::uint64_t>(a.rows()));
  for (unsigned k = 2; k <= kMaxFusedWidth; ++k) {
    if (static_cast<std::uint64_t>(k - 1) * m.report_.tuned_bytes >
        static_cast<std::uint64_t>(k) * panel_bytes) {
      m.report_.fused_batch_min_width = k;
      break;
    }
  }

  // 5. Prefetch-distance tuning (paper §4.1: distance searched from 0 to a
  // page).  Try a small ladder of distances with real multiplies and keep
  // the fastest; 0 wins automatically whenever the matrix is cache
  // resident and prefetch would only burn issue slots.
  if (opt.tune_prefetch && a.nnz() > 0) {
    AlignedBuffer<double> x(a.cols());
    AlignedBuffer<double> y(a.rows());
    x.fill(1.0);
    y.zero();
    double best_s = std::numeric_limits<double>::infinity();
    unsigned best_distance = 0;
    for (const unsigned distance : {0u, 16u, 64u, 256u}) {
      m.opt_.prefetch_distance = distance;
      // Warm-up then best-of-three, like the measurement harness.
      m.multiply(x.span(), y.span());
      double best_rep = std::numeric_limits<double>::infinity();
      for (int rep = 0; rep < 3; ++rep) {
        Timer t;
        m.multiply(x.span(), y.span());
        best_rep = std::min(best_rep, t.seconds());
      }
      if (best_rep < best_s) {
        best_s = best_rep;
        best_distance = distance;
      }
    }
    m.opt_.prefetch_distance = best_distance;
  }
  m.report_.prefetch_distance = m.opt_.prefetch_distance;
  m.report_.plan_seconds = timer.seconds();
  return m;
}

std::unique_ptr<engine::Scratch> TunedMatrix::make_scratch() const {
  return std::make_unique<PanelScratch>();
}

void TunedMatrix::execute(const double* x, double* y,
                          engine::Scratch* /*scratch*/) const {
  const unsigned pf = opt_.prefetch_distance;
  if (opt_.threads <= 1) {
    for (std::size_t t = 0; t < blocks_.size(); ++t) {
      for (std::size_t b = 0; b < blocks_[t].size(); ++b) {
        kernels_[t][b](blocks_[t][b], x, y, pf);
      }
    }
    return;
  }
  ctx_->parallel_for(opt_.threads, [this, x, y, pf](unsigned t) {
    for (std::size_t b = 0; b < blocks_[t].size(); ++b) {
      kernels_[t][b](blocks_[t][b], x, y, pf);
    }
  });
}

void TunedMatrix::execute_batch_looped(std::span<const double* const> xs,
                                       std::span<double* const> ys) const {
  const unsigned pf = opt_.prefetch_distance;
  ctx_->parallel_for(opt_.threads, [this, xs, ys, pf](unsigned t) {
    for (std::size_t i = 0; i < xs.size(); ++i) {
      for (std::size_t b = 0; b < blocks_[t].size(); ++b) {
        kernels_[t][b](blocks_[t][b], xs[i], ys[i], pf);
      }
    }
  });
}

void TunedMatrix::fused_sweep(const double* xp, double* yp,
                              unsigned w) const {
  const unsigned pf = opt_.prefetch_distance;
  // Workers write disjoint yp row ranges (cache blocks never cross thread
  // row partitions), so one dispatch per chunk suffices.
  ctx_->parallel_for(opt_.threads, [this, xp, yp, w, pf](unsigned t) {
    for (std::size_t b = 0; b < blocks_[t].size(); ++b) {
      fused_kernels_[t][b].for_width(w)(blocks_[t][b], xp, yp, pf, w);
    }
  });
}

void TunedMatrix::execute_batch(std::span<const double* const> xs,
                                std::span<double* const> ys,
                                engine::Scratch* scratch) const {
  const unsigned min_width = report_.fused_batch_min_width;
  // SIMD fused kernels exist only at widths {2, 4, 8}, so on a SIMD
  // backend a ragged chunk shrinks to the largest power of two (7 -> 4 +
  // 2 + a looped rest): every panel hits a vector kernel, at the cost of
  // extra matrix streams.  On the scalar backend one runtime-width sweep
  // (fewer streams) wins.
  const bool decompose_ragged = report_.backend != KernelBackend::kScalar;
  auto& panels = *static_cast<PanelScratch*>(scratch);
  const std::uint32_t rows = report_.rows;
  const std::uint32_t cols = report_.cols;
  std::size_t i = 0;
  while (min_width != 0 && xs.size() - i >= min_width) {
    const auto capped = static_cast<unsigned>(
        std::min<std::size_t>(kMaxFusedWidth, xs.size() - i));
    const unsigned w = decompose_ragged ? std::bit_floor(capped) : capped;
    if (w < min_width) break;  // e.g. min_width 3, remainder 3 -> width 2
    double* xp = panel(panels.x, static_cast<std::size_t>(cols) * w);
    double* yp = panel(panels.y, static_cast<std::size_t>(rows) * w);
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
    fused_sweep(xp, yp, w);
    for (std::uint32_t r = 0; r < rows; ++r) {
      const double* src = yp + static_cast<std::size_t>(r) * w;
      for (unsigned j = 0; j < w; ++j) ys[i + j][r] = src[j];
    }
    i += w;
  }
  // Below the crossover the pack traffic outweighs the amortization.
  if (i < xs.size()) execute_batch_looped(xs.subspan(i), ys.subspan(i));
}

}  // namespace spmv
