#include "core/local_store.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <stdexcept>

#include "core/partition.h"
#include "engine/execution_context.h"
#include "util/thread_annotations.h"

namespace spmv {

struct LocalStoreSpmv::StatsState {
  Mutex mutex;
  DmaStats totals SPMV_GUARDED_BY(mutex);
};

namespace {

/// Per-call staging areas: one emulated local store per SPE.
struct LocalStoreScratch final : engine::Scratch {
  struct Spe {
    std::vector<double> ls_x;
    std::vector<double> ls_y;
    std::vector<double> ls_values[2];
    std::vector<std::uint16_t> ls_cols[2];
  };
  std::vector<Spe> spes;
};

}  // namespace

LocalStoreSpmv LocalStoreSpmv::plan(const CsrMatrix& a,
                                    const LocalStoreParams& p) {
  if (p.spes == 0) throw std::invalid_argument("LocalStoreSpmv: zero SPEs");
  if (p.local_store_bytes < 16 * 1024) {
    throw std::invalid_argument("LocalStoreSpmv: local store too small");
  }
  LocalStoreSpmv s;
  s.rows_ = a.rows();
  s.cols_ = a.cols();
  s.nnz_ = a.nnz();
  s.params_ = p;
  s.ctx_ = &engine::context_or_global(p.context);
  s.stats_ = std::make_unique<StatsState>();

  // Local store budget split: half for the double-buffered nonzero stream
  // (two chunks of values+indices), the rest shared between the x window
  // and the y window.  This mirrors the fixed budgeting of the Cell code:
  // dense cache blocks span a *fixed* number of columns (classical, not
  // sparse, blocking — §4.4).
  const std::size_t stream_bytes =
      std::min(2 * p.dma_chunk_bytes, p.local_store_bytes / 2);
  const std::size_t vector_bytes = p.local_store_bytes - stream_bytes;
  // x window gets 2/3, y window 1/3 (y is revisited per column block).
  const auto x_window =
      static_cast<std::uint32_t>(std::max<std::size_t>(
          512, vector_bytes * 2 / 3 / sizeof(double)));
  s.y_window_ = static_cast<std::uint32_t>(std::max<std::size_t>(
      512, vector_bytes / 3 / sizeof(double)));
  // 16-bit offsets bound the column window too.
  s.x_window_ = std::min<std::uint32_t>(x_window, 65536);
  s.chunk_nnz_ = std::max<std::size_t>(
      64, p.dma_chunk_bytes / (sizeof(double) + sizeof(std::uint16_t)));

  const std::uint32_t col_window = s.x_window_;
  const std::uint32_t y_window = s.y_window_;

  const auto parts = partition_rows_by_nnz(a, p.spes);
  const auto row_ptr = a.row_ptr();
  const auto col_idx = a.col_idx();
  const auto values = a.values();

  s.spe_blocks_.resize(p.spes);
  for (unsigned t = 0; t < p.spes; ++t) {
    for (std::uint32_t r0 = parts[t].begin; r0 < parts[t].end;
         r0 += y_window) {
      const std::uint32_t r1 =
          std::min<std::uint32_t>(r0 + y_window, parts[t].end);
      for (std::uint32_t c0 = 0; c0 < a.cols(); c0 += col_window) {
        const std::uint32_t c1 =
            std::min<std::uint64_t>(static_cast<std::uint64_t>(c0) +
                                        col_window,
                                    a.cols());
        Block blk;
        blk.row0 = r0;
        blk.row1 = r1;
        blk.col0 = c0;
        blk.col1 = c1;
        blk.row_start.assign(r1 - r0 + 1, 0);
        for (std::uint32_t r = r0; r < r1; ++r) {
          const std::uint32_t* begin = col_idx.data() + row_ptr[r];
          const std::uint32_t* stop = col_idx.data() + row_ptr[r + 1];
          const std::uint32_t* lo = std::lower_bound(begin, stop, c0);
          const std::uint32_t* hi = std::lower_bound(begin, stop, c1);
          for (const std::uint32_t* it = lo; it != hi; ++it) {
            blk.col_off.push_back(static_cast<std::uint16_t>(*it - c0));
            blk.values.push_back(
                values[static_cast<std::size_t>(it - col_idx.data())]);
          }
          blk.row_start[r - r0 + 1] =
              static_cast<std::uint32_t>(blk.col_off.size());
        }
        if (!blk.col_off.empty()) {
          s.spe_blocks_[t].push_back(std::move(blk));
          ++s.total_blocks_;
        }
      }
    }
  }
  return s;
}

LocalStoreSpmv::LocalStoreSpmv(LocalStoreSpmv&&) noexcept = default;
LocalStoreSpmv& LocalStoreSpmv::operator=(LocalStoreSpmv&&) noexcept = default;
LocalStoreSpmv::~LocalStoreSpmv() = default;

double LocalStoreSpmv::bytes_per_nnz() const {
  if (nnz_ == 0) return 0.0;
  std::uint64_t bytes = 0;
  for (const auto& blocks : spe_blocks_) {
    for (const Block& b : blocks) {
      bytes += b.values.size() * sizeof(double) +
               b.col_off.size() * sizeof(std::uint16_t) +
               b.row_start.size() * sizeof(std::uint32_t);
    }
  }
  return static_cast<double>(bytes) / static_cast<double>(nnz_);
}

DmaStats LocalStoreSpmv::stats() const {
  MutexLock lock(stats_->mutex);
  return stats_->totals;
}

void LocalStoreSpmv::reset_stats() {
  MutexLock lock(stats_->mutex);
  stats_->totals = DmaStats{};
}

std::unique_ptr<engine::Scratch> LocalStoreSpmv::make_scratch() const {
  auto scratch = std::make_unique<LocalStoreScratch>();
  scratch->spes.resize(params_.spes);
  for (auto& spe : scratch->spes) {
    spe.ls_x.assign(x_window_, 0.0);
    spe.ls_y.assign(y_window_, 0.0);
    for (auto& buf : spe.ls_values) buf.assign(chunk_nnz_, 0.0);
    for (auto& buf : spe.ls_cols) buf.assign(chunk_nnz_, 0);
  }
  return scratch;
}

void LocalStoreSpmv::execute(const double* x, double* y,
                             engine::Scratch* scratch) const {
  auto& stage = *static_cast<LocalStoreScratch*>(scratch);
  const double* xp = x;
  double* yp = y;

  // Per-call accounting: SPEs add to these atomics, and the call merges
  // one total into the shared cumulative stats at the end — concurrent
  // multiply() calls never touch each other's counters mid-flight.
  std::atomic<std::uint64_t> x_bytes{0}, y_bytes{0}, m_bytes{0}, dmas{0};

  auto work = [&](unsigned t) {
    LocalStoreScratch::Spe& spe = stage.spes[t];
    const std::size_t chunk_nnz = spe.ls_values[0].size();
    for (const Block& blk : spe_blocks_[t]) {
      // DMA 1: stage the x window into the local store.
      const std::size_t xw = blk.col1 - blk.col0;
      std::memcpy(spe.ls_x.data(), xp + blk.col0, xw * sizeof(double));
      x_bytes.fetch_add(xw * sizeof(double), std::memory_order_relaxed);
      dmas.fetch_add(1, std::memory_order_relaxed);

      // DMA 2: stage the y window (read for accumulate).
      const std::size_t yw = blk.row1 - blk.row0;
      std::memcpy(spe.ls_y.data(), yp + blk.row0, yw * sizeof(double));
      y_bytes.fetch_add(yw * sizeof(double), std::memory_order_relaxed);
      dmas.fetch_add(1, std::memory_order_relaxed);

      // Double-buffered nonzero stream: chunk k lands in buffer k % 2 —
      // on real hardware the next chunk's DMA would overlap this chunk's
      // compute; functionally we alternate buffers in the same order.
      const std::size_t total = blk.values.size();
      std::size_t staged = 0;
      std::uint32_t r = 0;         // row cursor within the block
      std::size_t row_consumed = 0;  // nonzeros of row r already applied
      int which = 0;
      while (staged < total) {
        const std::size_t n = std::min(chunk_nnz, total - staged);
        std::memcpy(spe.ls_values[which].data(), blk.values.data() + staged,
                    n * sizeof(double));
        std::memcpy(spe.ls_cols[which].data(), blk.col_off.data() + staged,
                    n * sizeof(std::uint16_t));
        m_bytes.fetch_add(
            n * (sizeof(double) + sizeof(std::uint16_t)),
            std::memory_order_relaxed);
        dmas.fetch_add(1, std::memory_order_relaxed);

        // Compute from the staged chunk only (never from main memory).
        const double* cv = spe.ls_values[which].data();
        const std::uint16_t* cc = spe.ls_cols[which].data();
        std::size_t k = 0;
        while (k < n) {
          // Advance the row cursor past exhausted rows.
          while (blk.row_start[r + 1] - blk.row_start[r] == row_consumed) {
            ++r;
            row_consumed = 0;
          }
          const std::size_t row_remaining =
              blk.row_start[r + 1] - blk.row_start[r] - row_consumed;
          const std::size_t take = std::min(row_remaining, n - k);
          double acc = 0.0;
          for (std::size_t i = 0; i < take; ++i) {
            acc += cv[k + i] * spe.ls_x[cc[k + i]];
          }
          spe.ls_y[r] += acc;
          row_consumed += take;
          k += take;
        }
        staged += n;
        which ^= 1;
      }

      // DMA 3: write the y window back.
      std::memcpy(yp + blk.row0, spe.ls_y.data(), yw * sizeof(double));
      y_bytes.fetch_add(yw * sizeof(double), std::memory_order_relaxed);
      dmas.fetch_add(1, std::memory_order_relaxed);
    }
  };

  ctx_->parallel_for(params_.spes, work);

  // Relaxed loads: parallel_for's barrier already ordered every SPE's
  // final fetch_add before this point.
  MutexLock lock(stats_->mutex);
  stats_->totals.x_bytes += x_bytes.load(std::memory_order_relaxed);
  stats_->totals.y_bytes += y_bytes.load(std::memory_order_relaxed);
  stats_->totals.matrix_bytes += m_bytes.load(std::memory_order_relaxed);
  stats_->totals.dma_transfers += dmas.load(std::memory_order_relaxed);
}

}  // namespace spmv
