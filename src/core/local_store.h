// Local-store SpMV executor — a functional emulation of the paper's Cell
// SPE kernel (§4.4 and [Williams et al., CF'06]).
//
// An SPE has no cache: all operands must be staged into its 256 KB local
// store by explicit DMA before compute can touch them.  The paper's Cell
// SpMV therefore (a) partitions the matrix into *dense* cache blocks whose
// source- and destination-vector windows fit the local store, (b) stores
// column indices as mandatory 2-byte offsets within the block, and (c)
// streams the nonzero payload through double-buffered DMA chunks so
// transfer overlaps compute.
//
// This executor reproduces that structure on a cache machine: "DMA" is an
// explicit memcpy into fixed-size staging buffers, chunked and alternated
// exactly as double buffering would issue them, with every staged byte
// accounted in DmaStats.  The staging buffers ("local stores") live in
// per-call engine scratch and each call's DMA counts merge into the
// cumulative stats under a lock, so concurrent multiply() calls are safe.
// It is the code path the machine model's Cell predictions describe, made
// runnable — tests verify the numerics, and the stats verify the traffic
// accounting the §6.1 analysis relies on (Cell's 10 B/nnz format).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/spmv_plan.h"
#include "matrix/csr.h"

namespace spmv {

struct LocalStoreParams {
  /// Emulated local-store capacity per SPE (Cell: 256 KB).
  std::size_t local_store_bytes = 256 * 1024;
  /// Number of emulated SPEs (threads).
  unsigned spes = 1;
  /// DMA chunk granularity for the double-buffered nonzero stream.
  std::size_t dma_chunk_bytes = 16 * 1024;
  /// Execution context whose worker pool runs the SPEs; nullptr means the
  /// process-wide engine::ExecutionContext::global().
  engine::ExecutionContext* context = nullptr;
};

struct DmaStats {
  std::uint64_t x_bytes = 0;       ///< source-vector window transfers
  std::uint64_t y_bytes = 0;       ///< destination read+write transfers
  std::uint64_t matrix_bytes = 0;  ///< value + index stream transfers
  std::uint64_t dma_transfers = 0; ///< number of discrete DMA operations

  [[nodiscard]] std::uint64_t total_bytes() const {
    return x_bytes + y_bytes + matrix_bytes;
  }
};

class LocalStoreSpmv final : public engine::SpmvPlan {
 public:
  /// Plan dense cache blocks sized to the local store and encode them in
  /// the Cell format (8-byte values + 2-byte in-block column offsets).
  static LocalStoreSpmv plan(const CsrMatrix& a, const LocalStoreParams& p);

  LocalStoreSpmv(LocalStoreSpmv&&) noexcept;
  LocalStoreSpmv& operator=(LocalStoreSpmv&&) noexcept;
  ~LocalStoreSpmv() override;

  [[nodiscard]] std::uint32_t rows() const override { return rows_; }
  [[nodiscard]] std::uint32_t cols() const override { return cols_; }
  /// Snapshot of the cumulative DMA statistics across all calls so far.
  [[nodiscard]] DmaStats stats() const;
  [[nodiscard]] std::size_t blocks() const { return total_blocks_; }
  /// Stored bytes per nonzero (paper: ~10 B/nnz for the Cell format).
  [[nodiscard]] double bytes_per_nnz() const;

  /// Reset the cumulative DMA statistics.
  void reset_stats();

  // engine::SpmvPlan
  [[nodiscard]] unsigned plan_threads() const override {
    return params_.spes;
  }
  [[nodiscard]] engine::ExecutionContext& context() const override {
    return *ctx_;
  }
  [[nodiscard]] std::unique_ptr<engine::Scratch> make_scratch() const override;
  void execute(const double* x, double* y,
               engine::Scratch* scratch) const override;

 private:
  LocalStoreSpmv() = default;

  /// One dense cache block in Cell format: row range × column window,
  /// CSR-of-the-window with 16-bit column offsets.
  struct Block {
    std::uint32_t row0 = 0, row1 = 0;
    std::uint32_t col0 = 0, col1 = 0;
    std::vector<std::uint32_t> row_start;  ///< row1 - row0 + 1 entries
    std::vector<std::uint16_t> col_off;
    std::vector<double> values;
  };

  /// Cumulative DMA accounting, shared by concurrent calls.
  struct StatsState;

  std::uint32_t rows_ = 0, cols_ = 0;
  std::uint64_t nnz_ = 0;
  std::size_t total_blocks_ = 0;
  LocalStoreParams params_;
  /// Staging geometry decided at plan time (elements, not bytes).
  std::uint32_t x_window_ = 0, y_window_ = 0;
  std::size_t chunk_nnz_ = 0;
  /// spe_blocks_[s] are the dense blocks emulated SPE s streams through.
  std::vector<std::vector<Block>> spe_blocks_;
  engine::ExecutionContext* ctx_ = nullptr;
  std::unique_ptr<StatsState> stats_;
};

}  // namespace spmv
