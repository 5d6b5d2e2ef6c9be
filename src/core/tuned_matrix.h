// The tuned multicore SpMV — the library's primary public API.
//
// TunedMatrix::plan() runs the paper's full optimization pipeline:
//   1. rows are partitioned across threads balanced by nonzeros (§4.3);
//   2. each thread block is split by the sparse cache-blocking and TLB
//      heuristics (§4.2);
//   3. each cache block picks its own minimum-footprint encoding —
//      {BCSR | BCOO} × {1,2,4}² register tiles × {16 | 32}-bit indices —
//      via the one-pass tuner (§4.2);
//   4. blocks are encoded on their owning worker thread so first-touch
//      places them NUMA-locally (§4.3);
//   5. a pack-cost crossover decides the batch width from which
//      multiply_batch() runs fused (OSKI's "multiple vectors", §2.1).
// multiply() then runs y ← y + A·x on the shared engine pool (borrowed from
// the plan's ExecutionContext) with the specialized kernel for each block
// (§4.1).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/blocked.h"
#include "core/kernels_block.h"
#include "core/options.h"
#include "core/partition.h"
#include "core/tuner.h"
#include "engine/spmv_plan.h"
#include "matrix/csr.h"

namespace spmv {

/// Everything the planner decided, for reporting and tests (this is the
/// data behind the Table 2-style optimization dump).
struct TuningReport {
  std::uint32_t rows = 0, cols = 0;
  std::uint64_t nnz = 0;
  unsigned threads = 1;
  std::size_t cache_blocks = 0;
  /// Footprint of the encoded matrix vs plain 32-bit CSR.
  std::uint64_t tuned_bytes = 0;
  std::uint64_t csr_bytes = 0;
  /// Stored (padded) nonzeros over true nonzeros, >= 1.
  double fill_ratio = 1.0;
  /// How many cache blocks picked each feature.
  std::size_t blocks_bcoo = 0;
  std::size_t blocks_idx16 = 0;
  std::size_t blocks_register_blocked = 0;  ///< tile area > 1
  std::size_t blocks_simd = 0;              ///< non-scalar kernel backend
  /// Kernel backend the plan resolved TuningOptions::backend to on this
  /// host.  Individual blocks may still fall back to scalar when the
  /// backend has no kernel for their shape — see BlockDecision::backend.
  KernelBackend backend = KernelBackend::kScalar;
  /// Per-block decisions in (thread, block) order.
  struct BlockInfo {
    unsigned thread = 0;
    BlockExtent extent;
    BlockDecision decision;
  };
  std::vector<BlockInfo> blocks;
  /// Prefetch distance in effect after planning (tuned when
  /// options.tune_prefetch is set).
  unsigned prefetch_distance = 0;
  /// Fused-batch crossover the planner decided: the smallest batch width
  /// at which execute_batch() packs operands into panels and runs the
  /// fused SpMM sweep (one matrix stream per chunk) instead of looping
  /// single multiplies.  0 = fusion off — packing would cost more than the
  /// re-streams it saves (hypersparse matrices).
  unsigned fused_batch_min_width = 0;
  double plan_seconds = 0.0;

  [[nodiscard]] double compression_ratio() const {
    return csr_bytes == 0 ? 1.0
                          : static_cast<double>(tuned_bytes) /
                                static_cast<double>(csr_bytes);
  }
  [[nodiscard]] std::string summary() const;
};

class TunedMatrix final : public engine::SpmvPlan {
 public:
  /// Plan and encode `a` under `opt`.  The input CSR can be discarded
  /// afterwards; the TunedMatrix owns all encoded storage.
  static TunedMatrix plan(const CsrMatrix& a, const TuningOptions& opt);

  TunedMatrix(TunedMatrix&&) noexcept;
  TunedMatrix& operator=(TunedMatrix&&) noexcept;
  TunedMatrix(const TunedMatrix&) = delete;
  TunedMatrix& operator=(const TunedMatrix&) = delete;
  ~TunedMatrix() override;

  [[nodiscard]] std::uint32_t rows() const override { return report_.rows; }
  [[nodiscard]] std::uint32_t cols() const override { return report_.cols; }
  [[nodiscard]] std::uint64_t nnz() const { return report_.nnz; }
  [[nodiscard]] const TuningReport& report() const { return report_; }
  [[nodiscard]] const TuningOptions& options() const { return opt_; }

  // engine::SpmvPlan
  [[nodiscard]] unsigned plan_threads() const override {
    return report_.threads;
  }
  [[nodiscard]] engine::ExecutionContext& context() const override {
    return *ctx_;
  }
  /// Carries the fused-batch panel buffers.
  [[nodiscard]] std::unique_ptr<engine::Scratch> make_scratch() const override;
  void execute(const double* x, double* y,
               engine::Scratch* scratch) const override;
  /// Batched execution with two amortization levers.  Batches at or above
  /// report().fused_batch_min_width run fused: chunks of up to
  /// kMaxFusedWidth right-hand sides are packed into row-major k-wide
  /// panels (scratch-resident, allocation-free in steady state) and each
  /// worker streams its blocks ONCE per chunk, applying every nonzero to
  /// all k right-hand sides — the §2.1 "multiple vectors" optimization.
  /// The rest of the batch (all of it when fusion is off) runs as a
  /// single dispatch that sweeps each right-hand side per worker,
  /// amortizing only the barrier.  Both paths are bit-identical to looped
  /// multiply() calls.  There is no ordering between right-hand sides —
  /// no xs[j] may alias any ys[i] (multiply_batch() enforces this).
  void execute_batch(std::span<const double* const> xs,
                     std::span<double* const> ys,
                     engine::Scratch* scratch) const override;

 private:
  TunedMatrix() = default;

  /// One dispatch in which each worker sweeps its blocks once per
  /// right-hand side.
  void execute_batch_looped(std::span<const double* const> xs,
                            std::span<double* const> ys) const;
  /// One fused sweep of every block over a w-wide panel pair.
  void fused_sweep(const double* xp, double* yp, unsigned w) const;

  TuningOptions opt_;
  TuningReport report_;
  /// blocks_[t] are the encoded cache blocks owned by worker t;
  /// kernels_[t][b] is blocks_[t][b]'s kernel, resolved once at plan time
  /// (backend lookup + per-shape fallback) so multiply dispatches straight
  /// through the pointer; fused_kernels_[t][b] are its fused SpMM kernels
  /// for the batch panel widths.
  std::vector<std::vector<EncodedBlock>> blocks_;
  std::vector<std::vector<BlockKernelFn>> kernels_;
  std::vector<std::vector<FusedBlockKernels>> fused_kernels_;
  std::vector<RowRange> thread_rows_;
  engine::ExecutionContext* ctx_ = nullptr;
};

}  // namespace spmv
