// Tuning knobs for the multicore SpMV implementation.
//
// These correspond to the optimization categories of the paper's Table 2:
// code optimizations (kernel backend, prefetch distance), data structure
// optimizations (register blocking, BCOO, index compression, cache/TLB
// blocking), and parallelization optimizations (threads).  The other two
// Table 2 parallelization rows are not per-plan knobs: process affinity
// is the execution context's (engine::ExecutionConfig::pin_threads,
// applied when its worker pool is created), and NUMA-aware first touch
// is how every parallel plan encodes — each thread's blocks on the
// worker that streams them.  Whether a batch runs fused is the planner's
// pack-cost crossover (TuningReport::fused_batch_min_width).  The
// plain-CSR inner-loop flavor (KernelFlavor) is a parameter of spmv_csr
// itself, not a planner knob.
#pragma once

#include <cstddef>
#include <cstdint>

namespace spmv::engine {
class ExecutionContext;
}  // namespace spmv::engine

namespace spmv {

/// Low-level inner-loop implementation strategy (paper §4.1).
enum class KernelFlavor {
  kNaive,        ///< conventional CSR: per-row begin/end pointer loads
  kSingleIndex,  ///< one streaming nonzero cursor (paper's simplified loop)
  kBranchless,   ///< segmented-scan-style flush, no inner-loop branch
  kPipelined,    ///< manually software-pipelined / unrolled inner loop
  kSimd,         ///< explicit SIMD (AVX2 gather when available)
};

const char* to_string(KernelFlavor flavor);

/// Register-tile kernel code backend (paper §4.1: "explicit SIMDization").
/// The scalar kernels are the portable reference; SIMD backends are
/// hand-written specializations selected at *plan* time from what the host
/// actually supports (runtime dispatch — the build needs no -march flags).
/// Every backend accumulates in the same order as the scalar reference, so
/// a block computes identical results under any backend.
enum class KernelBackend : std::uint8_t {
  kAuto,    ///< pick the best backend host_info() reports support for
  kScalar,  ///< portable C++ reference kernels
  kAvx2,    ///< hand-vectorized AVX2 (x86-64 256-bit) kernels
};

const char* to_string(KernelBackend backend);

struct TuningOptions {
  // --- data structure optimizations (§4.2) ---
  /// Allow register blocking with power-of-two tiles up to
  /// max_block_rows × max_block_cols.
  bool register_blocking = true;
  unsigned max_block_rows = 4;
  unsigned max_block_cols = 4;
  /// Allow BCOO storage where empty rows would waste row-pointer space.
  bool allow_bcoo = true;
  /// Allow 16-bit column (and BCOO row) indices when the block fits.
  bool index_compression = true;
  /// Sparse cache blocking: bound the source-vector cache lines touched per
  /// block (heuristic, not search).
  bool cache_blocking = true;
  /// Cache capacity the blocking heuristic may assume; 0 = probe the host.
  std::size_t cache_bytes_for_blocking = 0;
  /// TLB blocking: additionally bound unique source-vector pages per block.
  bool tlb_blocking = true;
  /// TLB reach in entries for the blocking heuristic; 0 = a 64-entry L1 TLB
  /// like the Opteron the paper blocks for.
  std::size_t tlb_entries = 0;

  // --- code optimizations (§4.1) ---
  /// Register-tile kernel backend.  kAuto resolves at plan time to the
  /// widest backend the host supports (AVX2 today).  Tile shapes a SIMD
  /// backend has no specialization for fall back to scalar per block; the
  /// per-block outcome is recorded in the TuningReport.  Force kScalar to
  /// debug or to baseline the SIMD gain.
  KernelBackend backend = KernelBackend::kAuto;
  /// Software prefetch distance in value elements ahead of the cursor
  /// (0 disables; the paper tunes 0..512).
  unsigned prefetch_distance = 0;
  /// Measure a few candidate prefetch distances at plan time and keep the
  /// fastest (the paper's generator tunes the distance from 0 to one page).
  bool tune_prefetch = false;

  // --- parallelization optimizations (§4.3) ---
  unsigned threads = 1;
  /// Execution context whose shared worker pool the plan borrows for both
  /// NUMA-aware encoding and every multiply; nullptr means the process-wide
  /// engine::ExecutionContext::global().  The context must outlive the
  /// plan, and its ExecutionConfig decides whether the workers are pinned.
  engine::ExecutionContext* context = nullptr;

  /// Everything off: the naive serial CSR configuration.
  static TuningOptions naive() {
    TuningOptions o;
    o.register_blocking = false;
    o.allow_bcoo = false;
    o.index_compression = false;
    o.cache_blocking = false;
    o.tlb_blocking = false;
    o.prefetch_distance = 0;
    o.threads = 1;
    return o;
  }

  /// Everything on, with a given thread count.  The prefetch distance
  /// is searched at plan time; a caller that turns the search off keeps
  /// distance 0 (a fixed distance of 64 made a cache-resident
  /// FEM/Cantilever plan 3-4x slower, and the search picks 0 for most
  /// suite matrices).
  static TuningOptions full(unsigned threads_) {
    TuningOptions o;
    o.threads = threads_;
    o.tune_prefetch = true;
    return o;
  }
};

}  // namespace spmv
