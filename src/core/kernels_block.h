// Register-blocked SpMV kernels — the portable scalar reference set.
//
// The paper generated these with a Perl script over {format} × {r × c} ×
// {index width}; here the generator is the C++ template machinery.  Each
// instantiation has fully unrolled r×c tile arithmetic (enabling SIMD
// autovectorization), a single streaming cursor over the tile arrays, and
// optional software prefetch of values and indices.
//
// Hand-vectorized backends live in core/kernels_simd.* and are selected at
// runtime through the KernelBackend parameter of block_kernel(): the
// scalar templates below stay the semantics reference every backend must
// reproduce bit-for-bit (same accumulation order, no FMA contraction).
//
// Boundary contract (established by the encoder, see encode.cpp):
//  * column offsets satisfy col0 + cols[t] + C <= matrix cols, so gathers
//    never read past x (edge tiles are shifted left to overlap instead);
//  * BCOO row offsets are *element* offsets with row0 + brows[t] + R <=
//    row1, so scatters never write outside the block's rows (edge tiles
//    shifted up);
//  * BCSR handles a ragged final tile row explicitly, because its grid is
//    anchored at row0 and cannot shift.
#pragma once

#include <algorithm>
#include <cstdint>

#include "core/blocked.h"
#include "core/options.h"

namespace spmv {

/// y ← y + block·x for one encoded cache block.  `x` and `y` are the global
/// vectors (the block adds its col0/row0 offsets internally).
using BlockKernelFn = void (*)(const EncodedBlock&, const double* x,
                               double* y, unsigned prefetch_distance);

/// Widest panel the fused kernels accumulate in registers/stack at once.
/// The engine's batch path never packs wider chunks; the runtime-width
/// scalar kernels sweep wider operands in sub-panels of this width.
inline constexpr unsigned kMaxFusedWidth = 8;

/// Fused multi-vector (SpMM) kernel: Y ← Y + block·X for `k` packed
/// right-hand sides.  `x`/`y` are row-major panels over the *global*
/// vectors — element c of right-hand side j lives at x[c*k + j] — and the
/// block applies its col0/row0 offsets internally, scaled by k.  Each
/// nonzero tile is loaded once and applied to all k right-hand sides;
/// per right-hand side the accumulation chain is exactly the scalar
/// single-vector kernel's, so a fused sweep is bit-identical to k
/// independent sweeps under any backend.
using BlockKernelKFn = void (*)(const EncodedBlock&, const double* x,
                                double* y, unsigned prefetch_distance,
                                unsigned k);

/// The fused kernels one block dispatches through, resolved once at plan
/// time: the specialized widths (2, 4, 8 — SIMD where registered) plus the
/// runtime-width scalar fallback for ragged chunk widths.
struct FusedBlockKernels {
  BlockKernelKFn k2 = nullptr;
  BlockKernelKFn k4 = nullptr;
  BlockKernelKFn k8 = nullptr;
  BlockKernelKFn generic = nullptr;

  [[nodiscard]] BlockKernelKFn for_width(unsigned w) const {
    switch (w) {
      case 2: return k2;
      case 4: return k4;
      case 8: return k8;
      default: return generic;
    }
  }
};

/// Look up the kernel for a block's (fmt, idx, br, bc) under `backend`.
/// kAuto resolves to the widest backend the host supports; a backend the
/// host lacks, or that has no specialization for this tile shape, degrades
/// gracefully to kScalar.  The scalar kernel always exists, so a valid
/// shape never fails to dispatch.
/// Throws std::out_of_range for unsupported tile shapes.
BlockKernelFn block_kernel(BlockFormat fmt, IndexWidth idx, unsigned br,
                           unsigned bc,
                           KernelBackend backend = KernelBackend::kScalar);

/// The backend block_kernel() would actually dispatch to for this shape
/// under `backend` — i.e. the request after host-capability resolution and
/// per-shape fallback.  This is what plans record per block so Table-2
/// style dumps show which blocks run SIMD.
KernelBackend block_kernel_backend(BlockFormat fmt, IndexWidth idx,
                                   unsigned br, unsigned bc,
                                   KernelBackend backend);

/// Convenience: run the right kernel for `b`.
void run_block(const EncodedBlock& b, const double* x, double* y,
               unsigned prefetch_distance,
               KernelBackend backend = KernelBackend::kScalar);

/// Look up the fused SpMM kernel for a block shape at panel width `k`.
/// Specialized widths (2, 4, 8) may dispatch to a SIMD backend; any other
/// width resolves to the runtime-width scalar kernel, which handles
/// arbitrary k (sweeping sub-panels of kMaxFusedWidth lanes).  Throws
/// std::out_of_range for unsupported tile shapes and std::invalid_argument
/// for k == 0.
BlockKernelKFn block_kernel_k(BlockFormat fmt, IndexWidth idx, unsigned br,
                              unsigned bc, unsigned k,
                              KernelBackend backend = KernelBackend::kScalar);

/// The backend block_kernel_k() would dispatch to for this shape and width
/// under `backend` (host resolution + per-shape/per-width fallback).
KernelBackend block_kernel_k_backend(BlockFormat fmt, IndexWidth idx,
                                     unsigned br, unsigned bc, unsigned k,
                                     KernelBackend backend);

/// All fused kernels for one block shape, resolved once (plan time).
FusedBlockKernels fused_block_kernels(BlockFormat fmt, IndexWidth idx,
                                      unsigned br, unsigned bc,
                                      KernelBackend backend);

/// Convenience: run the fused kernel for `b` at width `k`.
void run_block_k(const EncodedBlock& b, const double* x, double* y,
                 unsigned prefetch_distance, unsigned k,
                 KernelBackend backend = KernelBackend::kScalar);

namespace detail {

/// Registry slot for a tile dimension — the paper's power-of-two dims up
/// to 4×4 (§4.2); -1 for anything else.  Shared by the scalar dispatch
/// and the SIMD backend tables so they index identically.
constexpr int tile_dim_slot(unsigned d) {
  return d == 1 ? 0 : d == 2 ? 1 : d == 4 ? 2 : -1;
}

template <typename Idx>
const Idx* col_array(const EncodedBlock& b) {
  if constexpr (sizeof(Idx) == 2) {
    return b.col16.data();
  } else {
    return b.col32.data();
  }
}

template <typename Idx>
const Idx* brow_array(const EncodedBlock& b) {
  if constexpr (sizeof(Idx) == 2) {
    return b.brow16.data();
  } else {
    return b.brow32.data();
  }
}

template <unsigned R, unsigned C, typename Idx>
void bcsr_kernel(const EncodedBlock& b, const double* x, double* y,
                 unsigned prefetch_distance) {
  const double* v = b.values.data();
  const Idx* cols = col_array<Idx>(b);
  const std::uint32_t* rp = b.row_ptr.data();
  const double* xb = x + b.col0;
  double* yb = y + b.row0;
  const std::uint32_t span = b.row1 - b.row0;
  const std::uint32_t full_tile_rows = span / R;
  const std::uint32_t tail_height = span % R;
  const std::uint64_t pf = prefetch_distance;

  std::uint64_t t = 0;
  for (std::uint32_t tr = 0; tr < full_tile_rows; ++tr) {
    const std::uint64_t end = rp[tr + 1];
    if constexpr (R == 1 && C == 1) {
      // Software-pipelined scalar path (§4.1): unrolled by four with
      // independent accumulators, exactly like the tuned CSR kernel —
      // 1x1 tiles are plain CSR and deserve the same treatment.
      double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
      for (; t + 4 <= end; t += 4) {
        if (pf != 0) {
          __builtin_prefetch(v + t + pf, 0, 0);
          __builtin_prefetch(cols + t + pf, 0, 0);
        }
        a0 += v[t + 0] * xb[cols[t + 0]];
        a1 += v[t + 1] * xb[cols[t + 1]];
        a2 += v[t + 2] * xb[cols[t + 2]];
        a3 += v[t + 3] * xb[cols[t + 3]];
      }
      for (; t < end; ++t) a0 += v[t] * xb[cols[t]];
      yb[tr] += (a0 + a1) + (a2 + a3);
    } else {
      double acc[R] = {};
      for (; t < end; ++t) {
        if (pf != 0) {
          __builtin_prefetch(v + (t + pf) * R * C, 0, 0);
          __builtin_prefetch(cols + t + pf, 0, 0);
        }
        const double* tile = v + t * R * C;
        const double* xs = xb + cols[t];
        for (unsigned i = 0; i < R; ++i) {
          double a = 0.0;
          for (unsigned j = 0; j < C; ++j) {
            a += tile[i * C + j] * xs[j];
          }
          acc[i] += a;
        }
      }
      double* ys = yb + static_cast<std::uint64_t>(tr) * R;
      for (unsigned i = 0; i < R; ++i) ys[i] += acc[i];
    }
  }
  if (tail_height != 0) {
    // Ragged final tile row: compute the full tile (padding rows hold
    // explicit zeros) but write only the rows that exist.
    const std::uint64_t end = rp[full_tile_rows + 1];
    double acc[R] = {};
    for (; t < end; ++t) {
      const double* tile = v + t * R * C;
      const double* xs = xb + cols[t];
      for (unsigned i = 0; i < R; ++i) {
        double a = 0.0;
        for (unsigned j = 0; j < C; ++j) {
          a += tile[i * C + j] * xs[j];
        }
        acc[i] += a;
      }
    }
    double* ys = yb + static_cast<std::uint64_t>(full_tile_rows) * R;
    for (unsigned i = 0; i < tail_height; ++i) ys[i] += acc[i];
  }
}

template <unsigned R, unsigned C, typename Idx>
void bcoo_kernel(const EncodedBlock& b, const double* x, double* y,
                 unsigned prefetch_distance) {
  const double* v = b.values.data();
  const Idx* cols = col_array<Idx>(b);
  const Idx* brows = brow_array<Idx>(b);
  const double* xb = x + b.col0;
  double* yb = y + b.row0;
  const std::uint64_t tiles = b.tiles;
  const std::uint64_t pf = prefetch_distance;

  // Branchless by construction: no row loop at all, every tile carries its
  // own destination offset (the paper uses BCOO exactly for matrices whose
  // empty rows would make the BCSR row loop waste time and storage).
  for (std::uint64_t t = 0; t < tiles; ++t) {
    if (pf != 0) {
      __builtin_prefetch(v + (t + pf) * R * C, 0, 0);
      __builtin_prefetch(cols + t + pf, 0, 0);
      __builtin_prefetch(brows + t + pf, 0, 0);
    }
    const double* tile = v + t * R * C;
    const double* xs = xb + cols[t];
    double* ys = yb + brows[t];
    for (unsigned i = 0; i < R; ++i) {
      double a = 0.0;
      for (unsigned j = 0; j < C; ++j) {
        a += tile[i * C + j] * xs[j];
      }
      ys[i] += a;
    }
  }
}

// ---- Fused multi-vector (SpMM) reference kernels ----
//
// Same sweep order as the single-vector kernels above, with every tile
// applied to `w` packed right-hand sides.  K > 0 bakes the width in (the
// compiler fully unrolls the lane loops); K == 0 reads the runtime width
// and, when it exceeds kMaxFusedWidth, re-walks each accumulation span in
// sub-panels so the stack accumulators stay bounded.  Per right-hand side
// the chains are exactly the single-vector scalar kernel's — fused output
// is bit-identical to k independent single-vector sweeps.

template <unsigned R, unsigned C, unsigned K, typename Idx>
void bcsr_kernel_k(const EncodedBlock& b, const double* x, double* y,
                   unsigned prefetch_distance, unsigned k) {
  constexpr unsigned kCap = K == 0 ? kMaxFusedWidth : K;
  const unsigned width = K == 0 ? k : K;
  const double* v = b.values.data();
  const Idx* cols = col_array<Idx>(b);
  const std::uint32_t* rp = b.row_ptr.data();
  const double* xb = x + static_cast<std::uint64_t>(b.col0) * width;
  double* yb = y + static_cast<std::uint64_t>(b.row0) * width;
  const std::uint32_t span = b.row1 - b.row0;
  const std::uint32_t full_tile_rows = span / R;
  const std::uint32_t tail_height = span % R;
  const std::uint64_t pf = prefetch_distance;

  for (std::uint32_t tr = 0; tr < full_tile_rows; ++tr) {
    const std::uint64_t begin = rp[tr];
    const std::uint64_t end = rp[tr + 1];
    for (unsigned j0 = 0; j0 < width; j0 += kCap) {
      const unsigned w = std::min(kCap, width - j0);
      if constexpr (R == 1 && C == 1) {
        // The single-vector 1×1 kernel's four software-pipelined chains,
        // replicated per lane.
        double a0[kCap] = {}, a1[kCap] = {}, a2[kCap] = {}, a3[kCap] = {};
        std::uint64_t t = begin;
        for (; t + 4 <= end; t += 4) {
          if (pf != 0) {
            __builtin_prefetch(v + t + pf, 0, 0);
            __builtin_prefetch(cols + t + pf, 0, 0);
          }
          const double* x0 =
              xb + static_cast<std::uint64_t>(cols[t + 0]) * width + j0;
          const double* x1 =
              xb + static_cast<std::uint64_t>(cols[t + 1]) * width + j0;
          const double* x2 =
              xb + static_cast<std::uint64_t>(cols[t + 2]) * width + j0;
          const double* x3 =
              xb + static_cast<std::uint64_t>(cols[t + 3]) * width + j0;
          for (unsigned j = 0; j < w; ++j) {
            a0[j] += v[t + 0] * x0[j];
            a1[j] += v[t + 1] * x1[j];
            a2[j] += v[t + 2] * x2[j];
            a3[j] += v[t + 3] * x3[j];
          }
        }
        for (; t < end; ++t) {
          const double* xs =
              xb + static_cast<std::uint64_t>(cols[t]) * width + j0;
          for (unsigned j = 0; j < w; ++j) a0[j] += v[t] * xs[j];
        }
        double* ys = yb + static_cast<std::uint64_t>(tr) * width + j0;
        for (unsigned j = 0; j < w; ++j) {
          ys[j] += (a0[j] + a1[j]) + (a2[j] + a3[j]);
        }
      } else {
        double acc[R][kCap] = {};
        for (std::uint64_t t = begin; t < end; ++t) {
          if (pf != 0) {
            __builtin_prefetch(v + (t + pf) * R * C, 0, 0);
            __builtin_prefetch(cols + t + pf, 0, 0);
          }
          const double* tile = v + t * R * C;
          const double* xs =
              xb + static_cast<std::uint64_t>(cols[t]) * width + j0;
          for (unsigned i = 0; i < R; ++i) {
            double a[kCap] = {};
            for (unsigned c = 0; c < C; ++c) {
              const double tv = tile[i * C + c];
              const double* xc = xs + static_cast<std::uint64_t>(c) * width;
              for (unsigned j = 0; j < w; ++j) a[j] += tv * xc[j];
            }
            for (unsigned j = 0; j < w; ++j) acc[i][j] += a[j];
          }
        }
        double* ys =
            yb + static_cast<std::uint64_t>(tr) * R * width + j0;
        for (unsigned i = 0; i < R; ++i) {
          for (unsigned j = 0; j < w; ++j) {
            ys[static_cast<std::uint64_t>(i) * width + j] += acc[i][j];
          }
        }
      }
    }
  }
  if (tail_height != 0) {
    // Ragged final tile row: full-tile arithmetic, partial writeback.
    const std::uint64_t begin = rp[full_tile_rows];
    const std::uint64_t end = rp[full_tile_rows + 1];
    for (unsigned j0 = 0; j0 < width; j0 += kCap) {
      const unsigned w = std::min(kCap, width - j0);
      double acc[R][kCap] = {};
      for (std::uint64_t t = begin; t < end; ++t) {
        const double* tile = v + t * R * C;
        const double* xs =
            xb + static_cast<std::uint64_t>(cols[t]) * width + j0;
        for (unsigned i = 0; i < R; ++i) {
          double a[kCap] = {};
          for (unsigned c = 0; c < C; ++c) {
            const double tv = tile[i * C + c];
            const double* xc = xs + static_cast<std::uint64_t>(c) * width;
            for (unsigned j = 0; j < w; ++j) a[j] += tv * xc[j];
          }
          for (unsigned j = 0; j < w; ++j) acc[i][j] += a[j];
        }
      }
      double* ys =
          yb + static_cast<std::uint64_t>(full_tile_rows) * R * width + j0;
      for (unsigned i = 0; i < tail_height; ++i) {
        for (unsigned j = 0; j < w; ++j) {
          ys[static_cast<std::uint64_t>(i) * width + j] += acc[i][j];
        }
      }
    }
  }
}

template <unsigned R, unsigned C, unsigned K, typename Idx>
void bcoo_kernel_k(const EncodedBlock& b, const double* x, double* y,
                   unsigned prefetch_distance, unsigned k) {
  constexpr unsigned kCap = K == 0 ? kMaxFusedWidth : K;
  const unsigned width = K == 0 ? k : K;
  const double* v = b.values.data();
  const Idx* cols = col_array<Idx>(b);
  const Idx* brows = brow_array<Idx>(b);
  const double* xb = x + static_cast<std::uint64_t>(b.col0) * width;
  double* yb = y + static_cast<std::uint64_t>(b.row0) * width;
  const std::uint64_t tiles = b.tiles;
  const std::uint64_t pf = prefetch_distance;

  for (std::uint64_t t = 0; t < tiles; ++t) {
    if (pf != 0) {
      __builtin_prefetch(v + (t + pf) * R * C, 0, 0);
      __builtin_prefetch(cols + t + pf, 0, 0);
      __builtin_prefetch(brows + t + pf, 0, 0);
    }
    const double* tile = v + t * R * C;
    const double* xs = xb + static_cast<std::uint64_t>(cols[t]) * width;
    double* ys = yb + static_cast<std::uint64_t>(brows[t]) * width;
    for (unsigned j0 = 0; j0 < width; j0 += kCap) {
      const unsigned w = std::min(kCap, width - j0);
      for (unsigned i = 0; i < R; ++i) {
        double a[kCap] = {};
        for (unsigned c = 0; c < C; ++c) {
          const double tv = tile[i * C + c];
          const double* xc =
              xs + static_cast<std::uint64_t>(c) * width + j0;
          for (unsigned j = 0; j < w; ++j) a[j] += tv * xc[j];
        }
        double* yr = ys + static_cast<std::uint64_t>(i) * width + j0;
        for (unsigned j = 0; j < w; ++j) yr[j] += a[j];
      }
    }
  }
}

}  // namespace detail

}  // namespace spmv
