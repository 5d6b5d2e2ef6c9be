// Hand-vectorized register-tile kernel backends with runtime dispatch.
//
// The paper's biggest single-socket code-optimization wins come from
// explicitly SIMD-ized register-tile kernels (§4.1, Table 2).  This layer
// provides them without baking an ISA into the build: the kernels are
// compiled with per-function target attributes (no -march flags needed),
// registered per (format × tile shape × index width), and selected at plan
// time from what host_info() reports the machine supports.
//
// Determinism contract: every backend kernel performs the *same IEEE
// operations in the same order* as the scalar reference in
// kernels_block.h — vectorization runs across independent accumulation
// chains (output rows, or the 1×1 kernel's four software-pipelined
// accumulators), never across a single chain, and multiply/add are kept
// separate (no FMA contraction).  A block therefore computes results equal
// to the scalar kernel's under any backend, which is what lets the engine
// promise bit-identical concurrent multiplies regardless of dispatch.
//
// Tile shapes with no profitable vector form (e.g. 1×1/1×2 BCOO, whose
// scattered single-row writes AVX2 cannot express) are simply absent from
// the registry and fall back to scalar per block; the per-block outcome is
// recorded in the TuningReport.
#pragma once

#include "core/kernels_block.h"
#include "core/options.h"

namespace spmv {

/// Whether the host can execute `backend` at all (ISA support; says
/// nothing about per-shape coverage).  kScalar and kAuto are always
/// available.
bool kernel_backend_available(KernelBackend backend);

/// Resolve a requested backend against the host: kAuto becomes the widest
/// backend with registered kernels the host supports (AVX2 today); an
/// explicit request the host cannot run degrades to scalar.
KernelBackend resolve_kernel_backend(KernelBackend requested);

/// The registered SIMD kernel for (backend, fmt, idx, br, bc), or nullptr
/// when that backend has no specialization for the shape.  `backend` must
/// be a concrete SIMD backend; kScalar/kAuto return nullptr.  The caller is
/// responsible for having resolved host availability first — the returned
/// pointer executes the backend's ISA unconditionally.
BlockKernelFn simd_block_kernel(KernelBackend backend, BlockFormat fmt,
                                IndexWidth idx, unsigned br, unsigned bc);

/// The registered fused SpMM kernel for (backend, fmt, idx, br, bc) at
/// panel width `k`, or nullptr when unregistered.  AVX2 covers every tile
/// shape at k ∈ {2, 4, 8}: unlike the single-vector case, the k packed
/// right-hand sides give every shape a contiguous vector dimension, so
/// even 1×1/1×2 BCOO (scalar-only single-vector) vectorize fused.  Other
/// widths return nullptr (the runtime-width scalar kernel serves them).
BlockKernelKFn simd_block_kernel_k(KernelBackend backend, BlockFormat fmt,
                                   IndexWidth idx, unsigned br, unsigned bc,
                                   unsigned k);

}  // namespace spmv
