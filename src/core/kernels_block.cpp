#include "core/kernels_block.h"

#include <stdexcept>

#include "core/kernels_simd.h"

namespace spmv {

namespace {

template <unsigned R, unsigned C>
BlockKernelFn pick(BlockFormat fmt, IndexWidth idx) {
  if (fmt == BlockFormat::kBcsr) {
    return idx == IndexWidth::k16 ? detail::bcsr_kernel<R, C, std::uint16_t>
                                  : detail::bcsr_kernel<R, C, std::uint32_t>;
  }
  return idx == IndexWidth::k16 ? detail::bcoo_kernel<R, C, std::uint16_t>
                                : detail::bcoo_kernel<R, C, std::uint32_t>;
}

template <unsigned R>
BlockKernelFn pick_c(unsigned bc, BlockFormat fmt, IndexWidth idx) {
  switch (bc) {
    case 1: return pick<R, 1>(fmt, idx);
    case 2: return pick<R, 2>(fmt, idx);
    case 4: return pick<R, 4>(fmt, idx);
    default: throw std::out_of_range("block_kernel: unsupported tile cols");
  }
}

BlockKernelFn scalar_kernel(BlockFormat fmt, IndexWidth idx, unsigned br,
                            unsigned bc) {
  switch (br) {
    case 1: return pick_c<1>(bc, fmt, idx);
    case 2: return pick_c<2>(bc, fmt, idx);
    case 4: return pick_c<4>(bc, fmt, idx);
    default: throw std::out_of_range("block_kernel: unsupported tile rows");
  }
}

template <unsigned R, unsigned C, unsigned K>
BlockKernelKFn pick_k(BlockFormat fmt, IndexWidth idx) {
  if (fmt == BlockFormat::kBcsr) {
    return idx == IndexWidth::k16
               ? detail::bcsr_kernel_k<R, C, K, std::uint16_t>
               : detail::bcsr_kernel_k<R, C, K, std::uint32_t>;
  }
  return idx == IndexWidth::k16
             ? detail::bcoo_kernel_k<R, C, K, std::uint16_t>
             : detail::bcoo_kernel_k<R, C, K, std::uint32_t>;
}

template <unsigned R, unsigned C>
BlockKernelKFn pick_k_width(unsigned k, BlockFormat fmt, IndexWidth idx) {
  switch (k) {
    case 2: return pick_k<R, C, 2>(fmt, idx);
    case 4: return pick_k<R, C, 4>(fmt, idx);
    case 8: return pick_k<R, C, 8>(fmt, idx);
    default: return pick_k<R, C, 0>(fmt, idx);  // runtime width
  }
}

template <unsigned R>
BlockKernelKFn pick_k_c(unsigned bc, unsigned k, BlockFormat fmt,
                        IndexWidth idx) {
  switch (bc) {
    case 1: return pick_k_width<R, 1>(k, fmt, idx);
    case 2: return pick_k_width<R, 2>(k, fmt, idx);
    case 4: return pick_k_width<R, 4>(k, fmt, idx);
    default:
      throw std::out_of_range("block_kernel_k: unsupported tile cols");
  }
}

BlockKernelKFn scalar_kernel_k(BlockFormat fmt, IndexWidth idx, unsigned br,
                               unsigned bc, unsigned k) {
  switch (br) {
    case 1: return pick_k_c<1>(bc, k, fmt, idx);
    case 2: return pick_k_c<2>(bc, k, fmt, idx);
    case 4: return pick_k_c<4>(bc, k, fmt, idx);
    default:
      throw std::out_of_range("block_kernel_k: unsupported tile rows");
  }
}

}  // namespace

KernelBackend block_kernel_backend(BlockFormat fmt, IndexWidth idx,
                                   unsigned br, unsigned bc,
                                   KernelBackend backend) {
  if (detail::tile_dim_slot(br) < 0 || detail::tile_dim_slot(bc) < 0) {
    throw std::out_of_range("block_kernel: unsupported tile shape");
  }
  const KernelBackend be = resolve_kernel_backend(backend);
  return simd_block_kernel(be, fmt, idx, br, bc) != nullptr
             ? be
             : KernelBackend::kScalar;
}

BlockKernelFn block_kernel(BlockFormat fmt, IndexWidth idx, unsigned br,
                           unsigned bc, KernelBackend backend) {
  const KernelBackend be =
      block_kernel_backend(fmt, idx, br, bc, backend);  // validates shape
  return be == KernelBackend::kScalar
             ? scalar_kernel(fmt, idx, br, bc)
             : simd_block_kernel(be, fmt, idx, br, bc);
}

void run_block(const EncodedBlock& b, const double* x, double* y,
               unsigned prefetch_distance, KernelBackend backend) {
  block_kernel(b.fmt, b.idx, b.br, b.bc, backend)(b, x, y, prefetch_distance);
}

KernelBackend block_kernel_k_backend(BlockFormat fmt, IndexWidth idx,
                                     unsigned br, unsigned bc, unsigned k,
                                     KernelBackend backend) {
  if (detail::tile_dim_slot(br) < 0 || detail::tile_dim_slot(bc) < 0) {
    throw std::out_of_range("block_kernel_k: unsupported tile shape");
  }
  if (k == 0) throw std::invalid_argument("block_kernel_k: k == 0");
  const KernelBackend be = resolve_kernel_backend(backend);
  return simd_block_kernel_k(be, fmt, idx, br, bc, k) != nullptr
             ? be
             : KernelBackend::kScalar;
}

BlockKernelKFn block_kernel_k(BlockFormat fmt, IndexWidth idx, unsigned br,
                              unsigned bc, unsigned k,
                              KernelBackend backend) {
  const KernelBackend be =
      block_kernel_k_backend(fmt, idx, br, bc, k, backend);  // validates
  return be == KernelBackend::kScalar
             ? scalar_kernel_k(fmt, idx, br, bc, k)
             : simd_block_kernel_k(be, fmt, idx, br, bc, k);
}

FusedBlockKernels fused_block_kernels(BlockFormat fmt, IndexWidth idx,
                                      unsigned br, unsigned bc,
                                      KernelBackend backend) {
  FusedBlockKernels set;
  set.k2 = block_kernel_k(fmt, idx, br, bc, 2, backend);
  set.k4 = block_kernel_k(fmt, idx, br, bc, 4, backend);
  set.k8 = block_kernel_k(fmt, idx, br, bc, 8, backend);
  // The runtime-width slot is resolved directly (k = 0 selects the
  // runtime-width scalar template), never through the SIMD registry: it
  // must handle ANY width, which no fixed-width SIMD kernel can, even if
  // a future backend registers widths beyond {2, 4, 8}.
  set.generic = scalar_kernel_k(fmt, idx, br, bc, /*k=*/0);
  return set;
}

void run_block_k(const EncodedBlock& b, const double* x, double* y,
                 unsigned prefetch_distance, unsigned k,
                 KernelBackend backend) {
  block_kernel_k(b.fmt, b.idx, b.br, b.bc, k, backend)(b, x, y,
                                                       prefetch_distance, k);
}

}  // namespace spmv
