// Tests for the SIMD kernel backend layer: every registered
// (format × tile shape × index width × backend) kernel must compute
// bit-identical results to the scalar reference on fuzzed blocks (the
// backends accumulate in the same order, so equality is exact, not
// approximate), the registry must resolve/fall back correctly, and plans
// must record the backend each block actually got.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/encode.h"
#include "core/kernels_block.h"
#include "core/kernels_simd.h"
#include "core/tuned_matrix.h"
#include "gen/generators.h"
#include "support/test_helpers.h"
#include "util/cpu.h"
#include "util/prng.h"

namespace spmv {
namespace {

/// 64 rows of 8 nonzeros each, then 4032 rows of which only every 64th
/// holds one: the dense rows store cheapest as BCSR, the mostly-empty
/// rows as BCOO.
CsrMatrix mixed_coverage_matrix() {
  constexpr std::uint32_t kRows = 4096;
  constexpr std::uint32_t kCols = 256;
  Prng rng(107);
  std::vector<std::uint64_t> row_ptr{0};
  std::vector<std::uint32_t> col_idx;
  std::vector<double> values;
  for (std::uint32_t r = 0; r < kRows; ++r) {
    const std::uint32_t per_row = r < 64 ? 8 : (r % 64 == 0 ? 1 : 0);
    for (std::uint32_t j = 0; j < per_row; ++j) {
      col_idx.push_back(j * 32 + r % 32);
      values.push_back(rng.next_double(-1.0, 1.0));
    }
    row_ptr.push_back(col_idx.size());
  }
  return CsrMatrix(kRows, kCols, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

constexpr unsigned kDims[] = {1, 2, 4};
constexpr BlockFormat kFormats[] = {BlockFormat::kBcsr, BlockFormat::kBcoo};
constexpr IndexWidth kWidths[] = {IndexWidth::k16, IndexWidth::k32};
constexpr KernelBackend kSimdBackends[] = {KernelBackend::kAvx2};

/// Run one encoded block under `backend` and under scalar; the outputs
/// must be bitwise identical (memcmp, not just ==, so even zero signs and
/// every last ulp agree).
void expect_backend_bit_identical(const CsrMatrix& m, const BlockExtent& ext,
                                  unsigned br, unsigned bc, BlockFormat fmt,
                                  IndexWidth idx, KernelBackend backend,
                                  unsigned prefetch, std::uint64_t seed) {
  const EncodedBlock blk = encode_block(m, ext, br, bc, fmt, idx);
  const std::vector<double> x = random_vector(m.cols(), seed);
  std::vector<double> y_scalar(m.rows(), 0.5);
  std::vector<double> y_simd(m.rows(), 0.5);
  run_block(blk, x.data(), y_scalar.data(), prefetch, KernelBackend::kScalar);
  run_block(blk, x.data(), y_simd.data(), prefetch, backend);
  ASSERT_EQ(y_scalar.size(), y_simd.size());
  EXPECT_EQ(0, std::memcmp(y_scalar.data(), y_simd.data(),
                           y_scalar.size() * sizeof(double)))
      << to_string(fmt) << " " << br << "x" << bc << " " << to_string(idx)
      << " " << to_string(backend) << " prefetch=" << prefetch;
}

TEST(KernelBackends, EveryCombinationMatchesScalarOnFuzzedBlocks) {
  // Ragged dimensions (not multiples of 4) exercise the BCSR tail row and
  // BCOO edge-tile shifting; the dense block exercises full tiles.
  const CsrMatrix mats[] = {
      gen::uniform_random(37, 53, 6.0, 101),
      gen::uniform_random(130, 127, 11.0, 102),
      gen::dense(24),
      gen::fem_like(30, 3, 8.0, 10, 103),
  };
  std::uint64_t seed = 1;
  for (const CsrMatrix& m : mats) {
    const BlockExtent ext{0, m.rows(), 0, m.cols()};
    for (const BlockFormat fmt : kFormats) {
      for (const unsigned br : kDims) {
        for (const unsigned bc : kDims) {
          for (const IndexWidth idx : kWidths) {
            if (idx == IndexWidth::k16 &&
                !index_width_fits16(m, ext, br, bc, fmt)) {
              continue;
            }
            for (const KernelBackend backend : kSimdBackends) {
              if (!kernel_backend_available(backend)) continue;
              for (const unsigned prefetch : {0u, 64u}) {
                expect_backend_bit_identical(m, ext, br, bc, fmt, idx,
                                             backend, prefetch, ++seed);
              }
            }
          }
        }
      }
    }
  }
}

TEST(KernelBackends, SubExtentBlocksMatchScalar) {
  // Nonzero row0/col0 offsets: the kernels add block offsets internally.
  const CsrMatrix m = gen::uniform_random(90, 110, 9.0, 104);
  const BlockExtent ext{17, 83, 23, 101};
  std::uint64_t seed = 500;
  for (const BlockFormat fmt : kFormats) {
    for (const unsigned br : kDims) {
      for (const unsigned bc : kDims) {
        for (const KernelBackend backend : kSimdBackends) {
          if (!kernel_backend_available(backend)) continue;
          expect_backend_bit_identical(m, ext, br, bc, fmt, IndexWidth::k16,
                                       backend, 0, ++seed);
        }
      }
    }
  }
}

TEST(KernelBackends, SimdFlagsNeedOsEnabledRegisterState) {
  constexpr std::uint32_t kPclmul = 1u << 1, kFma = 1u << 12,
                          kOsxsave = 1u << 27;
  constexpr std::uint32_t kAvx2 = 1u << 5, kAvx512f = 1u << 16;
  const std::uint32_t ecx = kPclmul | kFma | kOsxsave;
  const std::uint32_t ebx = kAvx2 | kAvx512f;

  // Everything present and enabled.
  HostInfo h = decode_simd_features(ecx, ebx, 0xE7);
  EXPECT_TRUE(h.has_avx2);
  EXPECT_TRUE(h.has_fma);
  EXPECT_TRUE(h.has_avx512f);
  EXPECT_TRUE(h.has_pclmul);

  // YMM state off: the CPUID bits alone must not select AVX2 kernels.
  h = decode_simd_features(ecx, ebx, 0x3);
  EXPECT_FALSE(h.has_avx2);
  EXPECT_FALSE(h.has_fma);
  EXPECT_FALSE(h.has_avx512f);
  EXPECT_TRUE(h.has_pclmul);  // XMM state only

  // YMM on, ZMM state off (or any one ZMM component off).
  h = decode_simd_features(ecx, ebx, 0x7);
  EXPECT_TRUE(h.has_avx2);
  EXPECT_TRUE(h.has_fma);
  EXPECT_FALSE(h.has_avx512f);
  for (const std::uint64_t missing : {0x20u, 0x40u, 0x80u}) {
    EXPECT_FALSE(decode_simd_features(ecx, ebx, 0xE7 & ~missing).has_avx512f)
        << "xcr0 without " << missing;
  }

  // No OSXSAVE: XCR0 cannot be trusted, so no AVX flag is set.
  h = decode_simd_features(kPclmul | kFma, ebx, 0xE7);
  EXPECT_FALSE(h.has_avx2);
  EXPECT_FALSE(h.has_fma);
  EXPECT_FALSE(h.has_avx512f);
  EXPECT_TRUE(h.has_pclmul);

  // Enabled state without the CPUID bits sets nothing.
  h = decode_simd_features(kOsxsave, 0, 0xE7);
  EXPECT_FALSE(h.has_avx2);
  EXPECT_FALSE(h.has_fma);
  EXPECT_FALSE(h.has_avx512f);
  EXPECT_FALSE(h.has_pclmul);
}

TEST(KernelBackends, ResolveFollowsHostCapabilities) {
  const HostInfo& h = host_info();
  EXPECT_EQ(resolve_kernel_backend(KernelBackend::kScalar),
            KernelBackend::kScalar);
  const KernelBackend autoExpected =
      h.has_avx2 ? KernelBackend::kAvx2 : KernelBackend::kScalar;
  EXPECT_EQ(resolve_kernel_backend(KernelBackend::kAuto), autoExpected);
  EXPECT_EQ(resolve_kernel_backend(KernelBackend::kAvx2), autoExpected);
  EXPECT_TRUE(kernel_backend_available(KernelBackend::kScalar));
  EXPECT_TRUE(kernel_backend_available(KernelBackend::kAuto));
}

TEST(KernelBackends, ShapeCoverageAndScalarFallback) {
  if (!kernel_backend_available(KernelBackend::kAvx2)) {
    GTEST_SKIP() << "host has no AVX2";
  }
  // Hot register-blocked shapes have AVX2 specializations...
  EXPECT_EQ(block_kernel_backend(BlockFormat::kBcsr, IndexWidth::k32, 4, 4,
                                 KernelBackend::kAvx2),
            KernelBackend::kAvx2);
  EXPECT_EQ(block_kernel_backend(BlockFormat::kBcsr, IndexWidth::k16, 1, 1,
                                 KernelBackend::kAvx2),
            KernelBackend::kAvx2);
  EXPECT_EQ(block_kernel_backend(BlockFormat::kBcoo, IndexWidth::k32, 2, 2,
                                 KernelBackend::kAvx2),
            KernelBackend::kAvx2);
  // ...while shapes with no vector form fall back to scalar per block.
  EXPECT_EQ(block_kernel_backend(BlockFormat::kBcoo, IndexWidth::k32, 1, 1,
                                 KernelBackend::kAvx2),
            KernelBackend::kScalar);
  EXPECT_EQ(block_kernel_backend(BlockFormat::kBcsr, IndexWidth::k32, 1, 2,
                                 KernelBackend::kAvx2),
            KernelBackend::kScalar);
  // The SIMD kernel is a genuinely different function, not scalar renamed.
  EXPECT_NE(block_kernel(BlockFormat::kBcsr, IndexWidth::k32, 4, 4,
                         KernelBackend::kAvx2),
            block_kernel(BlockFormat::kBcsr, IndexWidth::k32, 4, 4,
                         KernelBackend::kScalar));

  // An explicit kAvx2 plan records the fallback per block, and the blocks
  // that fell back run bitwise identical to an explicitly scalar plan.
  // Without register blocking every tile is 1x1: the dense-row half
  // stores as BCSR (AVX2), the mostly-empty half as BCOO (scalar).
  const CsrMatrix m = mixed_coverage_matrix();
  TuningOptions opt = TuningOptions::full(2);
  opt.tune_prefetch = false;
  opt.register_blocking = false;
  opt.backend = KernelBackend::kAvx2;
  const TunedMatrix tuned = TunedMatrix::plan(m, opt);
  const TuningReport& r = tuned.report();
  EXPECT_EQ(r.backend, KernelBackend::kAvx2);
  std::size_t simd = 0;
  std::size_t fell_back = 0;
  for (const auto& b : r.blocks) {
    EXPECT_EQ(b.decision.backend,
              block_kernel_backend(b.decision.fmt, b.decision.idx,
                                   b.decision.br, b.decision.bc, r.backend));
    if (b.decision.backend == KernelBackend::kScalar) {
      ++fell_back;
    } else {
      ++simd;
    }
  }
  EXPECT_EQ(r.blocks_simd, simd);
  EXPECT_GT(simd, 0u);
  EXPECT_GT(fell_back, 0u);

  TuningOptions scalar_opt = opt;
  scalar_opt.backend = KernelBackend::kScalar;
  const TunedMatrix scalar_tuned = TunedMatrix::plan(m, scalar_opt);
  const std::vector<double> x = random_vector(m.cols(), 8);
  std::vector<double> y(m.rows(), 0.5), y_scalar(m.rows(), 0.5);
  tuned.multiply(x, y);
  scalar_tuned.multiply(x, y_scalar);
  EXPECT_EQ(0, std::memcmp(y.data(), y_scalar.data(),
                           y.size() * sizeof(double)));
}

TEST(KernelBackends, InvalidShapeStillThrows) {
  EXPECT_THROW(block_kernel(BlockFormat::kBcsr, IndexWidth::k32, 3, 1,
                            KernelBackend::kAvx2),
               std::out_of_range);
  EXPECT_THROW(block_kernel_backend(BlockFormat::kBcsr, IndexWidth::k32, 1, 8,
                                    KernelBackend::kAuto),
               std::out_of_range);
}

TEST(KernelBackends, PlanRecordsPerBlockBackend) {
  const CsrMatrix m = gen::fem_like(200, 3, 9.0, 40, 105);
  TuningOptions opt = TuningOptions::full(2);
  opt.tune_prefetch = false;
  opt.backend = KernelBackend::kAuto;
  const TunedMatrix tuned = TunedMatrix::plan(m, opt);
  const TuningReport& r = tuned.report();
  EXPECT_EQ(r.backend, resolve_kernel_backend(KernelBackend::kAuto));

  std::size_t simd = 0;
  for (const auto& b : r.blocks) {
    EXPECT_EQ(b.decision.backend,
              block_kernel_backend(b.decision.fmt, b.decision.idx,
                                   b.decision.br, b.decision.bc, r.backend));
    if (b.decision.backend != KernelBackend::kScalar) ++simd;
  }
  EXPECT_EQ(r.blocks_simd, simd);
  if (kernel_backend_available(KernelBackend::kAvx2)) {
    // An FEM-like matrix register-blocks well; at least one block must
    // actually run vectorized, or the backend layer is dead code.
    EXPECT_GT(r.blocks_simd, 0u);
  }

  TuningOptions scalar_opt = opt;
  scalar_opt.backend = KernelBackend::kScalar;
  const TunedMatrix scalar_tuned = TunedMatrix::plan(m, scalar_opt);
  EXPECT_EQ(scalar_tuned.report().backend, KernelBackend::kScalar);
  EXPECT_EQ(scalar_tuned.report().blocks_simd, 0u);

  // Whole-matrix multiplies agree bitwise across backends.
  const std::vector<double> x = random_vector(m.cols(), 7);
  std::vector<double> y_auto(m.rows(), 0.25), y_scalar(m.rows(), 0.25);
  tuned.multiply(x, y_auto);
  scalar_tuned.multiply(x, y_scalar);
  EXPECT_EQ(0, std::memcmp(y_auto.data(), y_scalar.data(),
                           y_auto.size() * sizeof(double)));
}

}  // namespace
}  // namespace spmv
