// Tests for the fused multi-vector (SpMM) batch path: the fused kernels
// must be bit-identical to k independent single-vector sweeps at every
// width, format, tile shape, and backend (the chains per right-hand side
// are the same, so equality is exact memcmp, not approximate); the engine
// batch path must be bit-identical to looped multiply() under every batch
// width, fused or not; the crossover decision must land in the
// TuningReport; a moved plan must keep multiplying with its recycled
// scratch; and concurrent fused batches must stay race-free (this file's
// Engine* suites join the spmv_concurrency TSan gate).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "core/encode.h"
#include "core/kernels_block.h"
#include "core/kernels_csr.h"
#include "core/kernels_simd.h"
#include "core/multivector.h"
#include "core/symmetric.h"
#include "core/tuned_matrix.h"
#include "engine/execution_context.h"
#include "gen/generators.h"
#include "support/test_helpers.h"

namespace spmv {
namespace {

constexpr unsigned kWidthSweep[] = {1, 2, 3, 4, 5, 8};
constexpr unsigned kDims[] = {1, 2, 4};
constexpr BlockFormat kFormats[] = {BlockFormat::kBcsr, BlockFormat::kBcoo};

/// Backends to exercise: scalar always, plus each SIMD backend the host
/// can run.
std::vector<KernelBackend> testable_backends() {
  std::vector<KernelBackend> b = {KernelBackend::kScalar};
  if (kernel_backend_available(KernelBackend::kAvx2)) {
    b.push_back(KernelBackend::kAvx2);
  }
  return b;
}

/// Pack k strided vectors into a row-major panel.
std::vector<double> pack_panel(const std::vector<std::vector<double>>& vs,
                               std::size_t n, unsigned k) {
  std::vector<double> panel(n * k);
  for (std::size_t e = 0; e < n; ++e) {
    for (unsigned j = 0; j < k; ++j) panel[e * k + j] = vs[j][e];
  }
  return panel;
}

TEST(FusedKernels, EveryShapeWidthBackendMatchesIndependentSweeps) {
  const CsrMatrix mats[] = {
      gen::uniform_random(37, 53, 6.0, 201),
      gen::uniform_random(130, 127, 11.0, 202),
      gen::dense(24),
      gen::fem_like(30, 3, 8.0, 10, 203),
  };
  std::uint64_t seed = 1000;
  for (const CsrMatrix& m : mats) {
    const BlockExtent ext{0, m.rows(), 0, m.cols()};
    for (const BlockFormat fmt : kFormats) {
      for (const unsigned br : kDims) {
        for (const unsigned bc : kDims) {
          const IndexWidth idx =
              index_width_fits16(m, ext, br, bc, fmt) ? IndexWidth::k16
                                                      : IndexWidth::k32;
          const EncodedBlock blk = encode_block(m, ext, br, bc, fmt, idx);
          for (const unsigned k : kWidthSweep) {
            // Reference: k independent single-vector scalar sweeps.
            std::vector<std::vector<double>> xs, ys;
            for (unsigned j = 0; j < k; ++j) {
              xs.push_back(random_vector(m.cols(), ++seed));
              ys.push_back(random_vector(m.rows(), ++seed));
            }
            const std::vector<double> x_panel =
                pack_panel(xs, m.cols(), k);
            std::vector<double> y_panel = pack_panel(ys, m.rows(), k);
            for (unsigned j = 0; j < k; ++j) {
              run_block(blk, xs[j].data(), ys[j].data(), 0,
                        KernelBackend::kScalar);
            }
            for (const KernelBackend backend : testable_backends()) {
              std::vector<double> got = y_panel;
              run_block_k(blk, x_panel.data(), got.data(), 0, k, backend);
              const std::vector<double> want = pack_panel(ys, m.rows(), k);
              ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                                       got.size() * sizeof(double)))
                  << to_string(fmt) << " " << br << "x" << bc << " "
                  << to_string(idx) << " k=" << k << " "
                  << to_string(backend);
            }
          }
        }
      }
    }
  }
}

TEST(FusedKernels, RuntimeWidthKernelHandlesWideOperands) {
  // k > kMaxFusedWidth exercises the sub-panel re-walk in the
  // runtime-width scalar kernel (the MultiVectorSpmv path for wide k).
  const CsrMatrix m = gen::uniform_random(60, 70, 7.0, 210);
  const BlockExtent ext{0, m.rows(), 0, m.cols()};
  const unsigned k = kMaxFusedWidth + 5;
  for (const BlockFormat fmt : kFormats) {
    const EncodedBlock blk =
        encode_block(m, ext, 2, 2, fmt, IndexWidth::k32);
    std::vector<std::vector<double>> xs, ys;
    for (unsigned j = 0; j < k; ++j) {
      xs.push_back(random_vector(m.cols(), 300 + j));
      ys.push_back(random_vector(m.rows(), 400 + j));
    }
    const std::vector<double> x_panel = pack_panel(xs, m.cols(), k);
    std::vector<double> got = pack_panel(ys, m.rows(), k);
    run_block_k(blk, x_panel.data(), got.data(), 0, k,
                KernelBackend::kScalar);
    for (unsigned j = 0; j < k; ++j) {
      run_block(blk, xs[j].data(), ys[j].data(), 0, KernelBackend::kScalar);
    }
    const std::vector<double> want = pack_panel(ys, m.rows(), k);
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                             got.size() * sizeof(double)))
        << to_string(fmt);
  }
}

TEST(FusedKernels, SimdCoversEveryShapeAtSpecializedWidths) {
  if (!kernel_backend_available(KernelBackend::kAvx2)) {
    GTEST_SKIP() << "host has no AVX2";
  }
  // Unlike the single-vector registry (1×1/1×2 BCOO have no vector form),
  // the fused registry covers every shape: the panel is the vector
  // dimension.
  for (const BlockFormat fmt : kFormats) {
    for (const unsigned br : kDims) {
      for (const unsigned bc : kDims) {
        for (const unsigned k : {2u, 4u, 8u}) {
          EXPECT_EQ(block_kernel_k_backend(fmt, IndexWidth::k32, br, bc, k,
                                           KernelBackend::kAvx2),
                    KernelBackend::kAvx2)
              << to_string(fmt) << " " << br << "x" << bc << " k=" << k;
        }
        // Ragged widths run the runtime-width scalar kernel.
        EXPECT_EQ(block_kernel_k_backend(fmt, IndexWidth::k32, br, bc, 5,
                                         KernelBackend::kAvx2),
                  KernelBackend::kScalar);
      }
    }
  }
  EXPECT_THROW(
      block_kernel_k(BlockFormat::kBcsr, IndexWidth::k32, 3, 1, 4,
                     KernelBackend::kAuto),
      std::out_of_range);
  EXPECT_THROW(
      block_kernel_k(BlockFormat::kBcsr, IndexWidth::k32, 1, 1, 0,
                     KernelBackend::kAuto),
      std::invalid_argument);
}

/// multiply_batch on `plan` must be bitwise equal to looped multiply()
/// for every batch width in the sweep.
template <typename Plan>
void expect_batch_matches_loop(const Plan& plan, std::uint32_t rows,
                               std::uint32_t cols, std::uint64_t seed) {
  for (const unsigned width : kWidthSweep) {
    std::vector<std::vector<double>> xs_store, loop_ys, batch_ys;
    for (unsigned i = 0; i < width; ++i) {
      xs_store.push_back(random_vector(cols, seed + i));
      loop_ys.push_back(random_vector(rows, seed + 100 + i));
      batch_ys.push_back(loop_ys.back());
    }
    for (unsigned i = 0; i < width; ++i) {
      plan.multiply(xs_store[i], loop_ys[i]);
    }
    std::vector<const double*> xs;
    std::vector<double*> ys;
    for (unsigned i = 0; i < width; ++i) {
      xs.push_back(xs_store[i].data());
      ys.push_back(batch_ys[i].data());
    }
    plan.multiply_batch(xs, ys);
    for (unsigned i = 0; i < width; ++i) {
      ASSERT_EQ(0, std::memcmp(batch_ys[i].data(), loop_ys[i].data(),
                               rows * sizeof(double)))
          << "width " << width << " rhs " << i;
    }
  }
}

TEST(EngineFusedBatch, TunedMatrixFusedMatchesLoopedEveryWidth) {
  const CsrMatrix m = gen::fem_like(280, 3, 9.0, 45, 220);
  for (const KernelBackend backend : testable_backends()) {
    for (const unsigned threads : {1u, 4u}) {
      TuningOptions opt = TuningOptions::full(threads);
      opt.tune_prefetch = false;
      opt.backend = backend;
      const TunedMatrix tuned = TunedMatrix::plan(m, opt);
      // The crossover fuses this matrix from width 2 up, so the sweep
      // covers fused chunks at every width and looped tails.
      ASSERT_EQ(tuned.report().fused_batch_min_width, 2u);
      expect_batch_matches_loop(tuned, m.rows(), m.cols(), 777);
    }
  }
}

TEST(EngineFusedBatch, CrossoverMatchesLoopedOnMixedFormats) {
  // A matrix whose blocks mix formats/shapes (and thus fused kernels),
  // under the planner's crossover decision.
  const CsrMatrix m = gen::uniform_random(900, 850, 7.0, 221);
  TuningOptions opt = TuningOptions::full(3);
  opt.tune_prefetch = false;
  const TunedMatrix tuned = TunedMatrix::plan(m, opt);
  expect_batch_matches_loop(tuned, m.rows(), m.cols(), 888);
}

TEST(EngineFusedBatch, CrossoverDecisionRecordedInReport) {
  const CsrMatrix dense_ish = gen::fem_like(300, 3, 9.0, 50, 230);
  TuningOptions opt = TuningOptions::full(2);
  opt.tune_prefetch = false;

  // ~9 nnz/row: matrix bytes dominate the panels, so some width must
  // qualify.
  const TunedMatrix fused_plan = TunedMatrix::plan(dense_ish, opt);
  EXPECT_GE(fused_plan.report().fused_batch_min_width, 2u);
  EXPECT_LE(fused_plan.report().fused_batch_min_width, kMaxFusedWidth);

  // Hypersparse (1 nnz/row): packing can never pay for itself, so fusion
  // stays off.
  const CsrMatrix diag = gen::banded(4000, 0, 1.0, 231);
  EXPECT_EQ(TunedMatrix::plan(diag, opt).report().fused_batch_min_width, 0u);

  // The summary mentions the decision.
  EXPECT_NE(fused_plan.report().summary().find("fused-batch>="),
            std::string::npos);
}

TEST(EngineFusedBatch, MultiVectorMatchesPerVectorReference) {
  // MultiVectorSpmv now runs the same fused kernels as the batch path;
  // its interleaved multiply must still match the per-vector reference.
  const CsrMatrix m = gen::uniform_random(200, 180, 7.0, 240);
  for (const unsigned k : kWidthSweep) {
    for (const unsigned threads : {1u, 3u}) {
      const MultiVectorSpmv mv(m, k, threads);
      const auto x = random_vector(static_cast<std::size_t>(m.cols()) * k,
                                   250 + k);
      auto y = random_vector(static_cast<std::size_t>(m.rows()) * k,
                             260 + k);
      const auto y0 = y;
      mv.multiply(x, y);
      for (unsigned j = 0; j < k; ++j) {
        std::vector<double> xj(m.cols()), yj(m.rows());
        for (std::uint32_t c = 0; c < m.cols(); ++c) xj[c] = x[c * k + j];
        for (std::uint32_t r = 0; r < m.rows(); ++r) {
          yj[r] = y0[static_cast<std::size_t>(r) * k + j];
        }
        spmv_reference(m, xj, yj);
        for (std::uint32_t r = 0; r < m.rows(); ++r) {
          ASSERT_NEAR(y[static_cast<std::size_t>(r) * k + j], yj[r], 1e-11)
              << "k=" << k << " j=" << j << " r=" << r;
        }
      }
    }
  }
}

TEST(EngineScratchCache, MovedPlanStillMultiplies) {
  // A plan's scratch cache moves with the plan: the moved plan reuses the
  // scratches the original warmed (their layout depends only on the plan's
  // shape, which moved too) and must still multiply correctly.
  const CsrMatrix m = gen::fem_like(80, 2, 8.0, 15, 290);
  SymmetricSpmv sym = SymmetricSpmv::from_full(m, 2);
  const auto x = random_vector(m.cols(), 291);
  std::vector<double> expected(m.rows(), 0.0);
  sym.multiply(x, expected);  // warms the plan's scratch cache

  SymmetricSpmv moved = std::move(sym);
  std::vector<double> y(m.rows(), 0.0);
  EXPECT_NO_THROW(moved.multiply(x, y));
  EXPECT_EQ(y, expected);
}

TEST(EngineFusedBatchConcurrency, ConcurrentFusedBatchesBitIdentical) {
  // Several host threads run fused batches over one shared plan; each call
  // borrows its own scratch (own panels) from the plan.  Every result must
  // equal the serial looped reference bitwise — and under TSan
  // (spmv_concurrency filter) the panel packing/sweeping must be race-free.
  const CsrMatrix m = gen::fem_like(220, 3, 9.0, 40, 280);
  TuningOptions opt = TuningOptions::full(4);
  opt.tune_prefetch = false;
  const TunedMatrix tuned = TunedMatrix::plan(m, opt);

  constexpr unsigned kBatch = 8;
  // The crossover must fuse a batch this wide, or the test races nothing.
  ASSERT_GE(tuned.report().fused_batch_min_width, 2u);
  ASSERT_LE(tuned.report().fused_batch_min_width, kBatch);
  std::vector<std::vector<double>> xs_store, serial_ys;
  for (unsigned i = 0; i < kBatch; ++i) {
    xs_store.push_back(random_vector(m.cols(), 300 + i));
    serial_ys.emplace_back(m.rows(), 0.25);
  }
  for (unsigned i = 0; i < kBatch; ++i) {
    tuned.multiply(xs_store[i], serial_ys[i]);
  }

  constexpr int kHostThreads = 4;
  constexpr int kReps = 6;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  for (int h = 0; h < kHostThreads; ++h) {
    callers.emplace_back([&] {
      std::vector<std::vector<double>> ys_store(
          kBatch, std::vector<double>(m.rows()));
      for (int rep = 0; rep < kReps; ++rep) {
        std::vector<const double*> xs;
        std::vector<double*> ys;
        for (unsigned i = 0; i < kBatch; ++i) {
          ys_store[i].assign(m.rows(), 0.25);
          xs.push_back(xs_store[i].data());
          ys.push_back(ys_store[i].data());
        }
        tuned.multiply_batch(xs, ys);
        for (unsigned i = 0; i < kBatch; ++i) {
          if (ys_store[i] != serial_ys[i]) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace spmv
