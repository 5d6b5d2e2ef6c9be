// The engine's guarantees over the pool's generation barrier (caller runs
// tid 0, spin → yield → park): bit-identical concurrent multiplies,
// correct batches and pool growth under hammering from several host
// threads.  Named Engine* so the TSan CI job (ctest -R spmv_concurrency)
// gates the barrier's memory ordering.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "core/segmented_scan.h"
#include "core/tuned_matrix.h"
#include "engine/execution_context.h"
#include "gen/generators.h"
#include "support/test_helpers.h"

namespace spmv {
namespace {

using MultiplyFn =
    std::function<void(std::span<const double>, std::span<double>)>;

void expect_concurrent_bit_identical(const MultiplyFn& mult,
                                     std::size_t x_len, std::size_t y_len,
                                     std::uint64_t seed) {
  const std::vector<double> x = random_vector(x_len, seed);
  std::vector<double> serial(y_len, 0.5);
  mult(x, serial);

  constexpr int kHostThreads = 4;
  constexpr int kReps = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  callers.reserve(kHostThreads);
  for (int h = 0; h < kHostThreads; ++h) {
    callers.emplace_back([&] {
      std::vector<double> y;
      for (int rep = 0; rep < kReps; ++rep) {
        y.assign(y_len, 0.5);
        mult(x, y);
        if (y != serial) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(EngineSpinDispatch, TunedMatrixConcurrentMultiply) {
  engine::ExecutionContext ctx({.pin_threads = false});
  const CsrMatrix m = gen::fem_like(300, 3, 9.0, 50, 31);
  TuningOptions opt = TuningOptions::full(4);
  opt.tune_prefetch = false;
  opt.context = &ctx;
  const TunedMatrix tuned = TunedMatrix::plan(m, opt);
  expect_concurrent_bit_identical(
      [&](auto x, auto y) { tuned.multiply(x, y); }, m.cols(), m.rows(), 32);
}

TEST(EngineSpinDispatch, SegmentedScanConcurrentMultiply) {
  // A reduction-based variant (uses engine scratch) on the same barrier.
  engine::ExecutionContext ctx({.pin_threads = false});
  const CsrMatrix m = gen::uniform_random(900, 850, 7.0, 33);
  const SegmentedScanSpmv ss(m, 4, &ctx);
  expect_concurrent_bit_identical(
      [&](auto x, auto y) { ss.multiply(x, y); }, m.cols(), m.rows(), 34);
}

TEST(EngineSpinDispatch, BatchedMultiplyUnderSpin) {
  engine::ExecutionContext ctx({.pin_threads = false});
  const CsrMatrix m = gen::fem_like(280, 3, 9.0, 45, 39);
  TuningOptions opt = TuningOptions::full(4);
  opt.tune_prefetch = false;
  opt.context = &ctx;
  const TunedMatrix tuned = TunedMatrix::plan(m, opt);

  constexpr std::size_t kBatch = 6;
  std::vector<std::vector<double>> xs_store, loop_ys, batch_ys;
  for (std::size_t i = 0; i < kBatch; ++i) {
    xs_store.push_back(random_vector(m.cols(), 40 + i));
    loop_ys.emplace_back(m.rows(), 0.25);
    batch_ys.emplace_back(m.rows(), 0.25);
  }
  for (std::size_t i = 0; i < kBatch; ++i) {
    tuned.multiply(xs_store[i], loop_ys[i]);
  }
  std::vector<const double*> xs;
  std::vector<double*> ys;
  for (std::size_t i = 0; i < kBatch; ++i) {
    xs.push_back(xs_store[i].data());
    ys.push_back(batch_ys[i].data());
  }
  tuned.multiply_batch(xs, ys);
  for (std::size_t i = 0; i < kBatch; ++i) {
    EXPECT_EQ(batch_ys[i], loop_ys[i]) << "rhs " << i;
  }
}

TEST(EngineSpinDispatch, PoolGrowsUnderSpin) {
  engine::ExecutionContext ctx({.pin_threads = false});
  const CsrMatrix m = gen::banded(500, 3, 0.5, 41);
  const SegmentedScanSpmv narrow(m, 2, &ctx);
  const auto x = random_vector(m.cols(), 42);
  std::vector<double> y(m.rows(), 0.0);
  narrow.multiply(x, y);
  EXPECT_EQ(ctx.capacity(), 2u);
  const SegmentedScanSpmv wide(m, 6, &ctx);
  wide.multiply(x, y);
  EXPECT_EQ(ctx.capacity(), 6u);
  narrow.multiply(x, y);
  EXPECT_EQ(ctx.capacity(), 6u);
}

}  // namespace
}  // namespace spmv
