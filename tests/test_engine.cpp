// Tests for the shared execution engine: concurrent multiply() safety on
// one planned matrix (results bit-identical to serial), pool sharing
// across plans on one ExecutionContext, worker affinity decided by the
// context alone, the plan front door's operand checks and batch
// equivalence on every plan family, and DMA-stats accounting under
// concurrency.
#include <gtest/gtest.h>

#include <sched.h>

#include <atomic>
#include <filesystem>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baseline/oski_like.h"
#include "baseline/petsc_like.h"
#include "core/column_partition.h"
#include "core/kernels_csr.h"
#include "core/local_store.h"
#include "core/multivector.h"
#include "core/segmented_scan.h"
#include "core/symmetric.h"
#include "core/tuned_matrix.h"
#include "engine/execution_context.h"
#include "gen/generators.h"
#include "support/test_helpers.h"
#include "util/cpu.h"

namespace spmv {
namespace {

using MultiplyFn =
    std::function<void(std::span<const double>, std::span<double>)>;

/// Hammer `mult` from several host threads at once; every call must give
/// exactly (bitwise) the y a single serial call gives — per-call scratch
/// and serialized pool dispatch make the summation order deterministic.
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

TEST(EngineConcurrency, TunedMatrixConcurrentMultiply) {
  const CsrMatrix m = gen::fem_like(300, 3, 9.0, 50, 3);
  TuningOptions opt = TuningOptions::full(4);
  opt.tune_prefetch = false;
  const TunedMatrix tuned = TunedMatrix::plan(m, opt);
  expect_concurrent_bit_identical(
      [&](auto x, auto y) { tuned.multiply(x, y); }, m.cols(), m.rows(), 21);
}

TEST(EngineConcurrency, SegmentedScanConcurrentMultiply) {
  const CsrMatrix m = gen::uniform_random(900, 850, 7.0, 5);
  const SegmentedScanSpmv ss(m, 4);
  expect_concurrent_bit_identical(
      [&](auto x, auto y) { ss.multiply(x, y); }, m.cols(), m.rows(), 22);
}

TEST(EngineConcurrency, ColumnPartitionConcurrentMultiply) {
  const CsrMatrix m = gen::uniform_random(700, 900, 6.0, 6);
  TuningOptions opt = TuningOptions::full(4);
  opt.tune_prefetch = false;
  const ColumnPartitionedSpmv cp = ColumnPartitionedSpmv::plan(m, opt);
  expect_concurrent_bit_identical(
      [&](auto x, auto y) { cp.multiply(x, y); }, m.cols(), m.rows(), 23);
}

TEST(EngineConcurrency, SymmetricConcurrentMultiply) {
  const CsrMatrix m = gen::fem_like(250, 2, 8.0, 40, 7);
  const SymmetricSpmv sym = SymmetricSpmv::from_full(m, 4);
  expect_concurrent_bit_identical(
      [&](auto x, auto y) { sym.multiply(x, y); }, m.cols(), m.rows(), 24);
}

TEST(EngineConcurrency, MultiVectorConcurrentMultiply) {
  const CsrMatrix m = gen::banded(600, 5, 0.5, 8);
  const unsigned k = 4;
  const MultiVectorSpmv mv(m, k, 4);
  expect_concurrent_bit_identical(
      [&](auto x, auto y) { mv.multiply(x, y); },
      static_cast<std::size_t>(m.cols()) * k,
      static_cast<std::size_t>(m.rows()) * k, 25);
}

TEST(EngineConcurrency, LocalStoreConcurrentMultiplyAndStats) {
  const CsrMatrix m = gen::uniform_random(1200, 1200, 8.0, 9);
  LocalStoreParams p;
  p.spes = 2;
  p.local_store_bytes = 64 * 1024;
  p.dma_chunk_bytes = 4 * 1024;
  const LocalStoreSpmv ls = LocalStoreSpmv::plan(m, p);
  const auto warm_x = random_vector(m.cols(), 1);
  std::vector<double> warm_y(m.rows(), 0.0);
  ls.multiply(warm_x, warm_y);
  // The per-call staging buffers were the seed's data race: mutable
  // Spe/DmaStats members written from const multiply().  Now every call
  // owns its scratch and merges stats once, so totals stay exact.
  const_cast<LocalStoreSpmv&>(ls).reset_stats();

  expect_concurrent_bit_identical(
      [&](auto x, auto y) { ls.multiply(x, y); }, m.cols(), m.rows(), 26);

  // 1 serial + 4 threads x 8 reps in the helper = 33 sweeps, each staging
  // exactly 10 bytes per stored nonzero.
  EXPECT_EQ(ls.stats().matrix_bytes, 33u * m.nnz() * 10u);
}

TEST(EngineConcurrency, PetscLikeConcurrentMultiply) {
  const CsrMatrix m = gen::uniform_random(800, 800, 6.0, 10);
  const baseline::PetscLikeSpmv dist = baseline::PetscLikeSpmv::distribute(
      m, 4, baseline::RegisterProfile::typical());
  expect_concurrent_bit_identical(
      [&](auto x, auto y) { dist.multiply(x, y); }, m.cols(), m.rows(), 27);
}

TEST(EnginePoolSharing, TwoPlansOneContextSpawnOnePool) {
  engine::ExecutionContext ctx({.pin_threads = false});
  const CsrMatrix a = gen::fem_like(200, 3, 8.0, 30, 11);
  const CsrMatrix b = gen::banded(900, 4, 0.6, 12);

  TuningOptions wide = TuningOptions::full(4);
  wide.tune_prefetch = false;
  wide.context = &ctx;
  const TunedMatrix ta = TunedMatrix::plan(a, wide);

  TuningOptions narrow = TuningOptions::full(2);
  narrow.tune_prefetch = false;
  narrow.context = &ctx;
  const TunedMatrix tb = TunedMatrix::plan(b, narrow);

  // NUMA first-touch encoding already ran on the shared pool.
  EXPECT_EQ(ctx.pools_spawned(), 1u);
  EXPECT_EQ(ctx.capacity(), 4u);

  const auto xa = random_vector(a.cols(), 41);
  const auto xb = random_vector(b.cols(), 42);
  std::vector<double> ya(a.rows(), 0.0), yb(b.rows(), 0.0);
  for (int i = 0; i < 10; ++i) {
    ta.multiply(xa, ya);
    tb.multiply(xb, yb);
  }
  // Still the same workers: plans borrow, they never own.
  EXPECT_EQ(ctx.pools_spawned(), 1u);
  EXPECT_EQ(ctx.capacity(), 4u);
  EXPECT_GE(ctx.dispatches(), 20u);

  // A third plan family on the same context keeps sharing.
  const SegmentedScanSpmv ss(b, 4, &ctx);
  ss.multiply(xb, yb);
  EXPECT_EQ(ctx.pools_spawned(), 1u);
}

TEST(EnginePoolSharing, SerialPlansNeverSpawnWorkers) {
  engine::ExecutionContext ctx({.pin_threads = false});
  const CsrMatrix m = gen::dense(64);
  TuningOptions opt = TuningOptions::naive();
  opt.context = &ctx;
  const TunedMatrix tuned = TunedMatrix::plan(m, opt);
  const auto x = random_vector(m.cols(), 51);
  std::vector<double> y(m.rows(), 0.0);
  tuned.multiply(x, y);
  EXPECT_EQ(ctx.capacity(), 0u);
  EXPECT_EQ(ctx.pools_spawned(), 0u);
}

TEST(EnginePoolSharing, PoolGrowsForWiderPlan) {
  engine::ExecutionContext ctx({.pin_threads = false});
  const CsrMatrix m = gen::banded(500, 3, 0.5, 13);
  const SegmentedScanSpmv narrow(m, 2, &ctx);
  const auto x = random_vector(m.cols(), 52);
  std::vector<double> y(m.rows(), 0.0);
  narrow.multiply(x, y);
  EXPECT_EQ(ctx.capacity(), 2u);
  const SegmentedScanSpmv wide(m, 6, &ctx);
  wide.multiply(x, y);
  EXPECT_EQ(ctx.capacity(), 6u);
  EXPECT_EQ(ctx.pools_spawned(), 2u);
  // The narrow plan keeps working on the regrown pool.
  narrow.multiply(x, y);
  EXPECT_EQ(ctx.capacity(), 6u);
}

/// Kernel ids of this process's threads (the entries of /proc/self/task).
std::set<long> thread_ids() {
  std::set<long> ids;
  for (const auto& e :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ids.insert(std::stol(e.path().filename().string()));
  }
  return ids;
}

/// The CPUs thread `tid` may run on; nullopt once it has exited.
std::optional<cpu_set_t> allowed_cpus(long tid) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(static_cast<pid_t>(tid), sizeof(set), &set) != 0) {
    return std::nullopt;
  }
  return set;
}

TEST(EngineAffinity, ContextAloneDecidesPinning) {
  // The first parallel dispatch on each context comes from a symmetric or
  // segmented-scan plan; the workers it creates are pinned exactly when
  // the context says so, whichever plan family dispatches.
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "no /proc/self/task";
  }
  const std::optional<cpu_set_t> caller = allowed_cpus(0);
  ASSERT_TRUE(caller.has_value());
  // A two-wide pool has one worker, pinned to logical CPU 1.
  if (CPU_COUNT(&*caller) < 2 || !CPU_ISSET(1, &*caller) ||
      host_info().logical_cpus < 2) {
    GTEST_SKIP() << "needs logical CPUs 0 and 1 allowed";
  }
  // A runtime that starts a helper thread on the first thread creation
  // (ThreadSanitizer does) starts it here, before the ids are listed.
  std::thread([] {}).join();
  const CsrMatrix m = gen::fem_like(120, 2, 8.0, 20, 60);
  const auto x = random_vector(m.cols(), 61);
  for (const bool pin : {true, false}) {
    for (const bool symmetric : {true, false}) {
      SCOPED_TRACE(std::string(pin ? "pinning" : "non-pinning") +
                   " context, first dispatch from " +
                   (symmetric ? "SymmetricSpmv" : "SegmentedScanSpmv"));
      engine::ExecutionContext ctx({.pin_threads = pin});
      const std::set<long> before = thread_ids();
      std::vector<double> y(m.rows(), 0.0);
      if (symmetric) {
        SymmetricSpmv::from_full(m, 2, &ctx).multiply(x, y);
      } else {
        SegmentedScanSpmv(m, 2, &ctx).multiply(x, y);
      }
      ASSERT_EQ(ctx.pools_spawned(), 1u);
      std::size_t workers = 0;
      for (const long tid : thread_ids()) {
        if (before.count(tid) != 0) continue;
        const std::optional<cpu_set_t> cpus = allowed_cpus(tid);
        if (!cpus.has_value()) continue;
        ++workers;
        if (pin) {
          EXPECT_EQ(CPU_COUNT(&*cpus), 1) << "worker " << tid;
        } else {
          EXPECT_TRUE(CPU_EQUAL(&*cpus, &*caller)) << "worker " << tid;
        }
      }
      EXPECT_EQ(workers, 1u);
    }
  }
}

TEST(EnginePlan, BatchMatchesLoopedMultiply) {
  const CsrMatrix m = gen::fem_like(280, 3, 9.0, 45, 14);
  TuningOptions opt = TuningOptions::full(4);
  opt.tune_prefetch = false;
  const TunedMatrix tuned = TunedMatrix::plan(m, opt);

  constexpr std::size_t kBatch = 8;
  std::vector<std::vector<double>> xs_store, loop_ys, batch_ys;
  for (std::size_t i = 0; i < kBatch; ++i) {
    xs_store.push_back(random_vector(m.cols(), 60 + i));
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

TEST(EnginePlan, BatchOnSerialBaselineMatchesLoop) {
  const CsrMatrix m = gen::uniform_random(400, 380, 6.0, 15);
  const baseline::OskiLikeMatrix oski =
      baseline::OskiLikeMatrix::tune(m, baseline::RegisterProfile::typical());

  constexpr std::size_t kBatch = 4;
  std::vector<std::vector<double>> xs_store, loop_ys, batch_ys;
  for (std::size_t i = 0; i < kBatch; ++i) {
    xs_store.push_back(random_vector(m.cols(), 70 + i));
    loop_ys.emplace_back(m.rows(), 0.0);
    batch_ys.emplace_back(m.rows(), 0.0);
  }
  for (std::size_t i = 0; i < kBatch; ++i) {
    oski.multiply(xs_store[i], loop_ys[i]);
  }
  std::vector<const double*> xs;
  std::vector<double*> ys;
  for (std::size_t i = 0; i < kBatch; ++i) {
    xs.push_back(xs_store[i].data());
    ys.push_back(batch_ys[i].data());
  }
  oski.multiply_batch(xs, ys);
  for (std::size_t i = 0; i < kBatch; ++i) {
    EXPECT_EQ(batch_ys[i], loop_ys[i]) << "rhs " << i;
  }
}

TEST(EnginePlan, FrontDoorValidatesEveryFamily) {
  // Every plan family goes through SpmvPlan's one pair of front doors, so
  // each must reject the same malformed operands (an aliased x == y would
  // make OSKI's sweep read the y it writes and race PETSc's ranks), agree
  // with the reference on exact-length operands, and give bit-identical
  // results while its scratch is recycled.
  const CsrMatrix m = gen::fem_like(150, 2, 8.0, 30, 16);
  const auto x = random_vector(m.cols(), 80);
  const auto x2 = random_vector(m.cols(), 81);
  std::vector<double> expected(m.rows(), 0.5), expected2(m.rows(), 0.5);
  spmv_reference(m, x, expected);
  spmv_reference(m, x2, expected2);

  TuningOptions opt = TuningOptions::full(3);
  opt.tune_prefetch = false;
  const TunedMatrix tuned = TunedMatrix::plan(m, opt);
  const SegmentedScanSpmv ss(m, 3);
  const ColumnPartitionedSpmv cp = ColumnPartitionedSpmv::plan(m, opt);
  const SymmetricSpmv sym = SymmetricSpmv::from_full(m, 3);
  const MultiVectorSpmv mv(m, 1, 3);
  LocalStoreParams lsp;
  lsp.spes = 3;
  lsp.local_store_bytes = 32 * 1024;
  const LocalStoreSpmv ls = LocalStoreSpmv::plan(m, lsp);
  const baseline::OskiLikeMatrix oski =
      baseline::OskiLikeMatrix::tune(m, baseline::RegisterProfile::typical());
  const baseline::PetscLikeSpmv dist = baseline::PetscLikeSpmv::distribute(
      m, 3, baseline::RegisterProfile::typical());

  const std::pair<const char*, const engine::SpmvPlan*> plans[] = {
      {"tuned", &tuned},     {"segmented-scan", &ss}, {"column", &cp},
      {"symmetric", &sym},   {"multi-vector", &mv},   {"local-store", &ls},
      {"oski", &oski},       {"petsc", &dist}};
  for (const auto& [name, plan] : plans) {
    SCOPED_TRACE(name);
    ASSERT_EQ(plan->x_elements(), m.cols());
    ASSERT_EQ(plan->y_elements(), m.rows());

    std::vector<double> short_x(m.cols() - 1, 1.0), short_y(m.rows() - 1);
    std::vector<double> y(m.rows(), 0.0);
    EXPECT_THROW(plan->multiply(short_x, y), std::invalid_argument);
    EXPECT_THROW(plan->multiply(x, short_y), std::invalid_argument);
    std::vector<double> shared(m.rows(), 1.0);
    EXPECT_THROW(plan->multiply(std::span<const double>(shared),
                                std::span<double>(shared)),
                 std::invalid_argument);

    std::vector<double> a(m.rows(), 0.0), b(m.rows(), 0.0);
    using Xs = std::vector<const double*>;
    using Ys = std::vector<double*>;
    const std::pair<Xs, Ys> bad_batches[] = {
        {{x.data()}, {}},                               // size mismatch
        {{x.data(), nullptr}, {a.data(), b.data()}},    // null x
        {{x.data(), x2.data()}, {a.data(), nullptr}},   // null y
        {{x.data(), a.data()}, {a.data(), b.data()}},   // xs[1] == ys[0]
        {{x.data(), b.data()}, {a.data(), b.data()}},   // xs[1] == ys[1]
        {{x.data(), x2.data()}, {a.data(), a.data()}},  // duplicate y
    };
    for (const auto& [xs, ys] : bad_batches) {
      EXPECT_THROW(plan->multiply_batch(xs, ys), std::invalid_argument)
          << "batch of " << xs.size() << " x / " << ys.size() << " y";
    }

    // A repeated x is legal (x is read-only): each of its right-hand
    // sides matches a single multiply bitwise.
    {
      std::vector<double> single(m.rows(), 0.5);
      plan->multiply(x, single);
      std::vector<double> r1(m.rows(), 0.5), r2(m.rows(), 0.5);
      const Xs xs = {x.data(), x.data()};
      const Ys ys = {r1.data(), r2.data()};
      EXPECT_NO_THROW(plan->multiply_batch(xs, ys));
      EXPECT_EQ(r1, single);
      EXPECT_EQ(r2, single);
    }

    // Exact lengths pass.  Three rounds recycle the plan's scratch; every
    // round, and the batch against the single multiply, must agree bitwise.
    std::vector<double> first;
    for (int round = 0; round < 3; ++round) {
      std::vector<double> single(m.rows(), 0.5);
      plan->multiply(x, single);
      std::vector<double> y1(m.rows(), 0.5), y2(m.rows(), 0.5);
      const Xs xs = {x.data(), x2.data()};
      const Ys ys = {y1.data(), y2.data()};
      plan->multiply_batch(xs, ys);
      EXPECT_EQ(y1, single) << "round " << round;
      if (round == 0) {
        first = single;
        for (std::size_t i = 0; i < expected.size(); ++i) {
          ASSERT_NEAR(expected[i], single[i], 1e-11) << "row " << i;
          ASSERT_NEAR(expected2[i], y2[i], 1e-11) << "row " << i;
        }
      } else {
        EXPECT_EQ(single, first) << "round " << round;
      }
    }
  }
}

}  // namespace
}  // namespace spmv
