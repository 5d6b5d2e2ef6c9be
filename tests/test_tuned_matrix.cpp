// End-to-end tests of the tuned SpMV: every combination of optimizations
// and thread counts must reproduce the reference result on every matrix
// class, and the tuning report must be internally consistent.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "core/tuned_matrix.h"
#include "gen/generators.h"
#include "gen/suite.h"
#include "matrix/coo.h"
#include "support/test_helpers.h"
#include "util/prng.h"

namespace spmv {
namespace {

CsrMatrix matrix_by_name(const std::string& which) {
  if (which == "banded") return gen::banded(700, 5, 0.4, 1);
  if (which == "uniform") return gen::uniform_random(900, 800, 7.0, 2);
  if (which == "fem") return gen::fem_like(250, 3, 9.0, 40, 3);
  if (which == "markov") return gen::markov2d(40, 40, 4);
  if (which == "powerlaw") return gen::power_law(2000, 3.0, 5);
  if (which == "lp") return gen::lp_constraint(60, 20000, 10.0, 6);
  if (which == "ragged") {
    CooBuilder b(611, 533);
    Prng rng(7);
    for (int e = 0; e < 2500; ++e) {
      const auto r = static_cast<std::uint32_t>(rng.next_below(611));
      if (r % 9 == 2) continue;
      b.add(r, static_cast<std::uint32_t>(rng.next_below(533)),
            rng.next_double(-1.0, 1.0));
    }
    return b.build();
  }
  throw std::logic_error("unknown matrix");
}

void expect_matches_reference(const CsrMatrix& m, const TuningOptions& opt,
                              double tol = 1e-11) {
  const TunedMatrix tuned = TunedMatrix::plan(m, opt);
  const auto x = random_vector(m.cols(), 50);
  auto expected = random_vector(m.rows(), 51);
  auto actual = expected;
  spmv_reference(m, x, expected);
  tuned.multiply(x, actual);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_NEAR(expected[i], actual[i], tol) << "row " << i;
  }
}

class TunedSweep
    : public testing::TestWithParam<std::tuple<std::string, unsigned, bool>> {
};

TEST_P(TunedSweep, MatchesReference) {
  const auto& [which, threads, full_opts] = GetParam();
  const CsrMatrix m = matrix_by_name(which);
  TuningOptions opt = full_opts ? TuningOptions::full(threads)
                                : TuningOptions::naive();
  opt.threads = threads;
  // Tiny cache budget to force multiple cache blocks even on small tests.
  opt.cache_bytes_for_blocking = 32 * 1024;
  expect_matches_reference(m, opt);
}

std::string tuned_sweep_name(
    const testing::TestParamInfo<TunedSweep::ParamType>& info) {
  return std::get<0>(info.param) + "_t" +
         std::to_string(std::get<1>(info.param)) +
         (std::get<2>(info.param) ? "_full" : "_naive");
}

INSTANTIATE_TEST_SUITE_P(
    MatricesThreadsOpts, TunedSweep,
    testing::Combine(testing::Values("banded", "uniform", "fem", "markov",
                                     "powerlaw", "lp", "ragged"),
                     testing::Values(1u, 2u, 4u),
                     testing::Values(false, true)),
    tuned_sweep_name);

TEST(TunedMatrix, IndividualTogglesAllAgree) {
  const CsrMatrix m = matrix_by_name("fem");
  for (int mask = 0; mask < 16; ++mask) {
    TuningOptions opt;
    opt.register_blocking = (mask & 1) != 0;
    opt.allow_bcoo = (mask & 2) != 0;
    opt.index_compression = (mask & 4) != 0;
    opt.cache_blocking = (mask & 8) != 0;
    opt.tlb_blocking = opt.cache_blocking;
    opt.cache_bytes_for_blocking = 16 * 1024;
    opt.threads = 2;
    expect_matches_reference(m, opt);
  }
}

TEST(TunedMatrix, SuiteMatricesAtSmallScale) {
  for (const auto& entry : gen::suite_entries()) {
    const CsrMatrix m = gen::generate_suite_matrix(entry, 0.03);
    TuningOptions opt = TuningOptions::full(2);
    expect_matches_reference(m, opt);
  }
}

TEST(TunedMatrix, ReportConsistency) {
  const CsrMatrix m = matrix_by_name("fem");
  TuningOptions opt = TuningOptions::full(2);
  opt.cache_bytes_for_blocking = 32 * 1024;
  const TunedMatrix tuned = TunedMatrix::plan(m, opt);
  const TuningReport& r = tuned.report();

  EXPECT_EQ(r.rows, m.rows());
  EXPECT_EQ(r.cols, m.cols());
  EXPECT_EQ(r.nnz, m.nnz());
  EXPECT_EQ(r.threads, 2u);
  EXPECT_EQ(r.blocks.size(), r.cache_blocks);
  EXPECT_GE(r.fill_ratio, 1.0);
  EXPECT_GT(r.tuned_bytes, 0u);
  // Tuned footprint must beat or match plain CSR (that's the objective).
  EXPECT_LE(r.tuned_bytes, r.csr_bytes);
  // Per-block footprints sum to the total.
  std::uint64_t sum = 0;
  for (const auto& b : r.blocks) sum += b.decision.footprint_bytes;
  EXPECT_EQ(sum, r.tuned_bytes);
  EXPECT_FALSE(r.summary().empty());
}

TEST(TunedMatrix, NnzBalanceAcrossThreads) {
  const CsrMatrix m = matrix_by_name("uniform");
  TuningOptions opt = TuningOptions::full(4);
  const TunedMatrix tuned = TunedMatrix::plan(m, opt);
  // Sum block nnz per thread; each thread should be within 30% of ideal.
  std::vector<std::uint64_t> per_thread(4, 0);
  for (const auto& b : tuned.report().blocks) {
    per_thread[b.thread] += b.decision.nnz;
  }
  const double ideal = static_cast<double>(m.nnz()) / 4.0;
  for (std::uint64_t n : per_thread) {
    EXPECT_LT(static_cast<double>(n), 1.3 * ideal);
  }
}

TEST(TunedMatrix, RepeatedMultiplyAccumulates) {
  const CsrMatrix m = matrix_by_name("banded");
  const TunedMatrix tuned = TunedMatrix::plan(m, TuningOptions::full(2));
  const auto x = random_vector(m.cols(), 60);
  std::vector<double> once(m.rows(), 0.0);
  std::vector<double> twice(m.rows(), 0.0);
  tuned.multiply(x, once);
  tuned.multiply(x, twice);
  tuned.multiply(x, twice);
  for (std::size_t i = 0; i < once.size(); ++i) {
    EXPECT_NEAR(twice[i], 2.0 * once[i], 1e-11);
  }
}

TEST(TunedMatrix, InputValidation) {
  const CsrMatrix m = gen::dense(16);
  const TunedMatrix tuned = TunedMatrix::plan(m, TuningOptions::naive());
  std::vector<double> short_x(15), y(16), x(16);
  EXPECT_THROW(tuned.multiply(short_x, y), std::invalid_argument);
  EXPECT_THROW(tuned.multiply(x, std::span<double>(x)),
               std::invalid_argument);
  TuningOptions zero;
  zero.threads = 0;
  EXPECT_THROW(TunedMatrix::plan(m, zero), std::invalid_argument);
}

TEST(TunedMatrix, MoreThreadsThanRows) {
  CooBuilder b(3, 3);
  b.add(0, 0, 1.0);
  b.add(2, 2, 2.0);
  const CsrMatrix m = b.build();
  TuningOptions opt = TuningOptions::full(8);
  expect_matches_reference(m, opt);
}

TEST(TunedMatrix, PlanTimeRecorded) {
  const CsrMatrix m = matrix_by_name("banded");
  const TunedMatrix tuned = TunedMatrix::plan(m, TuningOptions::full(1));
  EXPECT_GT(tuned.report().plan_seconds, 0.0);
}

TEST(TunedMatrix, CompressionOnFemMatrix) {
  // FEM matrices under 64K columns should compress markedly vs CSR thanks
  // to register blocking + 16-bit indices (§4.2's headline claim).
  const CsrMatrix m = gen::fem_like(2000, 4, 12.0, 100, 11);
  TuningOptions opt = TuningOptions::full(1);
  const TunedMatrix tuned = TunedMatrix::plan(m, opt);
  EXPECT_LT(tuned.report().compression_ratio(), 0.80);
}

TEST(TunedMatrix, UntunedPlanPrefetchesNothing) {
  // With the prefetch search off, full() keeps software prefetch off: a
  // fixed distance slowed cache-resident plans severalfold, and the
  // search, where it runs, picks 0 for most matrices anyway.
  TuningOptions opt = TuningOptions::full(2);
  opt.tune_prefetch = false;
  EXPECT_EQ(opt.prefetch_distance, 0u);
  const TunedMatrix tuned = TunedMatrix::plan(matrix_by_name("fem"), opt);
  EXPECT_EQ(tuned.report().prefetch_distance, 0u);
}

}  // namespace
}  // namespace spmv
