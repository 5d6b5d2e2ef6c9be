// Tests for the SPARSITY-style splitting optimization A = blocked +
// remainder: numerics, routing invariants, and the auto planner's
// footprint objective.
#include <gtest/gtest.h>

#include <vector>

#include "core/splitting.h"
#include "core/tuner.h"
#include "gen/generators.h"
#include "matrix/coo.h"
#include "support/test_helpers.h"
#include "util/prng.h"

namespace spmv {
namespace {

/// Dense 2x2 blocks on the grid plus scattered singletons: the exact
/// workload splitting exists for.
CsrMatrix blocks_plus_noise(std::uint32_t n, std::uint64_t seed) {
  CooBuilder b(n, n);
  Prng rng(seed);
  for (std::uint32_t i = 0; i + 2 <= n; i += 8) {
    const auto j = static_cast<std::uint32_t>(rng.next_below(n / 2) * 2);
    for (unsigned a = 0; a < 2; ++a) {
      for (unsigned c = 0; c < 2; ++c) {
        b.add(i + a, j + c, rng.next_double(-1.0, 1.0));
      }
    }
  }
  for (std::uint32_t e = 0; e < n; ++e) {
    b.add(static_cast<std::uint32_t>(rng.next_below(n)),
          static_cast<std::uint32_t>(rng.next_below(n)),
          rng.next_double(-1.0, 1.0));
  }
  return b.build();
}

TEST(Splitting, MatchesReference) {
  const CsrMatrix m = blocks_plus_noise(600, 1);
  for (unsigned br : {1u, 2u, 4u}) {
    for (unsigned bc : {1u, 2u, 4u}) {
      const unsigned thr = std::max(1u, br * bc / 2);
      const SplitSpmv split = SplitSpmv::plan(m, br, bc, thr);
      const auto x = random_vector(m.cols(), 10);
      auto expected = random_vector(m.rows(), 11);
      auto actual = expected;
      spmv_reference(m, x, expected);
      split.multiply(x, actual);
      for (std::size_t i = 0; i < expected.size(); ++i) {
        ASSERT_NEAR(expected[i], actual[i], 1e-11)
            << br << "x" << bc << " row " << i;
      }
    }
  }
}

TEST(Splitting, RoutesAllNonzeros) {
  const CsrMatrix m = blocks_plus_noise(400, 2);
  const SplitSpmv split = SplitSpmv::plan(m, 2, 2, 3);
  EXPECT_EQ(split.decision().blocked_nnz + split.decision().remainder_nnz,
            m.nnz());
  EXPECT_GT(split.decision().blocked_nnz, 0u);
  EXPECT_GT(split.decision().remainder_nnz, 0u);
}

TEST(Splitting, DenseMatrixIsFullyBlocked) {
  const CsrMatrix m = gen::dense(64);
  const SplitSpmv split = SplitSpmv::plan(m, 4, 4, 16);
  EXPECT_EQ(split.decision().blocked_nnz, m.nnz());
  EXPECT_EQ(split.decision().remainder_nnz, 0u);
}

TEST(Splitting, DiagonalGoesToRemainder) {
  CooBuilder b(256, 256);
  for (std::uint32_t i = 0; i < 256; ++i) b.add(i, i, 1.0);
  const SplitSpmv split = SplitSpmv::plan(b.build(), 4, 4, 3);
  // A 4x4 diagonal tile holds 4 nonzeros >= 3 -> actually blocked; use a
  // stricter threshold to force routing.
  const SplitSpmv strict = SplitSpmv::plan(b.build(), 4, 4, 8);
  EXPECT_EQ(strict.decision().blocked_nnz, 0u);
  EXPECT_EQ(split.decision().remainder_nnz, 0u);
}

TEST(Splitting, AutoBeatsOrMatchesUniformChoices) {
  const CsrMatrix m = blocks_plus_noise(800, 3);
  const SplitSpmv automatic = SplitSpmv::plan_auto(m);
  // Auto's footprint must not exceed the plain-CSR reference point (1x1
  // is in its candidate set).
  const std::uint64_t plain = csr_footprint(m.nnz(), m.rows());
  EXPECT_LE(automatic.decision().total_bytes(), plain + 16);

  const auto x = random_vector(m.cols(), 12);
  auto expected = random_vector(m.rows(), 13);
  auto actual = expected;
  spmv_reference(m, x, expected);
  automatic.multiply(x, actual);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_NEAR(expected[i], actual[i], 1e-11);
  }
}

TEST(Splitting, AutoPrefersBlockedForFem) {
  // 4-dof FEM: aligned dense blocks -> auto must pick a blocked shape
  // with a high blocked fraction.
  const CsrMatrix m = gen::fem_like(300, 4, 8.0, 40, 4);
  const SplitSpmv automatic = SplitSpmv::plan_auto(m);
  EXPECT_GT(automatic.decision().br * automatic.decision().bc, 1u);
  EXPECT_GT(automatic.decision().blocked_fraction(), 0.9);
}

TEST(Splitting, SplitBeatsUniformBlockingOnMixedMatrix) {
  // The motivating case: uniform 2x2 pays fill on the singletons; the
  // split stores them unpadded.
  const CsrMatrix m = blocks_plus_noise(1000, 5);
  const SplitSpmv split = SplitSpmv::plan(m, 2, 2, 3);
  const TileCounts tc = count_tiles(m, {0, m.rows(), 0, m.cols()});
  const std::uint64_t uniform_2x2 = encoding_footprint(
      tc.at(2, 2), 2, 2, m.rows(), BlockFormat::kBcsr, IndexWidth::k16);
  EXPECT_LT(split.decision().total_bytes(), uniform_2x2);
}

TEST(Splitting, Validation) {
  const CsrMatrix m = gen::dense(8);
  EXPECT_THROW(SplitSpmv::plan(m, 3, 2, 1), std::invalid_argument);
  EXPECT_THROW(SplitSpmv::plan(m, 2, 2, 0), std::invalid_argument);
  EXPECT_THROW(SplitSpmv::plan(m, 2, 2, 5), std::invalid_argument);
  const SplitSpmv split = SplitSpmv::plan(m, 2, 2, 2);
  std::vector<double> x(7), y(8);
  EXPECT_THROW(split.multiply(x, y), std::invalid_argument);
}

TEST(Splitting, EmptyMatrix) {
  CooBuilder b(16, 16);
  b.add(0, 0, 1.0);
  const CsrMatrix m = b.build();
  const SplitSpmv split = SplitSpmv::plan(m, 4, 4, 16);
  std::vector<double> x(16, 2.0), y(16, 0.0);
  split.multiply(x, y);
  EXPECT_DOUBLE_EQ(y[0], 2.0);
}

}  // namespace
}  // namespace spmv
