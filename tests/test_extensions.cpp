// Tests for the bandwidth-reduction extensions: symmetric half-storage
// SpMV, multiple-vector SpMM, DIA / hybrid-DIA formats, and RCM
// reordering.
#include <gtest/gtest.h>

#include <vector>

#include "core/multivector.h"
#include "core/symmetric.h"
#include "gen/generators.h"
#include "matrix/coo.h"
#include "matrix/dia.h"
#include "matrix/matrix_stats.h"
#include "matrix/reorder.h"
#include "support/test_helpers.h"
#include "util/prng.h"

namespace spmv {
namespace {

CsrMatrix symmetric_matrix(std::uint32_t n, std::uint64_t seed) {
  CooBuilder b(n, n);
  Prng rng(seed);
  for (std::uint32_t i = 0; i < n; ++i) {
    b.add(i, i, rng.next_double(1.0, 2.0));
    for (int e = 0; e < 3; ++e) {
      const auto j = static_cast<std::uint32_t>(rng.next_below(n));
      if (j == i) continue;
      const double v = rng.next_double(-1.0, 1.0);
      b.add(i, j, v);
      b.add(j, i, v);
    }
  }
  return b.build();
}

// --- symmetric ---

TEST(IsSymmetric, DetectsSymmetry) {
  EXPECT_TRUE(is_symmetric(symmetric_matrix(50, 1)));
  EXPECT_TRUE(is_symmetric(gen::fem_like(40, 3, 6.0, 10, 2)));
  EXPECT_FALSE(is_symmetric(gen::lp_constraint(10, 100, 5.0, 3)));
}

TEST(IsSymmetric, DetectsValueAsymmetry) {
  CooBuilder b(3, 3);
  b.add(0, 1, 1.0);
  b.add(1, 0, 2.0);  // pattern symmetric, values not
  EXPECT_FALSE(is_symmetric(b.build()));
  EXPECT_TRUE(is_symmetric(b.build(), /*tol=*/1.5));
}

TEST(SymmetricSpmv, RejectsAsymmetric) {
  EXPECT_THROW(SymmetricSpmv::from_full(gen::lp_constraint(10, 100, 5.0, 3)),
               std::invalid_argument);
}

TEST(SymmetricSpmv, MatchesReferenceSerialAndParallel) {
  const CsrMatrix m = symmetric_matrix(300, 4);
  for (unsigned threads : {1u, 2u, 4u}) {
    const SymmetricSpmv s = SymmetricSpmv::from_full(m, threads);
    const auto x = random_vector(m.cols(), 40);
    auto expected = random_vector(m.rows(), 41);
    auto actual = expected;
    spmv_reference(m, x, expected);
    s.multiply(x, actual);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_NEAR(expected[i], actual[i], 1e-11)
          << "threads=" << threads << " row " << i;
    }
  }
}

TEST(SymmetricSpmv, HalvesStorage) {
  const CsrMatrix m = symmetric_matrix(2000, 5);
  const SymmetricSpmv s = SymmetricSpmv::from_full(m);
  // Upper triangle ~ half the off-diagonals + full diagonal.
  EXPECT_LT(s.storage_ratio(), 0.62);
  EXPECT_GT(s.storage_ratio(), 0.45);
}

TEST(SymmetricSpmv, FemMatrixWorks) {
  const CsrMatrix m = gen::fem_like(80, 3, 8.0, 20, 6);
  ASSERT_TRUE(is_symmetric(m));
  const SymmetricSpmv s = SymmetricSpmv::from_full(m, 2);
  const auto x = random_vector(m.cols(), 42);
  auto expected = random_vector(m.rows(), 43);
  auto actual = expected;
  spmv_reference(m, x, expected);
  s.multiply(x, actual);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_NEAR(expected[i], actual[i], 1e-11);
  }
}

// --- multivector ---

TEST(MultiVector, MatchesReferencePerVector) {
  const CsrMatrix m = gen::uniform_random(200, 180, 7.0, 7);
  for (unsigned k : {1u, 2u, 3u, 4u, 8u}) {
    for (unsigned threads : {1u, 3u}) {
      const MultiVectorSpmv mv(m, k, threads);
      // Row-major X/Y with k vectors.
      const auto x = random_vector(static_cast<std::size_t>(m.cols()) * k, 50);
      auto y = random_vector(static_cast<std::size_t>(m.rows()) * k, 51);
      auto y_expected = y;
      mv.multiply(x, y);
      // Reference: per-vector strided extraction.
      for (unsigned j = 0; j < k; ++j) {
        std::vector<double> xj(m.cols()), yj(m.rows());
        for (std::uint32_t c = 0; c < m.cols(); ++c) xj[c] = x[c * k + j];
        for (std::uint32_t r = 0; r < m.rows(); ++r) {
          yj[r] = y_expected[static_cast<std::size_t>(r) * k + j];
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

TEST(MultiVector, AmplificationGrowsWithK) {
  const CsrMatrix m = gen::uniform_random(1000, 1000, 10.0, 8);
  double prev = 0.0;
  for (unsigned k : {1u, 2u, 4u, 8u}) {
    const MultiVectorSpmv mv(m, k);
    const double amp = mv.flop_byte_amplification();
    EXPECT_GT(amp, prev);
    prev = amp;
  }
  EXPECT_GT(prev, 3.0);  // k=8 should amortize the matrix stream well
}

TEST(MultiVector, Validation) {
  const CsrMatrix m = gen::dense(8);
  EXPECT_THROW(MultiVectorSpmv(m, 0), std::invalid_argument);
  EXPECT_THROW(MultiVectorSpmv(m, 2, 0), std::invalid_argument);
  const MultiVectorSpmv mv(m, 2);
  std::vector<double> x(15), y(16);
  EXPECT_THROW(mv.multiply(x, y), std::invalid_argument);
}

// --- DIA ---

TEST(Dia, RoundTripsStencilMatrix) {
  const CsrMatrix m = gen::markov2d(30, 30, 9);
  const DiaMatrix d = DiaMatrix::from_csr(m);
  EXPECT_TRUE(d.to_csr().equals(m));
  EXPECT_EQ(d.diagonals(), 4u);  // N, S, E, W stencil
}

TEST(Dia, MultiplyMatchesReference) {
  const CsrMatrix m = gen::banded(400, 3, 0.8, 10);
  const DiaMatrix d = DiaMatrix::from_csr(m);
  const auto x = random_vector(m.cols(), 60);
  auto expected = random_vector(m.rows(), 61);
  auto actual = expected;
  spmv_reference(m, x, expected);
  d.multiply(x, actual);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_NEAR(expected[i], actual[i], 1e-12);
  }
}

TEST(Dia, RectangularMatrixSupported) {
  const CsrMatrix m = gen::uniform_random(50, 80, 3.0, 11);
  const DiaMatrix d = DiaMatrix::from_csr(m);
  EXPECT_TRUE(d.to_csr().equals(m));
  const auto x = random_vector(80, 62);
  auto expected = std::vector<double>(50, 0.0);
  auto actual = expected;
  spmv_reference(m, x, expected);
  d.multiply(x, actual);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_NEAR(expected[i], actual[i], 1e-12);
  }
}

TEST(Dia, OccupancyPerfectForFullDiagonals) {
  CooBuilder b(64, 64);
  for (std::uint32_t i = 0; i < 64; ++i) b.add(i, i, 1.0);
  const DiaMatrix d = DiaMatrix::from_csr(b.build());
  EXPECT_DOUBLE_EQ(d.occupancy(), 1.0);
  EXPECT_EQ(d.diagonals(), 1u);
}

TEST(Dia, FootprintBeatsCsrOnStencil) {
  const CsrMatrix m = gen::markov2d(60, 60, 12);
  const DiaMatrix d = DiaMatrix::from_csr(m);
  const std::uint64_t csr_bytes = m.nnz() * 12 + (m.rows() + 1ull) * 4;
  EXPECT_LT(d.footprint_bytes(), csr_bytes);
}

TEST(HybridDia, SplitsByOccupancy) {
  // Stencil plus scattered noise: stencil diagonals should go DIA, noise
  // to the CSR remainder.
  CooBuilder b(900, 900);
  const CsrMatrix grid = gen::markov2d(30, 30, 13);
  const auto rp = grid.row_ptr();
  const auto ci = grid.col_idx();
  const auto v = grid.values();
  for (std::uint32_t r = 0; r < grid.rows(); ++r) {
    for (std::uint64_t k = rp[r]; k < rp[r + 1]; ++k) {
      b.add(r, ci[k], v[k]);
    }
  }
  Prng rng(14);
  for (int e = 0; e < 200; ++e) {
    b.add(static_cast<std::uint32_t>(rng.next_below(900)),
          static_cast<std::uint32_t>(rng.next_below(900)),
          rng.next_double(-1.0, 1.0));
  }
  const CsrMatrix m = b.build();
  const HybridDiaMatrix h = HybridDiaMatrix::from_csr(m, 0.5);
  EXPECT_GT(h.dia_fraction(), 0.8);
  EXPECT_GT(h.remainder().nnz(), 0u);

  const auto x = random_vector(900, 63);
  auto expected = random_vector(900, 64);
  auto actual = expected;
  spmv_reference(m, x, expected);
  h.multiply(x, actual);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_NEAR(expected[i], actual[i], 1e-11);
  }
}

TEST(HybridDia, ThresholdValidated) {
  const CsrMatrix m = gen::dense(8);
  EXPECT_THROW(HybridDiaMatrix::from_csr(m, -0.1), std::invalid_argument);
  EXPECT_THROW(HybridDiaMatrix::from_csr(m, 1.1), std::invalid_argument);
}

// --- reorder ---

TEST(Rcm, PermutationIsBijection) {
  const CsrMatrix m = gen::uniform_random(200, 200, 5.0, 15);
  const auto perm = reverse_cuthill_mckee(m);
  EXPECT_EQ(perm.size(), 200u);
  // invert_permutation throws if not a bijection.
  EXPECT_NO_THROW(invert_permutation(perm));
}

TEST(Rcm, ShrinksBandwidthOfShuffledBand) {
  // Take a banded matrix, scramble it, and check RCM recovers most of the
  // locality.
  const CsrMatrix band = gen::banded(600, 4, 0.8, 16);
  // Scramble with a random permutation.
  std::vector<std::uint32_t> shuffle(600);
  for (std::uint32_t i = 0; i < 600; ++i) shuffle[i] = i;
  Prng rng(17);
  for (std::uint32_t i = 599; i > 0; --i) {
    std::swap(shuffle[i],
              shuffle[static_cast<std::uint32_t>(rng.next_below(i + 1))]);
  }
  const CsrMatrix scrambled = permute_symmetric(band, shuffle);
  ASSERT_GT(matrix_bandwidth(scrambled), 100u);

  const auto perm = reverse_cuthill_mckee(scrambled);
  const CsrMatrix restored = permute_symmetric(scrambled, perm);
  EXPECT_LT(matrix_bandwidth(restored), 40u);
}

TEST(Rcm, PermutedSpmvIsConsistent) {
  // y' = P A P^T (P x) must equal P (A x).
  const CsrMatrix m = symmetric_matrix(150, 18);
  const auto perm = reverse_cuthill_mckee(m);
  const CsrMatrix pm = permute_symmetric(m, perm);

  const auto x = random_vector(150, 70);
  std::vector<double> y(150, 0.0);
  spmv_reference(m, x, y);

  std::vector<double> px(150), py(150, 0.0);
  for (std::uint32_t i = 0; i < 150; ++i) px[i] = x[perm[i]];
  spmv_reference(pm, px, py);
  for (std::uint32_t i = 0; i < 150; ++i) {
    EXPECT_NEAR(py[i], y[perm[i]], 1e-12);
  }
}

TEST(Rcm, HandlesDisconnectedComponents) {
  // Two disconnected chains with no coupling: RCM must order both.
  CooBuilder b(20, 20);
  for (std::uint32_t i = 0; i < 9; ++i) b.add_symmetric(i, i + 1, 1.0);
  for (std::uint32_t i = 10; i < 19; ++i) b.add_symmetric(i, i + 1, 1.0);
  const auto perm = reverse_cuthill_mckee(b.build());
  EXPECT_NO_THROW(invert_permutation(perm));
  EXPECT_EQ(perm.size(), 20u);
}

TEST(Reorder, PermuteValidation) {
  const CsrMatrix m = gen::dense(4);
  std::vector<std::uint32_t> bad = {0, 1, 2};  // wrong size
  EXPECT_THROW(permute_symmetric(m, bad), std::invalid_argument);
  std::vector<std::uint32_t> dup = {0, 1, 1, 3};
  EXPECT_THROW(permute_symmetric(m, dup), std::invalid_argument);
}

TEST(Reorder, BandwidthMetric) {
  CooBuilder b(5, 5);
  b.add(0, 4, 1.0);
  b.add(2, 2, 1.0);
  EXPECT_EQ(matrix_bandwidth(b.build()), 4u);
}

}  // namespace
}  // namespace spmv
