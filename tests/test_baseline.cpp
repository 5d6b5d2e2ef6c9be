// Tests for the OSKI-like serial autotuner and the PETSc-like emulated
// MPI SpMV.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "baseline/oski_like.h"
#include "baseline/petsc_like.h"
#include "gen/generators.h"
#include "matrix/coo.h"
#include "util/prng.h"

namespace spmv::baseline {
namespace {

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  std::vector<double> v(n);
  Prng rng(seed);
  for (double& x : v) x = rng.next_double(-1.0, 1.0);
  return v;
}

void expect_matches_reference(const CsrMatrix& m,
                              const std::function<void(
                                  std::span<const double>, std::span<double>)>&
                                  multiply,
                              double tol = 1e-11) {
  const auto x = random_vector(m.cols(), 70);
  auto expected = random_vector(m.rows(), 71);
  auto actual = expected;
  spmv_reference(m, x, expected);
  multiply(x, actual);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_NEAR(expected[i], actual[i], tol) << "row " << i;
  }
}

TEST(RegisterProfile, TypicalIsMonotoneInTileArea) {
  const RegisterProfile p = RegisterProfile::typical();
  EXPECT_DOUBLE_EQ(p.speedup[0][0], 1.0);
  EXPECT_GT(p.speedup[2][2], p.speedup[0][0]);
}

TEST(RegisterProfile, MeasuredHasPositiveEntries) {
  const RegisterProfile p = RegisterProfile::measure();
  for (const auto& row : p.speedup) {
    for (double v : row) EXPECT_GT(v, 0.0);
  }
  EXPECT_DOUBLE_EQ(p.speedup[0][0], 1.0);
}

TEST(OskiChoose, DensePicksBigTiles) {
  const CsrMatrix m = gen::dense(256);
  const OskiDecision d =
      oski_choose_blocking(m, RegisterProfile::typical(), 0.25);
  EXPECT_GT(d.br * d.bc, 1u);
  EXPECT_NEAR(d.estimated_fill, 1.0, 1e-9);
}

TEST(OskiChoose, DiagonalPicksUnit) {
  CooBuilder b(4096, 4096);
  for (std::uint32_t i = 0; i < 4096; ++i) b.add(i, i, 1.0);
  const CsrMatrix m = b.build();
  const OskiDecision d =
      oski_choose_blocking(m, RegisterProfile::typical(), 0.25);
  EXPECT_EQ(d.br * d.bc, 1u);
}

TEST(OskiChoose, FillEstimateNearTruth) {
  const CsrMatrix m = gen::fem_like(500, 2, 8.0, 50, 31);
  const OskiDecision d =
      oski_choose_blocking(m, RegisterProfile::typical(), 0.5);
  // dof=2 mesh: 2x2 fill is near 1; chosen blocking should reflect that.
  EXPECT_GE(d.br * d.bc, 2u);
  EXPECT_LT(d.estimated_fill, 1.7);
}

TEST(OskiChoose, ValidatesSampleFraction) {
  const CsrMatrix m = gen::dense(16);
  EXPECT_THROW(oski_choose_blocking(m, RegisterProfile::typical(), 0.0),
               std::invalid_argument);
  EXPECT_THROW(oski_choose_blocking(m, RegisterProfile::typical(), 1.5),
               std::invalid_argument);
}

TEST(OskiLike, MultiplyMatchesReference) {
  for (const auto* which : {"banded", "fem", "uniform"}) {
    const CsrMatrix m =
        which == std::string("banded")
            ? gen::banded(400, 4, 0.5, 1)
            : which == std::string("fem")
                  ? gen::fem_like(150, 3, 8.0, 30, 2)
                  : gen::uniform_random(500, 450, 6.0, 3);
    const OskiLikeMatrix tuned =
        OskiLikeMatrix::tune(m, RegisterProfile::typical(), 0.5);
    expect_matches_reference(
        m, [&](auto x, auto y) { tuned.multiply(x, y); });
  }
}

TEST(OskiLike, ExplicitBlockingMatchesReference) {
  const CsrMatrix m = gen::uniform_random(300, 280, 5.0, 4);
  for (unsigned br : {1u, 2u, 4u}) {
    for (unsigned bc : {1u, 2u, 4u}) {
      const OskiLikeMatrix tuned = OskiLikeMatrix::with_blocking(m, br, bc);
      expect_matches_reference(
          m, [&](auto x, auto y) { tuned.multiply(x, y); });
    }
  }
}

TEST(OskiLike, RejectsShortVectors) {
  const CsrMatrix m = gen::dense(8);
  const OskiLikeMatrix tuned = OskiLikeMatrix::with_blocking(m, 1, 1);
  std::vector<double> x(7), y(8);
  EXPECT_THROW(tuned.multiply(x, y), std::invalid_argument);
}

TEST(PetscLike, MatchesReferenceAcrossRankCounts) {
  const CsrMatrix m = gen::uniform_random(600, 600, 7.0, 5);
  for (unsigned ranks : {1u, 2u, 4u, 8u}) {
    PetscLikeSpmv dist =
        PetscLikeSpmv::distribute(m, ranks, RegisterProfile::typical());
    expect_matches_reference(
        m, [&](auto x, auto y) { dist.multiply(x, y); });
  }
}

TEST(PetscLike, WorksOnRectangularLp) {
  const CsrMatrix m = gen::lp_constraint(50, 8000, 9.0, 6);
  PetscLikeSpmv dist =
      PetscLikeSpmv::distribute(m, 4, RegisterProfile::typical());
  expect_matches_reference(m, [&](auto x, auto y) { dist.multiply(x, y); });
}

TEST(PetscLike, GhostColumnsAreOnlyOffSlice) {
  const CsrMatrix m = gen::banded(100, 2, 1.0, 7);
  PetscLikeSpmv dist =
      PetscLikeSpmv::distribute(m, 4, RegisterProfile::typical());
  // A tridiagonal-ish matrix only needs a couple of ghosts per boundary.
  // Verified indirectly: correctness plus tiny comm time relative to a
  // scattered matrix (structural check below on stats).
  expect_matches_reference(m, [&](auto x, auto y) { dist.multiply(x, y); });
}

TEST(PetscLike, TracksCommAndComputeTime) {
  const CsrMatrix m = gen::uniform_random(2000, 2000, 8.0, 8);
  PetscLikeSpmv dist =
      PetscLikeSpmv::distribute(m, 4, RegisterProfile::typical());
  std::vector<double> x(m.cols(), 1.0), y(m.rows(), 0.0);
  for (int i = 0; i < 5; ++i) dist.multiply(x, y);
  const PetscLikeStats& s = dist.stats();
  EXPECT_GT(s.comm_seconds, 0.0);
  EXPECT_GT(s.compute_seconds, 0.0);
  EXPECT_GT(s.comm_fraction(), 0.0);
  EXPECT_LT(s.comm_fraction(), 1.0);
  const std::uint64_t ghosts = s.ghost_entries;
  EXPECT_GT(ghosts, 0u);
  dist.reset_stats();
  EXPECT_EQ(dist.stats().comm_seconds, 0.0);
  EXPECT_EQ(dist.stats().ghost_entries, ghosts);  // fixed at distribute()
}

TEST(PetscLike, LpHasHighCommFraction) {
  // §6.2: LP's scattered wide rows make communication up to 56% of time.
  // Compared on counted traffic, not timers: the x entries each rank
  // copies in per multiply (its ghost columns), per nonzero.  LP ghosts
  // nearly all of x; the band ghosts a few boundary entries.
  const CsrMatrix lp = gen::lp_constraint(64, 60000, 10.0, 9);
  const CsrMatrix band = gen::banded(4000, 4, 0.9, 10);
  const PetscLikeSpmv dist_lp =
      PetscLikeSpmv::distribute(lp, 4, RegisterProfile::typical());
  const PetscLikeSpmv dist_band =
      PetscLikeSpmv::distribute(band, 4, RegisterProfile::typical());
  const std::uint64_t lp_ghosts = dist_lp.stats().ghost_entries;
  const std::uint64_t band_ghosts = dist_band.stats().ghost_entries;
  RecordProperty("lp_ghost_entries", static_cast<int>(lp_ghosts));
  RecordProperty("band_ghost_entries", static_cast<int>(band_ghosts));
  const double lp_per_nnz =
      static_cast<double>(lp_ghosts) / static_cast<double>(lp.nnz());
  const double band_per_nnz =
      static_cast<double>(band_ghosts) / static_cast<double>(band.nnz());
  EXPECT_GT(band_ghosts, 0u);
  EXPECT_GT(lp_per_nnz, 10.0 * band_per_nnz)
      << "LP " << lp_ghosts << " ghosts / " << lp.nnz() << " nnz, band "
      << band_ghosts << " / " << band.nnz();
}

TEST(PetscLike, ImbalanceReportedForSkewedMatrix) {
  CooBuilder b(400, 400);
  for (std::uint32_t r = 0; r < 100; ++r) {
    for (std::uint32_t c = 0; c < 16; ++c) b.add(r, (r + c) % 400, 1.0);
  }
  for (std::uint32_t r = 100; r < 400; ++r) b.add(r, r, 1.0);
  const CsrMatrix m = b.build();
  PetscLikeSpmv dist =
      PetscLikeSpmv::distribute(m, 4, RegisterProfile::typical());
  EXPECT_GT(dist.stats().imbalance, 3.0);
}

TEST(PetscLike, RejectsZeroRanks) {
  const CsrMatrix m = gen::dense(8);
  EXPECT_THROW(PetscLikeSpmv::distribute(m, 0, RegisterProfile::typical()),
               std::invalid_argument);
}

TEST(PetscLike, MoreRanksThanRows) {
  const CsrMatrix m = gen::dense(4);
  PetscLikeSpmv dist =
      PetscLikeSpmv::distribute(m, 16, RegisterProfile::typical());
  expect_matches_reference(m, [&](auto x, auto y) { dist.multiply(x, y); });
}

}  // namespace
}  // namespace spmv::baseline
