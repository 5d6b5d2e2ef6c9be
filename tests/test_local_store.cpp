// Tests for the Cell-style local-store SpMV executor: numerics against the
// reference, local-store capacity invariants, DMA traffic accounting, and
// the 10-bytes-per-nonzero format the paper's §6.1 analysis assumes.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "core/local_store.h"
#include "gen/generators.h"
#include "gen/suite.h"
#include "matrix/coo.h"
#include "support/test_helpers.h"
#include "util/prng.h"

namespace spmv {
namespace {

CsrMatrix matrix_by_name(const std::string& which) {
  if (which == "banded") return gen::banded(800, 5, 0.5, 1);
  if (which == "uniform") return gen::uniform_random(900, 850, 7.0, 2);
  if (which == "fem") return gen::fem_like(200, 3, 9.0, 40, 3);
  if (which == "markov") return gen::markov2d(45, 45, 4);
  if (which == "wide") return gen::lp_constraint(64, 150000, 9.0, 5);
  if (which == "emptyrows") {
    CooBuilder b(400, 400);
    Prng rng(6);
    for (int e = 0; e < 1200; ++e) {
      std::uint32_t r = static_cast<std::uint32_t>(rng.next_below(400));
      if (r % 5 == 2) continue;
      b.add(r, static_cast<std::uint32_t>(rng.next_below(400)),
            rng.next_double(-1.0, 1.0));
    }
    return b.build();
  }
  throw std::logic_error("unknown matrix");
}

class LocalStoreSweep
    : public testing::TestWithParam<std::tuple<std::string, unsigned,
                                               std::size_t>> {};

TEST_P(LocalStoreSweep, MatchesReference) {
  const auto& [which, spes, ls_kb] = GetParam();
  const CsrMatrix m = matrix_by_name(which);
  LocalStoreParams p;
  p.spes = spes;
  p.local_store_bytes = ls_kb * 1024;
  p.dma_chunk_bytes = 4 * 1024;  // small chunks exercise double buffering
  const LocalStoreSpmv ls = LocalStoreSpmv::plan(m, p);

  const auto x = random_vector(m.cols(), 30);
  auto expected = random_vector(m.rows(), 31);
  auto actual = expected;
  spmv_reference(m, x, expected);
  ls.multiply(x, actual);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_NEAR(expected[i], actual[i], 1e-11) << "row " << i;
  }
}

std::string local_store_name(
    const testing::TestParamInfo<LocalStoreSweep::ParamType>& info) {
  return std::get<0>(info.param) + "_s" +
         std::to_string(std::get<1>(info.param)) + "_ls" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LocalStoreSweep,
    testing::Combine(testing::Values("banded", "uniform", "fem", "markov",
                                     "wide", "emptyrows"),
                     testing::Values(1u, 2u, 6u),
                     testing::Values<std::size_t>(32, 256)),
    local_store_name);

TEST(LocalStore, CellFormatIsTenBytesPerNonzero) {
  // §4.4: DMAs plus "compressed 2 byte indices" — 8B value + 2B index with
  // small row-start overhead.
  const CsrMatrix m = gen::generate_suite_matrix("FEM/Cantilever", 0.05);
  const LocalStoreSpmv ls = LocalStoreSpmv::plan(m, {});
  EXPECT_GT(ls.bytes_per_nnz(), 10.0);
  EXPECT_LT(ls.bytes_per_nnz(), 11.5);
}

TEST(LocalStore, DmaAccountingMatchesFormat) {
  const CsrMatrix m = gen::uniform_random(2000, 2000, 8.0, 7);
  LocalStoreParams p;
  p.spes = 2;
  const LocalStoreSpmv ls = LocalStoreSpmv::plan(m, p);
  const auto x = random_vector(m.cols(), 32);
  std::vector<double> y(m.rows(), 0.0);
  ls.multiply(x, y);
  const DmaStats& s = ls.stats();
  // Matrix stream: exactly 10 bytes per stored nonzero per sweep.
  EXPECT_EQ(s.matrix_bytes, m.nnz() * 10u);
  // x windows: at least the compulsory 8 bytes per column.
  EXPECT_GE(s.x_bytes, 8u * m.cols());
  // y: read + write per block row window.
  EXPECT_GE(s.y_bytes, 16u * m.rows());
  EXPECT_GT(s.dma_transfers, 0u);

  // Stats accumulate across calls and reset cleanly.
  ls.multiply(x, y);
  EXPECT_EQ(ls.stats().matrix_bytes, 2 * m.nnz() * 10u);
  const_cast<LocalStoreSpmv&>(ls).reset_stats();
  EXPECT_EQ(ls.stats().total_bytes(), 0u);
}

TEST(LocalStore, SmallLocalStoreMakesMoreBlocks) {
  const CsrMatrix m = gen::uniform_random(4000, 100000, 6.0, 8);
  LocalStoreParams big;
  big.local_store_bytes = 1024 * 1024;
  LocalStoreParams small;
  small.local_store_bytes = 32 * 1024;
  const LocalStoreSpmv a = LocalStoreSpmv::plan(m, big);
  const LocalStoreSpmv b = LocalStoreSpmv::plan(m, small);
  EXPECT_GT(b.blocks(), a.blocks());
}

TEST(LocalStore, WideMatrixRespects16BitWindows) {
  // Column windows must stay under 64Ki columns for 2-byte offsets even
  // with a huge local store.
  const CsrMatrix m = gen::lp_constraint(32, 200000, 8.0, 9);
  LocalStoreParams p;
  p.local_store_bytes = 4 * 1024 * 1024;
  const LocalStoreSpmv ls = LocalStoreSpmv::plan(m, p);
  const auto x = random_vector(m.cols(), 33);
  auto expected = std::vector<double>(m.rows(), 0.0);
  auto actual = expected;
  spmv_reference(m, x, expected);
  ls.multiply(x, actual);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_NEAR(expected[i], actual[i], 1e-11);
  }
}

TEST(LocalStore, Validation) {
  const CsrMatrix m = gen::dense(8);
  LocalStoreParams zero;
  zero.spes = 0;
  EXPECT_THROW(LocalStoreSpmv::plan(m, zero), std::invalid_argument);
  LocalStoreParams tiny;
  tiny.local_store_bytes = 1024;
  EXPECT_THROW(LocalStoreSpmv::plan(m, tiny), std::invalid_argument);
  const LocalStoreSpmv ls = LocalStoreSpmv::plan(m, {});
  std::vector<double> x(7), y(8);
  EXPECT_THROW(ls.multiply(x, y), std::invalid_argument);
}

TEST(LocalStore, AccumulateSemantics) {
  const CsrMatrix m = matrix_by_name("banded");
  const LocalStoreSpmv ls = LocalStoreSpmv::plan(m, {});
  const auto x = random_vector(m.cols(), 34);
  std::vector<double> once(m.rows(), 0.0), twice(m.rows(), 0.0);
  ls.multiply(x, once);
  ls.multiply(x, twice);
  ls.multiply(x, twice);
  for (std::size_t i = 0; i < once.size(); ++i) {
    EXPECT_NEAR(twice[i], 2.0 * once[i], 1e-11);
  }
}

}  // namespace
}  // namespace spmv
