// Property tests: every CSR kernel flavor must agree with the reference
// implementation on every matrix class, including adversarial structures
// (empty rows, single column, dense rows).
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "core/kernels_csr.h"
#include "gen/generators.h"
#include "matrix/coo.h"
#include "support/test_helpers.h"
#include "util/prng.h"

namespace spmv {
namespace {

void expect_near_vectors(const std::vector<double>& a,
                         const std::vector<double>& b, double tol) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], tol) << "at index " << i;
  }
}

CsrMatrix matrix_with_empty_rows() {
  CooBuilder b(50, 40);
  Prng rng(5);
  for (int e = 0; e < 120; ++e) {
    // Rows 10..19 and 30..39 left empty.
    std::uint32_t r = static_cast<std::uint32_t>(rng.next_below(50));
    if ((r >= 10 && r < 20) || (r >= 30 && r < 40)) r = 0;
    b.add(r, static_cast<std::uint32_t>(rng.next_below(40)),
          rng.next_double(-2.0, 2.0));
  }
  return b.build();
}

CsrMatrix matrix_by_name(const std::string& which) {
  if (which == "banded") return gen::banded(300, 4, 0.6, 1);
  if (which == "uniform") return gen::uniform_random(400, 350, 9.0, 2);
  if (which == "dense") return gen::dense(64);
  if (which == "fem") return gen::fem_like(120, 3, 8.0, 30, 3);
  if (which == "powerlaw") return gen::power_law(800, 3.0, 4);
  if (which == "emptyrows") return matrix_with_empty_rows();
  if (which == "lp") return gen::lp_constraint(40, 5000, 9.0, 6);
  if (which == "singlecol") {
    CooBuilder b(100, 1);
    for (std::uint32_t i = 0; i < 100; i += 2) b.add(i, 0, 1.0 + i);
    return b.build();
  }
  throw std::logic_error("unknown matrix");
}

class CsrFlavor
    : public testing::TestWithParam<std::tuple<std::string, KernelFlavor,
                                               unsigned>> {};

TEST_P(CsrFlavor, MatchesReference) {
  const auto& [which, flavor, prefetch] = GetParam();
  const CsrMatrix m = matrix_by_name(which);
  const auto x = random_vector(m.cols(), 11);
  auto expected = random_vector(m.rows(), 12);
  auto actual = expected;

  spmv_reference(m, x, expected);
  spmv_csr(m, x, actual, flavor, prefetch);
  expect_near_vectors(expected, actual, 1e-12);
}

std::string csr_flavor_name(
    const testing::TestParamInfo<CsrFlavor::ParamType>& info) {
  std::string name = std::get<0>(info.param);
  name += "_";
  name += to_string(std::get<1>(info.param));
  name += std::get<2>(info.param) == 0 ? "_pf0" : "_pf64";
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllFlavorsAllMatrices, CsrFlavor,
    testing::Combine(
        testing::Values("banded", "uniform", "dense", "fem", "powerlaw",
                        "emptyrows", "lp", "singlecol"),
        testing::Values(KernelFlavor::kNaive, KernelFlavor::kSingleIndex,
                        KernelFlavor::kBranchless, KernelFlavor::kPipelined,
                        KernelFlavor::kSimd),
        testing::Values(0u, 64u)),
    csr_flavor_name);

TEST(CsrKernels, AccumulateSemantics) {
  // y <- y + Ax must *add*, not overwrite.
  const CsrMatrix m = gen::banded(50, 2, 1.0, 8);
  const auto x = random_vector(m.cols(), 21);
  std::vector<double> y(m.rows(), 5.0);
  std::vector<double> zero(m.rows(), 0.0);
  spmv_csr(m, x, zero, KernelFlavor::kSingleIndex);
  spmv_csr(m, x, y, KernelFlavor::kSingleIndex);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_NEAR(y[i], zero[i] + 5.0, 1e-12);
  }
}

TEST(CsrKernels, RejectsShortVectors) {
  const CsrMatrix m = gen::dense(8);
  std::vector<double> x(7), y(8);
  EXPECT_THROW(spmv_csr(m, x, y, KernelFlavor::kNaive),
               std::invalid_argument);
}

TEST(CsrKernels, RejectsAliasing) {
  const CsrMatrix m = gen::dense(8);
  std::vector<double> xy(8);
  EXPECT_THROW(
      spmv_csr(m, xy, xy, KernelFlavor::kNaive),
      std::invalid_argument);
}

TEST(CsrKernels, EmptyMatrixIsNoop) {
  CooBuilder b(5, 5);
  b.add(0, 0, 0.0);  // one explicit zero entry; also test the all-empty path
  const CsrMatrix m = b.build(/*drop_zeros=*/true);
  ASSERT_EQ(m.nnz(), 0u);
  std::vector<double> x(5, 1.0);
  std::vector<double> y(5, 2.0);
  for (const auto flavor :
       {KernelFlavor::kNaive, KernelFlavor::kSingleIndex,
        KernelFlavor::kBranchless, KernelFlavor::kPipelined,
        KernelFlavor::kSimd}) {
    spmv_csr(m, x, y, flavor);
    for (double v : y) EXPECT_DOUBLE_EQ(v, 2.0);
  }
}

TEST(CsrKernels, HugePrefetchDistanceIsSafe) {
  // Prefetching far past the end of the arrays must not fault (prefetch is
  // a hint); 512 doubles is the paper's maximum tuned distance.
  const CsrMatrix m = gen::banded(100, 2, 0.8, 31);
  const auto x = random_vector(m.cols(), 31);
  auto expected = std::vector<double>(m.rows(), 0.0);
  auto actual = expected;
  spmv_reference(m, x, expected);
  spmv_csr(m, x, actual, KernelFlavor::kPipelined, 512);
  expect_near_vectors(expected, actual, 1e-12);
}

}  // namespace
}  // namespace spmv
