// Tests for the alternative parallelization strategies of §4.3: segmented
// scan (nonzero-balanced) and column partitioning — both must agree with
// the reference on every matrix class and thread count, and exhibit their
// defining structural properties.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "core/column_partition.h"
#include "core/partition.h"
#include "core/segmented_scan.h"
#include "gen/generators.h"
#include "matrix/coo.h"
#include "support/test_helpers.h"
#include "util/prng.h"

namespace spmv {
namespace {

CsrMatrix matrix_by_name(const std::string& which) {
  if (which == "banded") return gen::banded(500, 4, 0.5, 1);
  if (which == "uniform") return gen::uniform_random(700, 650, 6.0, 2);
  if (which == "fem") return gen::fem_like(150, 3, 9.0, 40, 3);
  if (which == "powerlaw") return gen::power_law(1500, 3.0, 4);
  if (which == "fatrows") {
    // One huge row dominating the nonzero count — the case row
    // partitioning cannot balance but segmented scan can.
    CooBuilder b(400, 4000);
    Prng rng(5);
    for (std::uint32_t c = 0; c < 3000; ++c) {
      b.add(0, c, rng.next_double(-1.0, 1.0));
    }
    for (std::uint32_t r = 1; r < 400; ++r) {
      b.add(r, r % 4000, 1.0);
    }
    return b.build();
  }
  if (which == "emptyrows") {
    CooBuilder b(300, 300);
    Prng rng(6);
    for (int e = 0; e < 900; ++e) {
      std::uint32_t r = static_cast<std::uint32_t>(rng.next_below(300));
      if (r % 3 == 1) continue;
      b.add(r, static_cast<std::uint32_t>(rng.next_below(300)),
            rng.next_double(-1.0, 1.0));
    }
    return b.build();
  }
  throw std::logic_error("unknown matrix");
}

class ParallelVariants
    : public testing::TestWithParam<std::tuple<std::string, unsigned>> {};

TEST_P(ParallelVariants, SegmentedScanMatchesReference) {
  const auto& [which, threads] = GetParam();
  const CsrMatrix m = matrix_by_name(which);
  const SegmentedScanSpmv ss(m, threads);
  const auto x = random_vector(m.cols(), 81);
  auto expected = random_vector(m.rows(), 82);
  auto actual = expected;
  spmv_reference(m, x, expected);
  ss.multiply(x, actual);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_NEAR(expected[i], actual[i], 1e-11) << "row " << i;
  }
}

TEST_P(ParallelVariants, ColumnPartitionMatchesReference) {
  const auto& [which, threads] = GetParam();
  const CsrMatrix m = matrix_by_name(which);
  TuningOptions opt = TuningOptions::full(threads);
  opt.tune_prefetch = false;
  const ColumnPartitionedSpmv cp = ColumnPartitionedSpmv::plan(m, opt);
  const auto x = random_vector(m.cols(), 83);
  auto expected = random_vector(m.rows(), 84);
  auto actual = expected;
  spmv_reference(m, x, expected);
  cp.multiply(x, actual);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_NEAR(expected[i], actual[i], 1e-11) << "row " << i;
  }
}

std::string variant_name(
    const testing::TestParamInfo<ParallelVariants::ParamType>& info) {
  return std::get<0>(info.param) + "_t" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    MatricesThreads, ParallelVariants,
    testing::Combine(testing::Values("banded", "uniform", "fem", "powerlaw",
                                     "fatrows", "emptyrows"),
                     testing::Values(1u, 2u, 3u, 4u, 8u)),
    variant_name);

TEST(SegmentedScan, NnzBalanceIsNearPerfect) {
  const CsrMatrix m = matrix_by_name("fatrows");
  const SegmentedScanSpmv ss(m, 4);
  EXPECT_LT(ss.nnz_imbalance(), 1.001);
  // Compare: row partitioning cannot split the fat rows.
  const auto rows = partition_rows_by_nnz(m, 4);
  EXPECT_GT(partition_imbalance(m, rows), 1.2);
}

TEST(SegmentedScan, RepeatedCallsAccumulate) {
  const CsrMatrix m = matrix_by_name("banded");
  const SegmentedScanSpmv ss(m, 3);
  const auto x = random_vector(m.cols(), 90);
  std::vector<double> once(m.rows(), 0.0), twice(m.rows(), 0.0);
  ss.multiply(x, once);
  ss.multiply(x, twice);
  ss.multiply(x, twice);
  for (std::size_t i = 0; i < once.size(); ++i) {
    EXPECT_NEAR(twice[i], 2.0 * once[i], 1e-11);
  }
}

TEST(SegmentedScan, Validation) {
  const CsrMatrix m = gen::dense(8);
  EXPECT_THROW(SegmentedScanSpmv(m, 0), std::invalid_argument);
  const SegmentedScanSpmv ss(m, 2);
  std::vector<double> x(7), y(8);
  EXPECT_THROW(ss.multiply(x, y), std::invalid_argument);
}

TEST(SegmentedScan, MoreThreadsThanNonzeros) {
  CooBuilder b(4, 4);
  b.add(1, 2, 3.0);
  const CsrMatrix m = b.build();
  const SegmentedScanSpmv ss(m, 16);
  std::vector<double> x = {1.0, 1.0, 2.0, 1.0};
  std::vector<double> y(4, 0.0);
  ss.multiply(x, y);
  EXPECT_DOUBLE_EQ(y[1], 6.0);
}

TEST(ColumnPartition, BoundariesAreNnzBalanced) {
  // Left half of the columns holds most nonzeros; boundaries must shift
  // left of the midpoint for balance.
  CooBuilder b(200, 1000);
  Prng rng(7);
  for (int e = 0; e < 4000; ++e) {
    b.add(static_cast<std::uint32_t>(rng.next_below(200)),
          static_cast<std::uint32_t>(rng.next_below(100)), 1.0);
  }
  for (int e = 0; e < 400; ++e) {
    b.add(static_cast<std::uint32_t>(rng.next_below(200)),
          100 + static_cast<std::uint32_t>(rng.next_below(900)), 1.0);
  }
  const CsrMatrix m = b.build();
  TuningOptions opt = TuningOptions::full(2);
  opt.tune_prefetch = false;
  const ColumnPartitionedSpmv cp = ColumnPartitionedSpmv::plan(m, opt);
  ASSERT_EQ(cp.boundaries().size(), 3u);
  EXPECT_LT(cp.boundaries()[1], 200u);
}

TEST(ColumnPartition, Validation) {
  const CsrMatrix m = gen::dense(8);
  TuningOptions zero;
  zero.threads = 0;
  EXPECT_THROW(ColumnPartitionedSpmv::plan(m, zero), std::invalid_argument);
  const ColumnPartitionedSpmv cp =
      ColumnPartitionedSpmv::plan(m, TuningOptions::naive());
  std::vector<double> x(8, 1.0);
  EXPECT_THROW(cp.multiply(x, std::span<double>(x)), std::invalid_argument);
}

TEST(ColumnPartition, MoreThreadsThanColumns) {
  const CsrMatrix m = gen::dense(4);
  TuningOptions opt = TuningOptions::full(16);
  opt.tune_prefetch = false;
  const ColumnPartitionedSpmv cp = ColumnPartitionedSpmv::plan(m, opt);
  const auto x = random_vector(4, 91);
  std::vector<double> expected(4, 0.0), actual(4, 0.0);
  spmv_reference(m, x, expected);
  cp.multiply(x, actual);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(expected[i], actual[i], 1e-12);
  }
}

}  // namespace
}  // namespace spmv
