// Tests for register-block encoding: tile counting, 16-bit feasibility,
// and the central property that every encoded block computes exactly what
// the CSR reference computes on its extent.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "core/encode.h"
#include "core/kernels_block.h"
#include "gen/generators.h"
#include "matrix/coo.h"
#include "support/test_helpers.h"
#include "util/prng.h"

namespace spmv {
namespace {

TEST(CountTiles, DenseArithmetic) {
  const CsrMatrix m = gen::dense(16);
  const TileCounts tc = count_tiles(m, {0, 16, 0, 16});
  EXPECT_EQ(tc.nnz, 256u);
  EXPECT_EQ(tc.at(1, 1), 256u);
  EXPECT_EQ(tc.at(2, 2), 64u);
  EXPECT_EQ(tc.at(4, 4), 16u);
  EXPECT_EQ(tc.at(4, 1), 64u);
  EXPECT_EQ(tc.at(2, 4), 32u);
}

TEST(CountTiles, SubExtentOnly) {
  const CsrMatrix m = gen::dense(16);
  const TileCounts tc = count_tiles(m, {4, 8, 8, 16});
  EXPECT_EQ(tc.nnz, 32u);
  EXPECT_EQ(tc.at(4, 4), 2u);
  EXPECT_EQ(tc.at(1, 1), 32u);
}

TEST(CountTiles, ExtentValidation) {
  const CsrMatrix m = gen::dense(8);
  EXPECT_THROW(count_tiles(m, {0, 9, 0, 8}), std::out_of_range);
  EXPECT_THROW(count_tiles(m, {0, 8, 3, 2}), std::out_of_range);
}

TEST(IndexWidth16, ColumnSpanRule) {
  const CsrMatrix wide = gen::uniform_random(16, 100000, 3.0, 1);
  EXPECT_FALSE(
      index_width_fits16(wide, {0, 16, 0, 100000}, 1, 1, BlockFormat::kBcsr));
  EXPECT_TRUE(
      index_width_fits16(wide, {0, 16, 0, 65536}, 1, 1, BlockFormat::kBcsr));
  EXPECT_TRUE(index_width_fits16(wide, {0, 16, 50000, 100000}, 1, 1,
                                 BlockFormat::kBcsr));
}

TEST(IndexWidth16, BcooAlsoNeedsRowFit) {
  const CsrMatrix tall = gen::uniform_random(100000, 16, 3.0, 2);
  EXPECT_TRUE(index_width_fits16(tall, {0, 100000, 0, 16}, 1, 1,
                                 BlockFormat::kBcsr));
  EXPECT_FALSE(index_width_fits16(tall, {0, 100000, 0, 16}, 1, 1,
                                  BlockFormat::kBcoo));
}

TEST(EncodeBlock, DenseTileCountsAndFill) {
  const CsrMatrix m = gen::dense(16);
  const EncodedBlock blk =
      encode_block(m, {0, 16, 0, 16}, 4, 4, BlockFormat::kBcsr,
                   IndexWidth::k32);
  EXPECT_EQ(blk.tiles, 16u);
  EXPECT_EQ(blk.stored_nnz, 256u);
  EXPECT_EQ(blk.true_nnz, 256u);
  EXPECT_EQ(blk.tile_rows(), 4u);
}

TEST(EncodeBlock, RejectsInfeasible16Bit) {
  const CsrMatrix wide = gen::uniform_random(8, 70000, 2.0, 3);
  EXPECT_THROW(encode_block(wide, {0, 8, 0, 70000}, 1, 1, BlockFormat::kBcsr,
                            IndexWidth::k16),
               std::invalid_argument);
}

TEST(EncodeBlock, FootprintMatchesFormula) {
  const CsrMatrix m = gen::fem_like(64, 3, 6.0, 16, 4);
  const BlockExtent e{0, m.rows(), 0, m.cols()};
  for (const auto fmt : {BlockFormat::kBcsr, BlockFormat::kBcoo}) {
    const EncodedBlock blk = encode_block(m, e, 2, 2, fmt, IndexWidth::k16);
    EXPECT_EQ(blk.footprint_bytes(),
              encoding_footprint(blk.tiles, 2, 2, m.rows(), fmt,
                                 IndexWidth::k16));
  }
}

// The core property: for any matrix structure, any extent, any tile shape,
// any format and index width, the encoded block must produce exactly the
// reference result on its extent.
class EncodeProperty
    : public testing::TestWithParam<
          std::tuple<std::string, unsigned, unsigned, BlockFormat,
                     IndexWidth>> {};

CsrMatrix property_matrix(const std::string& which) {
  if (which == "banded") return gen::banded(97, 3, 0.5, 10);
  if (which == "uniform") return gen::uniform_random(150, 130, 6.0, 11);
  if (which == "fem") return gen::fem_like(40, 3, 7.0, 12, 12);
  if (which == "ragged") {
    // Dimensions deliberately not multiples of 4 and with empty rows.
    CooBuilder b(61, 53);
    Prng rng(13);
    for (int e = 0; e < 300; ++e) {
      const auto r = static_cast<std::uint32_t>(rng.next_below(61));
      if (r % 7 == 3) continue;  // keep some rows empty
      b.add(r, static_cast<std::uint32_t>(rng.next_below(53)),
            rng.next_double(-1.0, 1.0));
    }
    return b.build();
  }
  if (which == "lastcol") {
    // Forces edge tiles at the very last column (shift path).
    CooBuilder b(10, 10);
    for (std::uint32_t r = 0; r < 10; ++r) b.add(r, 9, 1.0 + r);
    b.add(3, 0, 2.0);
    return b.build();
  }
  throw std::logic_error("unknown matrix");
}

TEST_P(EncodeProperty, BlockKernelMatchesReference) {
  const auto& [which, br, bc, fmt, idx] = GetParam();
  const CsrMatrix m = property_matrix(which);

  // Split the matrix into a 2x2 grid of extents to exercise off-origin
  // blocks and ragged boundaries.
  const std::uint32_t rmid = m.rows() / 2;
  const std::uint32_t cmid = m.cols() / 2;
  const std::vector<BlockExtent> extents = {
      {0, rmid, 0, cmid},
      {0, rmid, cmid, m.cols()},
      {rmid, m.rows(), 0, cmid},
      {rmid, m.rows(), cmid, m.cols()},
  };

  const auto x = random_vector(m.cols(), 100);
  std::vector<double> expected(m.rows(), 0.25);
  std::vector<double> actual = expected;
  spmv_reference(m, x, expected);

  for (const BlockExtent& e : extents) {
    if (idx == IndexWidth::k16 && !index_width_fits16(m, e, br, bc, fmt)) {
      GTEST_SKIP() << "16-bit infeasible for this extent";
    }
    const EncodedBlock blk = encode_block(m, e, br, bc, fmt, idx);
    run_block(blk, x.data(), actual.data(), 0);
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(expected[i], actual[i], 1e-12) << "row " << i;
  }
}

std::string encode_property_name(
    const testing::TestParamInfo<EncodeProperty::ParamType>& info) {
  std::string name = std::get<0>(info.param);
  name += "_r" + std::to_string(std::get<1>(info.param)) + "c" +
          std::to_string(std::get<2>(info.param));
  name += std::get<3>(info.param) == BlockFormat::kBcsr ? "_bcsr" : "_bcoo";
  name += std::get<4>(info.param) == IndexWidth::k16 ? "_i16" : "_i32";
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EncodeProperty,
    testing::Combine(testing::Values("banded", "uniform", "fem", "ragged",
                                     "lastcol"),
                     testing::Values(1u, 2u, 4u), testing::Values(1u, 2u, 4u),
                     testing::Values(BlockFormat::kBcsr, BlockFormat::kBcoo),
                     testing::Values(IndexWidth::k16, IndexWidth::k32)),
    encode_property_name);

TEST(EncodeBlock, PrefetchDistanceDoesNotChangeResult) {
  const CsrMatrix m = gen::uniform_random(80, 80, 5.0, 21);
  const BlockExtent e{0, 80, 0, 80};
  const EncodedBlock blk =
      encode_block(m, e, 2, 2, BlockFormat::kBcsr, IndexWidth::k16);
  const auto x = random_vector(80, 22);
  std::vector<double> y0(80, 0.0), y64(80, 0.0);
  run_block(blk, x.data(), y0.data(), 0);
  run_block(blk, x.data(), y64.data(), 64);
  for (std::size_t i = 0; i < y0.size(); ++i) {
    EXPECT_DOUBLE_EQ(y0[i], y64[i]);
  }
}

TEST(EncodeBlock, EmptyExtentYieldsEmptyBlock) {
  const CsrMatrix m = gen::dense(8);
  const EncodedBlock blk =
      encode_block(m, {4, 4, 0, 8}, 2, 2, BlockFormat::kBcsr, IndexWidth::k32);
  EXPECT_EQ(blk.tiles, 0u);
  std::vector<double> x(8, 1.0), y(8, 3.0);
  run_block(blk, x.data(), y.data(), 0);
  for (double v : y) EXPECT_DOUBLE_EQ(v, 3.0);
}

TEST(BlockKernelLookup, RejectsUnsupportedShapes) {
  EXPECT_THROW(block_kernel(BlockFormat::kBcsr, IndexWidth::k32, 3, 1),
               std::out_of_range);
  EXPECT_THROW(block_kernel(BlockFormat::kBcsr, IndexWidth::k32, 1, 8),
               std::out_of_range);
}

}  // namespace
}  // namespace spmv
