#include "baseline/oski_like.h"

#include <algorithm>
#include <stdexcept>

#include "core/encode.h"
#include "core/kernels_block.h"
#include "gen/generators.h"
#include "util/prng.h"
#include "util/timer.h"

namespace spmv::baseline {

namespace {
constexpr std::array<unsigned, 3> kDims = {1, 2, 4};
}

RegisterProfile RegisterProfile::measure() {
  // Time each r×c kernel on a dense matrix in sparse format — the workload
  // OSKI's offline benchmark uses, because fill is exactly 1 there.
  const CsrMatrix dense = gen::dense(256);
  std::vector<double> x(dense.cols(), 1.0);
  std::vector<double> y(dense.rows(), 0.0);

  RegisterProfile p;
  double base_s = 1.0;
  for (std::size_t ri = 0; ri < kDims.size(); ++ri) {
    for (std::size_t ci = 0; ci < kDims.size(); ++ci) {
      const BlockExtent whole{0, dense.rows(), 0, dense.cols()};
      const EncodedBlock blk =
          encode_block(dense, whole, kDims[ri], kDims[ci], BlockFormat::kBcsr,
                       IndexWidth::k32);
      const TimingResult t = time_kernel(
          [&] { run_block(blk, x.data(), y.data(), 0); }, 0.01, 3);
      if (ri == 0 && ci == 0) base_s = t.best_s;
      p.speedup[ri][ci] = base_s / t.best_s;
    }
  }
  return p;
}

RegisterProfile RegisterProfile::typical() {
  // Representative superscalar profile (larger tiles amortize index loads
  // and expose SIMD, with diminishing returns in the column direction).
  RegisterProfile p;
  p.speedup = {{{1.00, 1.25, 1.40},
                {1.30, 1.55, 1.70},
                {1.45, 1.70, 1.80}}};
  return p;
}

OskiDecision oski_choose_blocking(const CsrMatrix& a,
                                  const RegisterProfile& profile,
                                  double sample_fraction, std::uint64_t seed) {
  if (sample_fraction <= 0.0 || sample_fraction > 1.0) {
    throw std::invalid_argument("oski_choose_blocking: bad sample fraction");
  }
  // Sample a subset of 4-row stripes and count tiles within them for all
  // candidate shapes; the ratio estimates the fill of the full matrix.
  Prng rng(seed);
  const std::uint32_t stripe = 4;
  const std::uint32_t stripes = (a.rows() + stripe - 1) / stripe;
  const auto sample_count = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(static_cast<double>(stripes) *
                                    sample_fraction));

  std::array<std::array<std::uint64_t, 3>, 3> tiles{};
  std::uint64_t sampled_nnz = 0;
  for (std::uint32_t s = 0; s < sample_count; ++s) {
    const auto pick = static_cast<std::uint32_t>(rng.next_below(stripes));
    const std::uint32_t r0 = pick * stripe;
    const std::uint32_t r1 = std::min(r0 + stripe, a.rows());
    const TileCounts tc = count_tiles(a, {r0, r1, 0, a.cols()});
    sampled_nnz += tc.nnz;
    for (std::size_t ri = 0; ri < kDims.size(); ++ri) {
      for (std::size_t ci = 0; ci < kDims.size(); ++ci) {
        tiles[ri][ci] += tc.counts[ri][ci];
      }
    }
  }

  OskiDecision best;
  best.predicted_speedup = 0.0;
  for (std::size_t ri = 0; ri < kDims.size(); ++ri) {
    for (std::size_t ci = 0; ci < kDims.size(); ++ci) {
      const double fill =
          sampled_nnz == 0
              ? 1.0
              : static_cast<double>(tiles[ri][ci] * kDims[ri] * kDims[ci]) /
                    static_cast<double>(sampled_nnz);
      const double predicted = profile.speedup[ri][ci] / fill;
      if (predicted > best.predicted_speedup) {
        best.br = kDims[ri];
        best.bc = kDims[ci];
        best.estimated_fill = fill;
        best.predicted_speedup = predicted;
      }
    }
  }
  return best;
}

OskiLikeMatrix OskiLikeMatrix::tune(const CsrMatrix& a,
                                    const RegisterProfile& profile,
                                    double sample_fraction) {
  const OskiDecision d = oski_choose_blocking(a, profile, sample_fraction);
  OskiLikeMatrix m = with_blocking(a, d.br, d.bc);
  m.decision_ = d;
  return m;
}

OskiLikeMatrix OskiLikeMatrix::with_blocking(const CsrMatrix& a, unsigned br,
                                             unsigned bc) {
  OskiLikeMatrix m;
  m.rows_ = a.rows();
  m.cols_ = a.cols();
  m.decision_.br = br;
  m.decision_.bc = bc;
  const BlockExtent whole{0, a.rows(), 0, a.cols()};
  m.block_ =
      encode_block(a, whole, br, bc, BlockFormat::kBcsr, IndexWidth::k32);
  return m;
}

OskiLikeMatrix::OskiLikeMatrix(OskiLikeMatrix&&) noexcept = default;
OskiLikeMatrix& OskiLikeMatrix::operator=(OskiLikeMatrix&&) noexcept = default;
OskiLikeMatrix::~OskiLikeMatrix() = default;

void OskiLikeMatrix::execute(const double* x, double* y,
                             engine::Scratch* /*scratch*/) const {
  run_block(block_, x, y, 0);
}

}  // namespace spmv::baseline
