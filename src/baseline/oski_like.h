// OSKI-style serial autotuned SpMV baseline (paper §2.1, [Vuduc et al.]).
//
// OSKI picks a register-block size by *search*: it estimates the fill ratio
// of each candidate r×c blocking by sampling, combines it with an offline
// machine profile of dense-in-BCSR performance per block shape, and encodes
// the whole matrix uniformly with the predicted best shape.  That is the
// key contrast with this paper's tuner: OSKI is single-threaded, uses one
// format for the whole matrix, full 32-bit indices, and no explicit
// prefetch — which is exactly why the paper's multicore code beats it.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "core/blocked.h"
#include "engine/spmv_plan.h"
#include "matrix/csr.h"

namespace spmv::baseline {

/// Offline "machine profile": measured/estimated dense-matrix Mflop rate of
/// each r×c BCSR kernel relative to 1×1, used to score candidate blockings.
struct RegisterProfile {
  /// speedup[ri][ci] for dims {1,2,4} — how much faster the r×c kernel runs
  /// on a dense-in-sparse workload than 1×1 CSR.
  std::array<std::array<double, 3>, 3> speedup;

  /// Benchmark the profile on this host with a small dense block workload.
  static RegisterProfile measure();

  /// A typical superscalar profile (used in tests for determinism).
  static RegisterProfile typical();
};

struct OskiDecision {
  unsigned br = 1, bc = 1;
  double estimated_fill = 1.0;
  double predicted_speedup = 1.0;
};

/// Estimate fill ratios by row sampling (OSKI samples ~1% of block rows),
/// then pick argmax of predicted_speedup = profile / fill.
OskiDecision oski_choose_blocking(const CsrMatrix& a,
                                  const RegisterProfile& profile,
                                  double sample_fraction = 0.02,
                                  std::uint64_t seed = 1234);

/// A serially tuned matrix: uniform r×c BCSR with 32-bit indices.
/// Implements the engine plan interface (serial, no per-call state), so
/// the baseline runs through the same multiply and multiply_batch front
/// doors as the tuned code it is compared against; a batch is a loop of
/// single multiplies, as OSKI-era serial code would run it.
class OskiLikeMatrix final : public engine::SpmvPlan {
 public:
  static OskiLikeMatrix tune(const CsrMatrix& a,
                             const RegisterProfile& profile,
                             double sample_fraction = 0.02);

  /// Tune with an explicit blocking (for tests).
  static OskiLikeMatrix with_blocking(const CsrMatrix& a, unsigned br,
                                      unsigned bc);

  OskiLikeMatrix(OskiLikeMatrix&&) noexcept;
  OskiLikeMatrix& operator=(OskiLikeMatrix&&) noexcept;
  ~OskiLikeMatrix() override;

  [[nodiscard]] const OskiDecision& decision() const { return decision_; }
  [[nodiscard]] std::uint32_t rows() const override { return rows_; }
  [[nodiscard]] std::uint32_t cols() const override { return cols_; }

  // engine::SpmvPlan
  [[nodiscard]] unsigned plan_threads() const override { return 1; }
  void execute(const double* x, double* y,
               engine::Scratch* scratch) const override;

 private:
  OskiLikeMatrix() = default;

  std::uint32_t rows_ = 0, cols_ = 0;
  OskiDecision decision_;
  EncodedBlock block_;  ///< whole matrix as one uniform block
};

}  // namespace spmv::baseline
