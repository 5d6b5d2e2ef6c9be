// PETSc/MPI-style distributed SpMV baseline ("OSKI-PETSc", paper §2.1/§6.2).
//
// PETSc distributes SpMV by block rows with *equal rows per process*; each
// process owns the matching slice of x and y, and off-process source-vector
// entries are fetched by message passing before the local multiply.  The
// paper ran MPICH's ch_shmem device, where a "message" is literally a
// memory copy — which is what this emulation performs.  Two properties of
// that design explain its losses in the paper, and both are measurable
// here:
//   * communication (ghost copies) averages ~30% of SpMV time, up to 56%
//     for LP;
//   * the equal-rows distribution load-imbalances matrices like
//     FEM/Accelerator (40% of nonzeros on 1 of 4 ranks).
// The local per-rank multiply is OSKI-tuned (uniform BCSR), matching the
// paper's "OSKI-PETSc" configuration.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "baseline/oski_like.h"
#include "engine/spmv_plan.h"
#include "matrix/csr.h"

namespace spmv::baseline {

struct PetscLikeStats {
  double comm_seconds = 0.0;     ///< cumulative ghost-exchange time
  double compute_seconds = 0.0;  ///< cumulative local-multiply time
  double imbalance = 1.0;        ///< max rank nnz / ideal share
  /// x entries copied per multiply: the sum over ranks of the ghost
  /// columns each needs from outside its slice.  Counted, not timed, so
  /// it compares communication across matrices deterministically.
  std::uint64_t ghost_entries = 0;

  [[nodiscard]] double comm_fraction() const {
    const double total = comm_seconds + compute_seconds;
    return total == 0.0 ? 0.0 : comm_seconds / total;
  }
};

class PetscLikeSpmv final : public engine::SpmvPlan {
 public:
  /// Distribute `a` over `ranks` emulated processes (equal-rows partition)
  /// and OSKI-tune each local block.  The plan borrows `ctx`'s worker pool
  /// (nullptr: the global context) to run the ranks.
  static PetscLikeSpmv distribute(const CsrMatrix& a, unsigned ranks,
                                  const RegisterProfile& profile,
                                  engine::ExecutionContext* ctx = nullptr);

  PetscLikeSpmv(PetscLikeSpmv&&) noexcept;
  PetscLikeSpmv& operator=(PetscLikeSpmv&&) noexcept;
  ~PetscLikeSpmv() override;

  /// y ← y + A·x.  Ghost exchange then local multiplies; phases are timed
  /// separately into stats().  Ranks run on the shared engine pool (with
  /// ch_shmem on one die a "message" is a memcpy, so running ranks as pool
  /// workers matches the emulated machine); the per-rank pack buffers live
  /// in per-call scratch, so concurrent multiply() calls are safe.
  void multiply(std::span<const double> x, std::span<double> y) const;

  /// Snapshot of the cumulative phase timers across all calls so far.
  [[nodiscard]] PetscLikeStats stats() const;
  [[nodiscard]] unsigned ranks() const {
    return static_cast<unsigned>(local_.size());
  }
  [[nodiscard]] std::uint32_t rows() const override { return rows_; }
  [[nodiscard]] std::uint32_t cols() const override { return cols_; }

  /// Reset cumulative phase timers (imbalance and ghost_entries, fixed at
  /// distribute(), stay).
  void reset_stats();

  // engine::SpmvPlan
  [[nodiscard]] unsigned plan_threads() const override { return ranks(); }
  [[nodiscard]] engine::ExecutionContext& context() const override {
    return *ctx_;
  }
  [[nodiscard]] std::unique_ptr<engine::Scratch> make_scratch() const override;
  void execute(const double* x, double* y,
               engine::Scratch* scratch) const override;

 private:
  PetscLikeSpmv() = default;

  struct Rank {
    std::uint32_t row0 = 0, row1 = 0;
    /// Global column ids this rank needs from outside its own slice,
    /// sorted (the "ghost" entries it would receive as messages).
    std::vector<std::uint32_t> ghost_cols;
    /// Local matrix with columns renumbered: [own slice | ghosts].
    std::unique_ptr<OskiLikeMatrix> matrix;
    std::uint32_t own_col0 = 0, own_cols = 0;
  };

  /// Cumulative phase timers, shared by concurrent calls.
  struct StatsState;

  std::uint32_t rows_ = 0, cols_ = 0;
  std::vector<Rank> local_;
  engine::ExecutionContext* ctx_ = nullptr;
  std::unique_ptr<StatsState> stats_;
  mutable engine::ScratchCache scratch_cache_;
};

}  // namespace spmv::baseline
