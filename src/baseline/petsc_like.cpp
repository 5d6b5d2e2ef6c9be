#include "baseline/petsc_like.h"

#include <algorithm>
#include <stdexcept>

#include "core/partition.h"
#include "engine/execution_context.h"
#include "util/thread_annotations.h"
#include "matrix/coo.h"
#include "util/timer.h"

namespace spmv::baseline {

struct PetscLikeSpmv::StatsState {
  Mutex mutex;
  PetscLikeStats totals SPMV_GUARDED_BY(mutex);
};

namespace {

/// Per-call pack buffers (each rank's contiguous local x = own slice
/// followed by ghost values) and per-rank phase timers — all owned by the
/// call so multiply() stays allocation-free in steady state.
struct PetscScratch final : engine::Scratch {
  std::vector<std::vector<double>> local_x;
  std::vector<double> comm_s, compute_s;
};

}  // namespace

PetscLikeSpmv PetscLikeSpmv::distribute(const CsrMatrix& a, unsigned ranks,
                                        const RegisterProfile& profile,
                                        engine::ExecutionContext* ctx) {
  if (ranks == 0) throw std::invalid_argument("distribute: zero ranks");
  PetscLikeSpmv s;
  s.rows_ = a.rows();
  s.cols_ = a.cols();
  s.ctx_ = &engine::context_or_global(ctx);
  s.stats_ = std::make_unique<StatsState>();

  // PETSc's default: equal rows per process.  The column space is likewise
  // sliced so that rank p owns x[col range p] (square matrices: same split).
  const std::vector<RowRange> row_parts = partition_rows_equal(a.rows(), ranks);
  const std::vector<RowRange> col_parts = partition_rows_equal(a.cols(), ranks);
  {
    // `s` is still private to this factory, but totals is lock-guarded and
    // distribute() is not a constructor, so honor the contract.
    MutexLock lock(s.stats_->mutex);
    s.stats_->totals.imbalance = partition_imbalance(a, row_parts);
  }

  const auto row_ptr = a.row_ptr();
  const auto col_idx = a.col_idx();
  const auto values = a.values();

  s.local_.resize(ranks);
  for (unsigned p = 0; p < ranks; ++p) {
    Rank& rank = s.local_[p];
    rank.row0 = row_parts[p].begin;
    rank.row1 = row_parts[p].end;
    rank.own_col0 = col_parts[p].begin;
    rank.own_cols = col_parts[p].size();

    // Identify ghost columns: referenced columns outside the owned slice.
    std::vector<std::uint32_t> ghosts;
    for (std::uint32_t r = rank.row0; r < rank.row1; ++r) {
      for (std::uint64_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
        const std::uint32_t c = col_idx[k];
        if (c < rank.own_col0 || c >= rank.own_col0 + rank.own_cols) {
          ghosts.push_back(c);
        }
      }
    }
    std::sort(ghosts.begin(), ghosts.end());
    ghosts.erase(std::unique(ghosts.begin(), ghosts.end()), ghosts.end());
    rank.ghost_cols = std::move(ghosts);
    {
      MutexLock lock(s.stats_->mutex);
      s.stats_->totals.ghost_entries += rank.ghost_cols.size();
    }

    // Build the local matrix with renumbered columns: own columns keep
    // their slice offset, ghosts are appended after them.
    const std::uint32_t local_cols =
        rank.own_cols + static_cast<std::uint32_t>(rank.ghost_cols.size());
    const std::uint32_t local_rows = rank.row1 - rank.row0;
    if (local_rows == 0) continue;
    CooBuilder builder(std::max<std::uint32_t>(local_rows, 1),
                       std::max<std::uint32_t>(local_cols, 1));
    for (std::uint32_t r = rank.row0; r < rank.row1; ++r) {
      for (std::uint64_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
        const std::uint32_t c = col_idx[k];
        std::uint32_t local_c;
        if (c >= rank.own_col0 && c < rank.own_col0 + rank.own_cols) {
          local_c = c - rank.own_col0;
        } else {
          const auto it = std::lower_bound(rank.ghost_cols.begin(),
                                           rank.ghost_cols.end(), c);
          local_c = rank.own_cols +
                    static_cast<std::uint32_t>(it - rank.ghost_cols.begin());
        }
        builder.add(r - rank.row0, local_c, values[k]);
      }
    }
    const CsrMatrix local = builder.build();
    rank.matrix = std::make_unique<OskiLikeMatrix>(
        OskiLikeMatrix::tune(local, profile));
  }
  return s;
}

PetscLikeSpmv::PetscLikeSpmv(PetscLikeSpmv&&) noexcept = default;
PetscLikeSpmv& PetscLikeSpmv::operator=(PetscLikeSpmv&&) noexcept = default;
PetscLikeSpmv::~PetscLikeSpmv() = default;

PetscLikeStats PetscLikeSpmv::stats() const {
  MutexLock lock(stats_->mutex);
  return stats_->totals;
}

std::unique_ptr<engine::Scratch> PetscLikeSpmv::make_scratch() const {
  auto scratch = std::make_unique<PetscScratch>();
  scratch->local_x.resize(local_.size());
  for (std::size_t p = 0; p < local_.size(); ++p) {
    const Rank& rank = local_[p];
    const std::size_t local_cols = rank.own_cols + rank.ghost_cols.size();
    scratch->local_x[p].assign(std::max<std::size_t>(local_cols, 1), 0.0);
  }
  scratch->comm_s.assign(local_.size(), 0.0);
  scratch->compute_s.assign(local_.size(), 0.0);
  return scratch;
}

void PetscLikeSpmv::execute(const double* x, double* y,
                            engine::Scratch* scratch) const {
  auto& s = *static_cast<PetscScratch*>(scratch);
  const unsigned ranks = this->ranks();

  // Each rank times its own work, and the call sums per-rank seconds after
  // the barrier — the paper's per-process accounting ("communication
  // averages ~30% of SpMV time"), and immune to dispatch/barrier overhead
  // polluting the phase split.
  double* comm_s = s.comm_s.data();
  double* compute_s = s.compute_s.data();

  // One dispatch per multiply: rank p's compute reads only the local_x[p]
  // its own pack phase wrote (ghosts come straight from the caller's x,
  // never from another rank's buffers), so no inter-rank barrier is needed
  // between the phases — only the per-rank timers keep them distinct.
  ctx_->parallel_for(ranks, [&](unsigned p) {
    const Rank& rank = local_[p];
    if (!rank.matrix) return;

    // Phase 1: ghost exchange.  With MPICH ch_shmem a message is a
    // memcpy through a shared-memory segment: one copy out of the
    // owner's slice into the requester's ghost buffer (plus the local
    // own-slice copy into the contiguous local vector, which PETSc's
    // VecScatter also performs).
    Timer comm_timer;
    std::vector<double>& local_x = s.local_x[p];
    std::copy_n(x + rank.own_col0, rank.own_cols, local_x.data());
    double* ghost_dst = local_x.data() + rank.own_cols;
    for (std::size_t g = 0; g < rank.ghost_cols.size(); ++g) {
      ghost_dst[g] = x[rank.ghost_cols[g]];
    }
    comm_s[p] = comm_timer.seconds();

    // Phase 2: local OSKI-tuned multiply into this rank's row slice.
    Timer compute_timer;
    rank.matrix->execute(local_x.data(), y + rank.row0, nullptr);
    compute_s[p] = compute_timer.seconds();
  });

  double comm_seconds = 0.0, compute_seconds = 0.0;
  for (unsigned p = 0; p < ranks; ++p) {
    comm_seconds += comm_s[p];
    compute_seconds += compute_s[p];
  }

  MutexLock lock(stats_->mutex);
  stats_->totals.comm_seconds += comm_seconds;
  stats_->totals.compute_seconds += compute_seconds;
}

void PetscLikeSpmv::reset_stats() {
  MutexLock lock(stats_->mutex);
  const PetscLikeStats fixed = stats_->totals;
  stats_->totals = PetscLikeStats{};
  stats_->totals.imbalance = fixed.imbalance;
  stats_->totals.ghost_entries = fixed.ghost_entries;
}

}  // namespace spmv::baseline
