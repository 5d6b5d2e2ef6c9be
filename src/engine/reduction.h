// Shared scratch + reduction for scatter-style plans.
//
// Column partitioning and symmetric SpMV both parallelize a scatter by
// giving every worker a private destination vector and folding the
// private vectors into the caller's y with a chunked parallel reduction
// (worker t owns row chunk t of every private vector, so writes stay
// disjoint).  The scratch shape and the reduction are identical, so both
// live here once.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/spmv_plan.h"

namespace spmv::engine {

class ExecutionContext;

/// Per-call private destination vectors, one per worker.
struct PrivateYScratch final : Scratch {
  PrivateYScratch(unsigned threads, std::uint32_t rows)
      : private_y(threads, std::vector<double>(rows, 0.0)) {}
  std::vector<std::vector<double>> private_y;
};

/// y[r] += sum over workers of s.private_y[worker][r], as a chunked
/// parallel reduction on `ctx`: worker t folds row chunk t of every
/// private vector.
void reduce_private_y(ExecutionContext& ctx, unsigned threads,
                      std::uint32_t rows, const PrivateYScratch& s,
                      double* y);

}  // namespace spmv::engine
