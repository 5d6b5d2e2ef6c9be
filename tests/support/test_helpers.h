// Helpers the test files share: seeded operands, the serving tests' plan
// options and unscheduled reference, and the small tridiagonal CSR (with
// its operands) that the network tests upload as raw arrays.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/options.h"
#include "serve/registry.h"
#include "serve/scheduler.h"

namespace spmv {

/// n values drawn uniformly from [-1, 1) by a Prng seeded with `seed`.
std::vector<double> random_vector(std::size_t n, std::uint64_t seed);

}  // namespace spmv

namespace spmv::serve {

/// TuningOptions::full(threads) on `ctx`, without plan-time prefetch
/// tuning (so planning is quick and deterministic).
TuningOptions serve_options(engine::ExecutionContext* ctx, unsigned threads);

/// What a direct (unscheduled) multiply on `entry` produces from y0 = fill.
std::vector<double> direct_result(const MatrixRegistry::Entry& entry,
                                  std::span<const double> x, double fill);

/// Submit inline-allowed requests of `x` (accumulating into `scratch`)
/// until one runs inline; false when none did in 200 tries.  Right after
/// a dispatched request finishes, the dispatcher may hold the executor
/// token a moment longer before it parks.  Once a run went inline the
/// dispatcher has parked, and only a queued request wakes it again.
bool run_inline_once(Scheduler& sched, const MatrixRegistry::EntryPtr& entry,
                     std::span<const double> x, std::span<double> scratch);

}  // namespace spmv::serve

namespace spmv::net {

/// Small deterministic CSR test matrix: tridiagonal n x n with -1 off the
/// diagonal and 2 + 0.001·r on it.
struct TestMatrix {
  std::uint32_t n = 0;
  std::vector<std::uint64_t> row_ptr;
  std::vector<std::uint32_t> col_idx;
  std::vector<double> values;
};

TestMatrix tridiag(std::uint32_t n);

/// Reference y = A·x straight off the CSR arrays.
std::vector<double> reference(const TestMatrix& m,
                              const std::vector<double>& x);

/// n values drawn uniformly from [-1, 1) by a std::mt19937 seeded with
/// `seed`.
std::vector<double> random_x(std::uint32_t n, std::uint32_t seed);

}  // namespace spmv::net
