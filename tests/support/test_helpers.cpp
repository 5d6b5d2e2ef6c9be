#include "support/test_helpers.h"

#include <chrono>
#include <random>
#include <thread>

#include "util/prng.h"

namespace spmv {

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  std::vector<double> v(n);
  Prng rng(seed);
  for (double& x : v) x = rng.next_double(-1.0, 1.0);
  return v;
}

}  // namespace spmv

namespace spmv::serve {

TuningOptions serve_options(engine::ExecutionContext* ctx, unsigned threads) {
  TuningOptions opt = TuningOptions::full(threads);
  opt.tune_prefetch = false;
  opt.context = ctx;
  return opt;
}

std::vector<double> direct_result(const MatrixRegistry::Entry& entry,
                                  std::span<const double> x, double fill) {
  std::vector<double> y(entry.plan.rows(), fill);
  entry.plan.multiply(x, y);
  return y;
}

bool run_inline_once(Scheduler& sched, const MatrixRegistry::EntryPtr& entry,
                     std::span<const double> x, std::span<double> scratch) {
  const std::uint64_t before = sched.stats().data_plane.inline_runs;
  SubmitOptions allowed;
  allowed.allow_inline = true;
  for (int attempt = 0; attempt < 200; ++attempt) {
    sched.submit(entry, x, scratch, allowed).future.get();
    if (sched.stats().data_plane.inline_runs != before) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

}  // namespace spmv::serve

namespace spmv::net {

TestMatrix tridiag(std::uint32_t n) {
  TestMatrix m;
  m.n = n;
  m.row_ptr.push_back(0);
  for (std::uint32_t r = 0; r < n; ++r) {
    if (r > 0) {
      m.col_idx.push_back(r - 1);
      m.values.push_back(-1.0);
    }
    m.col_idx.push_back(r);
    m.values.push_back(2.0 + 0.001 * r);
    if (r + 1 < n) {
      m.col_idx.push_back(r + 1);
      m.values.push_back(-1.0);
    }
    m.row_ptr.push_back(m.col_idx.size());
  }
  return m;
}

std::vector<double> reference(const TestMatrix& m,
                              const std::vector<double>& x) {
  std::vector<double> y(m.n, 0.0);
  for (std::uint32_t r = 0; r < m.n; ++r) {
    double acc = 0.0;
    for (std::uint64_t k = m.row_ptr[r]; k < m.row_ptr[r + 1]; ++k) {
      acc += m.values[k] * x[m.col_idx[k]];
    }
    y[r] = acc;
  }
  return y;
}

std::vector<double> random_x(std::uint32_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  std::vector<double> x(n);
  for (auto& v : x) v = d(rng);
  return x;
}

}  // namespace spmv::net
