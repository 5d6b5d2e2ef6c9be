// Engine batch amortization: fused SpMM vs looped.
//
// A server answering many simultaneous SpMV requests over one planned
// matrix pays, per multiply(), a pool dispatch + barrier AND a full sweep
// of the matrix stream.  The engine amortizes both across a batch:
//
//   looped    one multiply() per right-hand side — a dispatch and a
//             matrix stream each;
//   fused     multiply_batch(): from the planner's crossover width up
//             (TuningReport::fused_batch_min_width, printed first) the
//             operands are packed into k-wide panels and each worker
//             streams its blocks ONCE per chunk applying every nonzero to
//             all k right-hand sides (dispatch AND matrix stream
//             amortized; pack cost included); narrower batches run as one
//             dispatch that sweeps the blocks once per right-hand side.
//
// Both columns run the same plan.  The fused/looped column is the
// end-to-end amortization ratio the paper's bandwidth model predicts
// grows toward k for streaming-bound matrices.
//
//   --matrix=<suite name>  (default FEM/Harbor)
//   --threads=<n>          (default: all logical CPUs)
// The batch-size ladder is fixed at {1, 2, 4, 8, 16, 32}.
#include "bench_common.h"

#include <vector>

int main(int argc, char** argv) {
  using namespace spmv;
  const auto cfg = bench::BenchConfig::from_cli(argc, argv);
  const Cli cli(argc, argv);
  bench::print_host_banner();
  bench::SuiteCache suite(cfg.scale);

  const std::string name = cli.get("matrix", "FEM/Harbor");
  const CsrMatrix& m = suite.get(name);
  const unsigned threads = static_cast<unsigned>(
      cli.get_int("threads", host_info().logical_cpus));

  TuningOptions opt = TuningOptions::full(threads);
  opt.tune_prefetch = false;
  const TunedMatrix tuned = TunedMatrix::plan(m, opt);

  constexpr std::size_t kMaxBatch = 32;
  std::vector<std::vector<double>> xs_store, ys_store;
  for (std::size_t i = 0; i < kMaxBatch; ++i) {
    xs_store.push_back(bench::random_vector(m.cols(), 100 + i));
    ys_store.emplace_back(m.rows(), 0.0);
  }
  std::vector<const double*> xs;
  std::vector<double*> ys;
  for (std::size_t i = 0; i < kMaxBatch; ++i) {
    xs.push_back(xs_store[i].data());
    ys.push_back(ys_store[i].data());
  }

  Table t({"batch", "looped GF/s", "fused GF/s", "fused/looped"});
  for (const std::size_t batch : {1u, 2u, 4u, 8u, 16u, 32u}) {
    const auto xs_b = std::span<const double* const>(xs).first(batch);
    const auto ys_b = std::span<double* const>(ys).first(batch);

    const TimingResult t_looped = time_kernel(
        [&] {
          for (std::size_t i = 0; i < batch; ++i) {
            tuned.multiply(std::span<const double>(xs_b[i], m.cols()),
                           std::span<double>(ys_b[i], m.rows()));
          }
        },
        cfg.measure_seconds, 3);
    const TimingResult t_fused = time_kernel(
        [&] { tuned.multiply_batch(xs_b, ys_b); }, cfg.measure_seconds, 3);

    const double nnz_swept =
        static_cast<double>(m.nnz()) * static_cast<double>(batch);
    const auto gf = [&](const TimingResult& r) {
      return bench::gflops(static_cast<std::uint64_t>(nnz_swept), r.best_s);
    };
    t.add_row({std::to_string(batch), Table::fmt(gf(t_looped), 3),
               Table::fmt(gf(t_fused), 3),
               Table::fmt(t_looped.best_s / t_fused.best_s, 3)});
  }
  if (!cfg.csv) {
    std::cout << "planner crossover: fused_batch_min_width = "
              << tuned.report().fused_batch_min_width << " (0 = never)\n";
  }
  cfg.emit(t, "Engine batch amortization (" + name + ", " +
                  std::to_string(threads) + " threads)");
  return 0;
}
