// Kernel backends and dispatch cost — two perf trajectory points.
//
// Part 1: scalar vs SIMD register-tile kernels (GFLOP/s, serial plan so
// the kernel body dominates) across register-blocking-friendly suite
// matrices of increasing size, plus how many cache blocks actually got a
// SIMD kernel.
//
// Part 2: serial vs parallel multiply on a small matrix, where the
// per-multiply dispatch overhead is a visible fraction of the µs-scale
// SpMV body.  The serial column is the kernel-only floor: the gap between
// it and serial/threads is dispatch + barrier cost on this host.
//
//   --matrices=a,b,c   comma-separated suite names for part 1
//   --threads=<n>      worker count for part 2 (default min(4, CPUs), ≥2)
#include "bench_common.h"

#include <sstream>
#include <vector>

#include "core/kernels_simd.h"
#include "engine/execution_context.h"
#include "gen/generators.h"

int main(int argc, char** argv) {
  using namespace spmv;
  const auto cfg = bench::BenchConfig::from_cli(argc, argv);
  const Cli cli(argc, argv);
  bench::print_host_banner();
  bench::SuiteCache suite(cfg.scale);

  const KernelBackend simd = resolve_kernel_backend(KernelBackend::kAuto);
  std::cout << "# simd backend: " << to_string(simd) << "\n";

  // --- Part 1: kernel backends ---
  std::vector<std::string> names;
  {
    // Defaults are the suite matrices whose tuner decision is genuinely
    // register-blocked (tile area > 1) at bench scales — the shapes the
    // SIMD backend exists for.  Pass 1×1-dominated names (FEM/Cantilever,
    // QCD, …) to see the narrower 1×1 kernel margin too.
    std::stringstream ss(
        cli.get("matrices", "Dense,Protein,Wind Tunnel,FEM/Ship"));
    std::string item;
    while (std::getline(ss, item, ',')) names.push_back(item);
  }

  Table backends({"matrix", "nnz", "scalar GF/s",
                  std::string(to_string(simd)) + " GF/s", "speedup",
                  "simd blocks"});
  for (const std::string& name : names) {
    const CsrMatrix& m = suite.get(name);
    TuningOptions opt = TuningOptions::full(1);
    opt.tune_prefetch = false;
    opt.backend = KernelBackend::kScalar;
    const double gf_scalar =
        bench::measure_tuned_gflops(m, opt, cfg.measure_seconds);
    opt.backend = KernelBackend::kAuto;
    const double gf_simd =
        bench::measure_tuned_gflops(m, opt, cfg.measure_seconds);
    const TuningReport r = TunedMatrix::plan(m, opt).report();
    backends.add_row(
        {name, std::to_string(m.nnz()), Table::fmt(gf_scalar, 3),
         Table::fmt(gf_simd, 3), Table::fmt(gf_simd / gf_scalar, 3),
         std::to_string(r.blocks_simd) + "/" +
             std::to_string(r.cache_blocks)});
  }
  cfg.emit(backends, "Kernel backends");

  // --- Part 2: dispatch barrier ---
  // Deliberately small and scale-independent: the multiply body is a few
  // µs, so fixed dispatch cost shows directly in the per-multiply time.
  const CsrMatrix small = gen::banded(2000, 4, 0.6, 17);
  const unsigned threads = static_cast<unsigned>(cli.get_int(
      "threads",
      static_cast<int>(std::max(2u, std::min(4u, host_info().logical_cpus)))));

  TuningOptions sopt = TuningOptions::full(1);
  sopt.tune_prefetch = false;
  const TunedMatrix serial_plan = TunedMatrix::plan(small, sopt);
  const auto x = bench::random_vector(small.cols(), 7);
  std::vector<double> y(small.rows(), 0.0);
  const TimingResult serial = time_kernel(
      [&] { serial_plan.multiply(x, y); }, cfg.measure_seconds, 3);

  engine::ExecutionContext ctx({.pin_threads = false});
  TuningOptions popt = TuningOptions::full(threads);
  popt.tune_prefetch = false;
  popt.context = &ctx;
  const TunedMatrix parallel_plan = TunedMatrix::plan(small, popt);
  // Warm the pool so the measurement sees steady-state dispatch.
  parallel_plan.multiply(x, y);
  const TimingResult parallel = time_kernel(
      [&] { parallel_plan.multiply(x, y); }, cfg.measure_seconds, 3);

  const double us_serial = serial.best_s * 1e6;
  const double us_parallel = parallel.best_s * 1e6;
  Table dispatch({"matrix", "threads", "serial µs", "parallel µs", "speedup"});
  dispatch.add_row({"banded 2000", std::to_string(threads),
                    Table::fmt(us_serial, 2), Table::fmt(us_parallel, 2),
                    Table::fmt(us_serial / us_parallel, 3)});
  cfg.emit(dispatch, "Dispatch barrier");
  return 0;
}
