// Serving quickstart: registry + scheduler end to end.
//
//   ./build/serve_demo [--clients=4] [--requests=200]
//
// Registers two suite matrices, serves a burst of concurrent clients
// through the coalescing scheduler, hot-swaps one matrix mid-traffic, and
// prints the ServeStats snapshot — request counts, achieved batch width, and
// queue/dispatch latency percentiles per matrix.
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "gen/suite.h"
#include "serve/registry.h"
#include "serve/scheduler.h"
#include "serve/serve_stats.h"
#include "util/cli.h"
#include "util/cpu.h"
#include "util/prng.h"

using namespace spmv;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const auto clients = static_cast<unsigned>(cli.get_int("clients", 4));
  const auto requests = static_cast<unsigned>(cli.get_int("requests", 200));

  const unsigned threads =
      std::max(1u, std::min(4u, host_info().logical_cpus));
  TuningOptions opt = TuningOptions::full(threads);
  opt.tune_prefetch = false;

  // Register both matrices: put() tunes, then publishes.
  serve::MatrixRegistry registry;
  const CsrMatrix dense = gen::generate_suite_matrix("Dense", 0.05);
  const CsrMatrix qcd = gen::generate_suite_matrix("QCD", 0.05);
  registry.put("dense", dense, opt);
  std::printf("registered 'dense' (%u x %u)\n", dense.rows(), dense.cols());
  const serve::MatrixRegistry::EntryPtr qcd_entry =
      registry.put("qcd", qcd, opt);
  std::printf("'qcd' published (version %llu)\n",
              static_cast<unsigned long long>(qcd_entry->version));

  serve::SchedulerConfig config;
  config.max_batch = 32;
  config.max_linger = std::chrono::microseconds(100);
  serve::Scheduler scheduler(registry, config);

  std::vector<std::thread> workers;
  workers.reserve(clients);
  for (unsigned c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      const std::string name = (c % 2 == 0) ? "dense" : "qcd";
      const auto entry = registry.find(name);
      std::vector<double> x(entry->plan.cols(), 1.0);
      Prng rng(c);
      for (double& v : x) v = rng.next_double(-1.0, 1.0);
      std::vector<double> y(entry->plan.rows(), 0.0);
      for (unsigned r = 0; r < requests; ++r) {
        scheduler.submit(name, x, y).get();  // y += A·x, coalesced
      }
    });
  }

  // Hot swap under load: clients racing this keep their pinned version
  // until their in-flight requests finish; new lookups get the new plan.
  registry.put("dense", dense, opt);
  for (std::thread& w : workers) w.join();

  const serve::ServeStatsSnapshot snap = scheduler.stats();
  std::printf("\n%-8s %10s %10s %8s %8s %12s %12s\n", "matrix", "completed",
              "batches", "width", "max", "queue p95 us", "disp p50 us");
  for (const auto& m : snap.matrices) {
    std::printf("%-8s %10llu %10llu %8.2f %8llu %12.0f %12.0f\n",
                m.name.c_str(),
                static_cast<unsigned long long>(m.requests_completed),
                static_cast<unsigned long long>(m.batches_dispatched),
                m.mean_batch_width(),
                static_cast<unsigned long long>(m.max_batch_width),
                m.queue_latency.quantile_us(0.95),
                m.dispatch_latency.quantile_us(0.5));
  }
  return 0;
}
