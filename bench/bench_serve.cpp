// Serving throughput: request coalescing vs per-request dispatch.
//
// Drives synthetic traffic from N client threads over two registered suite
// matrices and measures delivered multiplies/s in four configurations:
//
//   direct        closed loop, each client owns an Executor and calls
//                 multiply() itself (no scheduler at all);
//   serve-1       closed loop through the Scheduler with max_batch=1 and
//                 no linger — the scheduling machinery with coalescing
//                 switched off (the "unbatched" baseline);
//   serve-batch   closed loop through the Scheduler with coalescing on —
//                 concurrent requests on one matrix merge into a single
//                 Executor::multiply_batch dispatch;
//   serve-open-1  open(ish) loop, coalescing off: each client keeps
//                 `window` requests outstanding (offered load above one
//                 request per client) but every dispatch still runs one
//                 right-hand side;
//   serve-open    the same open-loop traffic with coalescing on — the
//                 batched-vs-unbatched comparison where batching is the
//                 only variable;
//   serve-shed    the same open-loop traffic against a deliberately small
//                 queue under OverflowPolicy::kShed with per-request
//                 deadlines (--deadline_us=500) — measures the overload
//                 path: delivered ops/s for the requests that survive
//                 admission, plus the shed/expired counters from the
//                 data-plane stats.
//
// serve-batch and serve-open each run twice: once against matrices planned
// with batch_mode=kLooped (suffix "-loop": coalesced dispatches still
// sweep the matrix once per right-hand side) and once with the fused SpMM
// path (one matrix stream per coalesced chunk).  The "fused x" column on
// the fused rows is the delivered-GFlop/s ratio against the matching -loop
// row — the serving-level amortization that batching + fusion buys beyond
// dispatch coalescing alone.
//
// Per point it reports achieved mean/max batch width and queue/dispatch
// latency percentiles from the scheduler's ServeStats snapshot, plus a
// "vs direct" column (delivered ops/s over the direct row at the same
// client count — the scheduling overhead/amortization factor the
// scheduler is accountable for).  Extra flags: --max_clients=8 (sweep
// 1,2,4,..), --max_batch=32, --linger_us=100, --window=8,
// --point_seconds=<s> (default from --measure_seconds, floored at 0.05),
// --deadline_us=500 (per-request deadline budget for serve-shed).  The
// shed and expired columns land in BENCH_serve.json alongside
// throughput, so the overload behaviour is part of the archived perf
// trajectory.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "engine/executor.h"
#include "serve/registry.h"
#include "serve/scheduler.h"
#include "serve/serve_stats.h"

namespace {

using namespace spmv;
using namespace spmv::bench;

// Two registry entries built from the same suite matrix: mixed traffic
// still forces the scheduler to group requests per entry, but every
// multiply costs the same, so ops/s differences between modes measure
// scheduling (dispatch amortization, wakeups, linger) rather than which
// client got the cheaper matrix.
constexpr const char* kSuiteMatrix = "Dense";
constexpr const char* kMatrixNames[2] = {"Dense/a", "Dense/b"};

struct TrafficPoint {
  std::uint64_t ops = 0;
  std::uint64_t flops = 0;  // 2*nnz summed over completed multiplies
  double seconds = 0.0;
};

struct ClientPlan {
  const std::vector<double>* x = nullptr;
  std::uint64_t nnz = 0;
  serve::MatrixRegistry::EntryPtr entry;
};

/// Closed loop without the scheduler: every client hammers its own
/// Executor until the deadline.
TrafficPoint run_direct(const std::vector<ClientPlan>& clients,
                        std::vector<std::vector<std::vector<double>>>& ys,
                        double seconds) {
  std::atomic<std::uint64_t> ops{0};
  std::atomic<std::uint64_t> flops{0};
  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  threads.reserve(clients.size());
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      const ClientPlan& plan = clients[c];
      engine::Executor exec(plan.entry->plan);
      std::vector<double>& y = ys[c][0];
      std::uint64_t n = 0;
      while (std::chrono::steady_clock::now() < deadline) {
        exec.multiply(*plan.x, y);
        ++n;
      }
      ops.fetch_add(n);
      flops.fetch_add(n * 2 * plan.nnz);
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return {ops.load(), flops.load(), elapsed};
}

/// Open-loop traffic with per-request deadlines against a kShed
/// scheduler.  Shed/expired rejections are expected outcomes here — they
/// resolve as ServeError and are counted from the scheduler's stats by
/// the caller; ops/flops only count requests that actually completed.
TrafficPoint run_serve_shed(serve::Scheduler& sched,
                            const std::vector<ClientPlan>& clients,
                            std::vector<std::vector<std::vector<double>>>& ys,
                            std::size_t window, long deadline_us,
                            double seconds) {
  std::atomic<std::uint64_t> ops{0};
  std::atomic<std::uint64_t> flops{0};
  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  threads.reserve(clients.size());
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      const ClientPlan& plan = clients[c];
      const auto budget = std::chrono::microseconds(deadline_us);
      std::deque<std::future<void>> inflight;
      std::uint64_t n = 0;
      std::size_t slot = 0;
      const auto settle = [&](std::future<void>& f) {
        try {
          f.get();
          ++n;
        } catch (const serve::ServeError&) {
          // Shed at the door or expired in the queue: a defined,
          // counted outcome under overload, not a bench failure.
        }
      };
      while (std::chrono::steady_clock::now() < deadline) {
        if (inflight.size() >= window) {
          settle(inflight.front());
          inflight.pop_front();
        }
        serve::SubmitOptions opt;
        opt.deadline = std::chrono::steady_clock::now() + budget;
        // Alternate priorities so the shed path exercises both the
        // priority<=0 immediate shed and the EWMA deadline prediction.
        opt.priority = static_cast<int>(c & 1);
        inflight.push_back(
            sched.submit(plan.entry, *plan.x, ys[c][slot], opt).future);
        slot = (slot + 1) % window;
      }
      for (std::future<void>& f : inflight) settle(f);
      ops.fetch_add(n);
      flops.fetch_add(n * 2 * plan.nnz);
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return {ops.load(), flops.load(), elapsed};
}

/// Traffic through the scheduler.  window = 1 is a closed loop; larger
/// windows keep that many requests of each client in flight.
TrafficPoint run_serve(serve::Scheduler& sched,
                       const std::vector<ClientPlan>& clients,
                       std::vector<std::vector<std::vector<double>>>& ys,
                       std::size_t window, double seconds) {
  std::atomic<std::uint64_t> ops{0};
  std::atomic<std::uint64_t> flops{0};
  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  threads.reserve(clients.size());
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      const ClientPlan& plan = clients[c];
      std::deque<std::future<void>> inflight;
      std::uint64_t n = 0;
      std::size_t slot = 0;
      while (std::chrono::steady_clock::now() < deadline) {
        if (inflight.size() >= window) {
          inflight.front().get();
          inflight.pop_front();
          ++n;
        }
        // Each outstanding request needs its own destination; slots are
        // recycled strictly after their future resolved.
        inflight.push_back(
            sched.submit(plan.entry, *plan.x, ys[c][slot]));
        slot = (slot + 1) % window;
      }
      for (std::future<void>& f : inflight) {
        f.get();
        ++n;
      }
      ops.fetch_add(n);
      flops.fetch_add(n * 2 * plan.nnz);
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return {ops.load(), flops.load(), elapsed};
}

}  // namespace

int main(int argc, char** argv) {
  const BenchConfig cfg = BenchConfig::from_cli(argc, argv);
  const Cli cli(argc, argv);
  const auto max_clients =
      static_cast<unsigned>(std::max(1L, cli.get_int("max_clients", 8)));
  const auto max_batch =
      static_cast<std::size_t>(std::max(1L, cli.get_int("max_batch", 32)));
  const auto linger_us = std::max(0L, cli.get_int("linger_us", 100));
  const auto window =
      static_cast<std::size_t>(std::max(1L, cli.get_int("window", 8)));
  const double point_seconds =
      cli.get_double("point_seconds", std::max(cfg.measure_seconds, 0.05));
  const auto deadline_us = std::max(1L, cli.get_int("deadline_us", 500));

  print_host_banner();
  SuiteCache suite(cfg.scale);

  const unsigned plan_threads =
      std::max(1u, std::min(4u, host_info().logical_cpus));
  TuningOptions opt = TuningOptions::full(plan_threads);
  opt.tune_prefetch = false;

  // Same matrices twice: planned fused (default auto/fused path) and
  // planned looped, so the only difference between a mode and its "-loop"
  // twin is whether coalesced batches stream the matrix once per chunk.
  serve::MatrixRegistry registry;
  serve::MatrixRegistry registry_loop;
  std::uint64_t nnz_by_matrix[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    const CsrMatrix& m = suite.get(kSuiteMatrix);
    nnz_by_matrix[i] = m.nnz();
    TuningOptions fused_opt = opt;
    fused_opt.batch_mode = BatchExecMode::kFused;
    registry.put(kMatrixNames[i], m, fused_opt);
    TuningOptions loop_opt = opt;
    loop_opt.batch_mode = BatchExecMode::kLooped;
    registry_loop.put(kMatrixNames[i], m, loop_opt);
  }

  Table table({"mode", "clients", "ops", "ops/s", "GFlop/s",
               "vs direct", "fused x", "mean width", "max width",
               "queue p50 us", "queue p95 us", "disp p50 us", "shed",
               "expired"});

  std::vector<unsigned> sweep;
  for (unsigned c = 1; c <= max_clients; c *= 2) sweep.push_back(c);
  if (sweep.back() != max_clients) sweep.push_back(max_clients);

  for (const unsigned n_clients : sweep) {
    // Half the clients target each matrix (all of them for clients == 1):
    // mixed traffic, so coalescing has to group by entry, not just drain.
    std::vector<ClientPlan> clients(n_clients);
    std::vector<std::vector<double>> xs(2);
    for (int i = 0; i < 2; ++i) {
      xs[i] = random_vector(suite.get(kSuiteMatrix).cols(), 7 + i);
    }
    std::vector<ClientPlan> clients_loop(n_clients);
    for (unsigned c = 0; c < n_clients; ++c) {
      const int mi = static_cast<int>(c % 2);
      clients[c].x = &xs[mi];
      clients[c].nnz = nnz_by_matrix[mi];
      clients[c].entry = registry.find(kMatrixNames[mi]);
      clients_loop[c] = clients[c];
      clients_loop[c].entry = registry_loop.find(kMatrixNames[mi]);
    }
    // ys[client][slot]: `window` independent destinations per client so
    // open-loop requests never share a y.
    std::vector<std::vector<std::vector<double>>> ys(n_clients);
    for (unsigned c = 0; c < n_clients; ++c) {
      ys[c].assign(window, std::vector<double>(
                               clients[c].entry->plan.rows(), 0.0));
    }

    struct ModeResult {
      std::string mode;
      TrafficPoint traffic;
      double vs_direct = 0.0;    ///< ops/s over the direct row
      double fused_ratio = 0.0;  ///< GFlop/s vs the matching -loop mode
      double mean_width = 1.0;
      std::uint64_t max_width = 1;
      double q50 = 0.0, q95 = 0.0, d50 = 0.0;
      bool has_stats = false;  ///< went through a scheduler (not direct)
      std::uint64_t shed = 0, expired = 0;
    };
    std::vector<ModeResult> results;

    results.push_back({"direct", run_direct(clients, ys, point_seconds)});

    struct ServeMode {
      const char* label;
      std::size_t batch;
      long linger;
      std::size_t win;
      bool fused;
      /// Label of the -loop twin this mode's GFlop/s is compared against.
      const char* ratio_vs;
    };
    const ServeMode modes[] = {
        {"serve-1", 1, 0, 1, false, nullptr},
        {"serve-batch-loop", max_batch, linger_us, 1, false, nullptr},
        {"serve-batch", max_batch, linger_us, 1, true, "serve-batch-loop"},
        {"serve-open-1", 1, 0, window, false, nullptr},
        {"serve-open-loop", max_batch, linger_us, window, false, nullptr},
        {"serve-open", max_batch, linger_us, window, true, "serve-open-loop"},
    };
    for (const ServeMode& mode : modes) {
      serve::SchedulerConfig sc;
      sc.max_batch = mode.batch;
      sc.max_linger = std::chrono::microseconds(mode.linger);
      serve::Scheduler sched(mode.fused ? registry : registry_loop, sc);
      ModeResult r;
      r.mode = mode.label;
      r.traffic =
          run_serve(sched, mode.fused ? clients : clients_loop, ys,
                    mode.win, point_seconds);
      const serve::ServeStatsSnapshot snap = sched.stats();
      r.has_stats = true;
      r.shed = snap.data_plane.requests_shed;
      r.expired = snap.data_plane.requests_expired;
      r.mean_width = snap.mean_batch_width();
      for (const auto& m : snap.matrices) {
        r.max_width = std::max(r.max_width, m.max_batch_width);
      }
      // Aggregate latency across the two matrices' histograms.
      serve::LatencyHistogram::Snapshot queue{}, disp{};
      for (const auto& m : snap.matrices) {
        for (std::size_t b = 0; b < serve::LatencyHistogram::kBuckets; ++b) {
          queue.buckets[b] += m.queue_latency.buckets[b];
          disp.buckets[b] += m.dispatch_latency.buckets[b];
        }
        queue.count += m.queue_latency.count;
        queue.total_ns += m.queue_latency.total_ns;
        disp.count += m.dispatch_latency.count;
        disp.total_ns += m.dispatch_latency.total_ns;
      }
      r.q50 = queue.quantile_us(0.5);
      r.q95 = queue.quantile_us(0.95);
      r.d50 = disp.quantile_us(0.5);
      const ModeResult& direct = results.front();
      if (direct.traffic.ops > 0 && direct.traffic.seconds > 0.0 &&
          r.traffic.seconds > 0.0) {
        r.vs_direct = (static_cast<double>(r.traffic.ops) /
                       r.traffic.seconds) /
                      (static_cast<double>(direct.traffic.ops) /
                       direct.traffic.seconds);
      }
      if (mode.ratio_vs != nullptr) {
        for (const ModeResult& prev : results) {
          if (prev.mode == mode.ratio_vs && prev.traffic.seconds > 0.0 &&
              r.traffic.seconds > 0.0 && prev.traffic.flops > 0) {
            const double own = static_cast<double>(r.traffic.flops) /
                               r.traffic.seconds;
            const double base = static_cast<double>(prev.traffic.flops) /
                                prev.traffic.seconds;
            r.fused_ratio = own / base;
          }
        }
      }
      results.push_back(std::move(r));
    }

    // serve-shed: offered load well above a deliberately small kShed
    // queue, with per-request deadlines — the admission-control path
    // under genuine overload.  Fused registry, batching on: the question
    // is how much goodput survives and how much is shed/expired, not
    // which execution path ran it.
    {
      serve::SchedulerConfig sc;
      sc.max_batch = max_batch;
      sc.max_linger = std::chrono::microseconds(linger_us);
      sc.overflow = serve::SchedulerConfig::OverflowPolicy::kShed;
      sc.queue_capacity = std::max<std::size_t>(4, 2 * n_clients);
      serve::Scheduler sched(registry, sc);
      ModeResult r;
      r.mode = "serve-shed";
      r.traffic = run_serve_shed(sched, clients, ys, window, deadline_us,
                                 point_seconds);
      const serve::ServeStatsSnapshot snap = sched.stats();
      r.has_stats = true;
      r.shed = snap.data_plane.requests_shed;
      r.expired = snap.data_plane.requests_expired;
      r.mean_width = snap.mean_batch_width();
      serve::LatencyHistogram::Snapshot queue{};
      for (const auto& m : snap.matrices) {
        r.max_width = std::max(r.max_width, m.max_batch_width);
        for (std::size_t b = 0; b < serve::LatencyHistogram::kBuckets; ++b) {
          queue.buckets[b] += m.queue_latency.buckets[b];
        }
        queue.count += m.queue_latency.count;
        queue.total_ns += m.queue_latency.total_ns;
      }
      r.q50 = queue.quantile_us(0.5);
      r.q95 = queue.quantile_us(0.95);
      const ModeResult& direct = results.front();
      if (direct.traffic.ops > 0 && direct.traffic.seconds > 0.0 &&
          r.traffic.seconds > 0.0) {
        r.vs_direct = (static_cast<double>(r.traffic.ops) /
                       r.traffic.seconds) /
                      (static_cast<double>(direct.traffic.ops) /
                       direct.traffic.seconds);
      }
      results.push_back(std::move(r));
    }

    for (const ModeResult& r : results) {
      table.add_row(
          {r.mode, std::to_string(n_clients), std::to_string(r.traffic.ops),
           Table::fmt(static_cast<double>(r.traffic.ops) /
                          std::max(1e-9, r.traffic.seconds),
                      0),
           Table::fmt(static_cast<double>(r.traffic.flops) /
                          std::max(1e-9, r.traffic.seconds) / 1e9,
                      3),
           r.vs_direct > 0.0 ? Table::fmt(r.vs_direct) : "-",
           r.fused_ratio > 0.0 ? Table::fmt(r.fused_ratio) : "-",
           Table::fmt(r.mean_width), std::to_string(r.max_width),
           Table::fmt(r.q50, 0), Table::fmt(r.q95, 0),
           Table::fmt(r.d50, 0),
           r.has_stats ? std::to_string(r.shed) : "-",
           r.has_stats ? std::to_string(r.expired) : "-"});
    }
  }

  cfg.emit(table, "serve");
  return 0;
}
