// Network front-end throughput: the wire + session + scheduler stack on
// a loopback socket, full-vector vs delta-encoded operands.
//
// A server is started on an ephemeral loopback port; N client threads run
// an iterative-solver style workload against one banded suite-scale
// matrix: each step multiplies, then perturbs ~1% of the operand (the
// churn the delta encoding targets).  Two operand modes per client count:
//
//   full    every operand ships dense (DeltaMode::kAlwaysFull) — the
//           protocol floor;
//   delta   the client's auto crossover (cached / delta / full per
//           operand) — steady state ships ~1% of the bytes.
//
// closed loop: one request outstanding per client (RPC latency is the
// p50/p99 that matters).  open loop: each client keeps `window` requests
// pipelined (throughput when latency is hidden) — the only rows that put
// k requests in flight, as k pipelined MULTIPLYs.  Open-loop p50/p99 is
// each request's send -> reply time, so it includes the wait behind the
// other requests of the window.
//
// Reported per point: delivered ops/s, client-observed p50/p99 RPC
// latency, operand bytes shipped per op vs dense, goodput (kOk results
// per second) and retry overhead (retransmissions per delivered op) —
// all archived to BENCH_net.json (--json=true) for the CI perf
// trajectory.  Extra flags: --max_clients=4 (sweep 1,2,4,...),
// --window=8, --churn=0.01, --io_threads=2.
//
// Lossy-link mode: --kill_every=N routes every client through the
// seeded ChaosProxy (--chaos_seed=S), which cuts/stalls/trickles every
// Nth connection after a drawn byte budget.  Clients run with the retry
// ladder enabled, so the goodput and retry-overhead columns measure
// what the fault-tolerance layer actually costs on an unreliable link.
// In clean mode (--kill_every=0, the default) goodput/s equals ops/s
// and retry_ovh is 0.
#include <algorithm>
#include <atomic>
#include <deque>
#include <memory>
#include <thread>

#include "bench_common.h"
#include "gen/generators.h"
#include "net/client.h"
#include "net/server.h"
#include "support/chaos_proxy.h"

namespace spmv::bench {
namespace {

struct PointResult {
  std::uint64_t calls = 0;  ///< RPCs reaching any terminal status
  std::uint64_t ops = 0;    ///< RPCs delivered kOk (the goodput numerator)
  std::uint64_t retries = 0;
  std::uint64_t reconnects = 0;
  double seconds = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::uint64_t op_bytes_sent = 0;
  std::uint64_t op_bytes_dense = 0;
};

/// Lossy-link settings threaded into each client when --kill_every > 0.
struct LossyLink {
  bool enabled = false;
  std::uint64_t seed = 1;
};

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1));
  return v[idx];
}

/// One bench point: `clients` threads against `port` (the server, or the
/// chaos proxy in front of it), stopping after `seconds` of wall clock.
PointResult run_point(std::uint16_t port, const LossyLink& lossy, int clients,
                      bool delta, int window, double churn, double seconds,
                      std::uint32_t n) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  std::vector<PointResult> partial(clients);
  std::vector<std::vector<double>> lat_us(clients);

  Timer timer;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      net::ClientOptions copts;
      copts.port = port;
      copts.client_name = delta ? "bench-delta" : "bench-full";
      copts.delta_mode = delta ? net::ClientOptions::DeltaMode::kAuto
                               : net::ClientOptions::DeltaMode::kAlwaysFull;
      copts.requested_quota = static_cast<std::uint32_t>(window) + 4;
      if (lossy.enabled) {
        // The retry ladder is what this mode measures: each RPC rides
        // reconnect + resume + retransmission to completion.
        copts.timeout = std::chrono::milliseconds(500);
        copts.rpc_budget = std::chrono::milliseconds(3000);
        copts.retry.enabled = true;
        copts.retry.max_attempts = 64;
        copts.retry.backoff_base = std::chrono::milliseconds(1);
        copts.retry.backoff_cap = std::chrono::milliseconds(20);
        copts.retry.seed = lossy.seed + static_cast<std::uint64_t>(c);
        copts.retry.breaker_threshold = 1 << 20;  // measure, don't fast-fail
      }
      net::SpmvNetClient client(copts);
      client.connect();

      Prng rng(0xBE9C + static_cast<std::uint64_t>(c));
      std::vector<double> x(n);
      for (auto& v : x) v = rng.next_double(-1.0, 1.0);
      const auto churn_n =
          std::max<std::uint32_t>(1, static_cast<std::uint32_t>(
                                         churn * static_cast<double>(n)));

      auto perturb = [&] {
        for (std::uint32_t k = 0; k < churn_n; ++k) {
          x[rng.next_u64() % n] += 1e-3;
        }
      };

      if (window <= 1) {
        // Closed loop: RPC latency is the statistic.
        while (!stop.load(std::memory_order_relaxed)) {
          Timer rpc;
          const auto r = client.multiply("A", x);
          ++partial[c].calls;
          if (r.status != net::StatusCode::kOk) continue;
          lat_us[c].push_back(rpc.seconds() * 1e6);
          ++partial[c].ops;
          perturb();
        }
      } else {
        // Open loop: keep `window` requests pipelined.  begin/await are
        // not on the retry ladder, so on a lossy link a cut connection
        // surfaces as a throw: the whole pipeline is charged as failed
        // calls and the client reconnects (resuming its session) by hand.
        struct Sent {
          std::uint64_t id;
          Timer since;  ///< started just before the send
        };
        std::deque<Sent> inflight;
        while (!stop.load(std::memory_order_relaxed)) {
          try {
            while (inflight.size() < static_cast<std::size_t>(window)) {
              const Timer since;
              inflight.push_back({client.begin_multiply("A", x), since});
              perturb();
            }
            const auto r = client.await(inflight.front().id);
            const double us = inflight.front().since.seconds() * 1e6;
            inflight.pop_front();
            ++partial[c].calls;
            if (r.status != net::StatusCode::kOk) continue;
            lat_us[c].push_back(us);
            ++partial[c].ops;
          } catch (const std::exception&) {
            partial[c].calls += inflight.size();
            inflight.clear();
            client.close();
            try {
              client.connect();
            } catch (const std::exception&) {
              std::this_thread::sleep_for(std::chrono::milliseconds(5));
            }
          }
        }
        // Drain the window still in flight, counted as the loop counts:
        // the byte counters already include these requests' operands.
        while (!inflight.empty()) {
          try {
            const auto r = client.await(inflight.front().id);
            const double us = inflight.front().since.seconds() * 1e6;
            inflight.pop_front();
            ++partial[c].calls;
            if (r.status != net::StatusCode::kOk) continue;
            lat_us[c].push_back(us);
            ++partial[c].ops;
          } catch (const std::exception&) {
            partial[c].calls += inflight.size();
            inflight.clear();
          }
        }
      }
      partial[c].op_bytes_sent = client.counters().operand_bytes_sent;
      partial[c].op_bytes_dense = client.counters().operand_bytes_dense;
      partial[c].retries = client.counters().retries;
      partial[c].reconnects = client.counters().reconnects;
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();

  PointResult total;
  total.seconds = timer.seconds();
  std::vector<double> all_lat;
  for (int c = 0; c < clients; ++c) {
    total.calls += partial[c].calls;
    total.ops += partial[c].ops;
    total.retries += partial[c].retries;
    total.reconnects += partial[c].reconnects;
    total.op_bytes_sent += partial[c].op_bytes_sent;
    total.op_bytes_dense += partial[c].op_bytes_dense;
    all_lat.insert(all_lat.end(), lat_us[c].begin(), lat_us[c].end());
  }
  total.p50_us = quantile(all_lat, 0.5);
  total.p99_us = quantile(all_lat, 0.99);
  return total;
}

}  // namespace
}  // namespace spmv::bench

int main(int argc, char** argv) {
  using namespace spmv;
  using namespace spmv::bench;

  const BenchConfig cfg = BenchConfig::from_cli(argc, argv);
  const Cli cli(argc, argv);
  const int max_clients = static_cast<int>(cli.get_double("max_clients", 4));
  const int window = static_cast<int>(cli.get_double("window", 8));
  const double churn = cli.get_double("churn", 0.01);
  const unsigned io_threads =
      static_cast<unsigned>(cli.get_double("io_threads", 2));
  const double point_seconds = std::max(cfg.measure_seconds, 0.05);
  // Lossy-link mode: --kill_every=N puts the seeded chaos proxy between
  // the clients and the server; 0 (default) benches the clean link.
  const auto kill_every =
      static_cast<std::uint32_t>(cli.get_double("kill_every", 0));
  const auto chaos_seed =
      static_cast<std::uint64_t>(cli.get_double("chaos_seed", 1));

  const auto n =
      static_cast<std::uint32_t>(std::max(1024.0, 16384.0 * cfg.scale));
  const CsrMatrix matrix = gen::banded(n, 8, 0.9, 1234);

  net::ServerConfig scfg;
  scfg.io_threads = io_threads;
  if (kill_every > 0) {
    // Session resume + reply replay are what let the retry ladder
    // deliver over the lossy link; the clean mode never exercises them.
    scfg.resume_timeout = std::chrono::milliseconds(5000);
  }
  net::SpmvServer server(scfg);
  server.start();
  // Load in-process: the bench measures multiply traffic, not upload.
  const unsigned plan_threads =
      std::max(1u, std::min(4u, host_info().logical_cpus));
  TuningOptions opt = TuningOptions::full(plan_threads);
  opt.tune_prefetch = false;
  server.registry().put("A", matrix, opt);

  LossyLink lossy;
  lossy.enabled = kill_every > 0;
  lossy.seed = chaos_seed;
  std::unique_ptr<net::ChaosProxy> proxy;
  if (lossy.enabled) {
    net::ChaosProxyConfig pcfg;
    pcfg.upstream_port = server.port();
    pcfg.seed = chaos_seed;
    pcfg.kill_every = kill_every;
    // Scale the fault windows to the operand size so a connection
    // survives a handful of dense ops before its fault fires.
    const std::uint64_t dense = static_cast<std::uint64_t>(n) * sizeof(double);
    pcfg.fault_after_min = 4 * dense;
    pcfg.fault_after_max = 32 * dense;
    proxy = std::make_unique<net::ChaosProxy>(pcfg);
    proxy->start();
  }
  const std::uint16_t connect_port = proxy ? proxy->port() : server.port();

  Table table({"loop", "mode", "clients", "ops", "ops/s", "p50_us", "p99_us",
               "op_B/op", "dense_B/op", "saved_x", "goodput/s", "retry_ovh"});

  for (const bool open : {false, true}) {
    for (int clients = 1; clients <= max_clients; clients *= 2) {
      for (const bool delta : {false, true}) {
        const PointResult r =
            run_point(connect_port, lossy, clients, delta, open ? window : 1,
                      churn, point_seconds, n);
        const double per_op = r.ops > 0 ? 1.0 / static_cast<double>(r.ops) : 0;
        const double saved =
            r.op_bytes_sent > 0 ? static_cast<double>(r.op_bytes_dense) /
                                      static_cast<double>(r.op_bytes_sent)
                                : 0.0;
        // Goodput: kOk results per wall second.  Retry overhead:
        // retransmissions spent per delivered op (0 on a clean link).
        const double goodput = static_cast<double>(r.ops) / r.seconds;
        const double retry_ovh =
            r.ops > 0 ? static_cast<double>(r.retries) / static_cast<double>(r.ops)
                      : 0.0;
        table.add_row(
            {open ? "open" : "closed", delta ? "delta" : "full",
             std::to_string(clients), std::to_string(r.calls),
             Table::fmt(static_cast<double>(r.calls) / r.seconds, 0),
             Table::fmt(r.p50_us, 0), Table::fmt(r.p99_us, 0),
             Table::fmt(static_cast<double>(r.op_bytes_sent) * per_op, 0),
             Table::fmt(static_cast<double>(r.op_bytes_dense) * per_op, 0),
             Table::fmt(saved), Table::fmt(goodput, 0),
             Table::fmt(retry_ovh)});
      }
    }
  }

  if (proxy) proxy->stop();
  server.stop();
  cfg.emit(table, "net");
  return 0;
}
