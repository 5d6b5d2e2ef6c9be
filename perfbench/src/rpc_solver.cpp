// rpc-solver: one closed-loop client against an in-process SpmvServer with
// the default ServerConfig, as `spmv_client --listen` deploys it, over
// loopback.  A solver waits for every y, so it is a closed loop of one.
//
// The matrix is FEM/Harbor at scale 0.05 (2,350 rows, ~118k nonzeros):
// its kernel takes ~100 µs, so the wire, delta apply and scheduler
// linger dominate a call.  It is uploaded over the wire and tuned with the
// server's default single-thread options.
#include <algorithm>
#include <cstdio>

#include "common.h"
#include "gen/suite.h"
#include "ladder.h"
#include "util/prng.h"

namespace perfbench {
namespace {

using spmv::net::StatusCode;

constexpr double kScale = 0.05;
constexpr const char* kMatrix = "FEM/Harbor";
/// setup_s is the median of this many server bring-ups: the measured
/// fixture's own, then the rest spread evenly over kSetupSpreadSeconds of
/// plain calls after the measurement.  Back to back they take ~0.2 s and
/// land in one host state; on a shared 4-vCPU KVM guest the host's speed
/// changes by up to 1.5x every few hundred ms, and their median flipped
/// between ~7.5 and ~10.5 ms from run to run.
constexpr std::size_t kSetupRepeats = 21;
constexpr double kSetupSpreadSeconds = 4.0;
/// One reply in this many (seeded) is checked against the local reference.
constexpr std::uint64_t kCheckOneIn = 16;
constexpr double kWarmupSeconds = 0.5;

/// Starts a server, connects a client and uploads `a` as "A".  Returns
/// seconds from start() until HELLO finished and the upload reply arrived.
double bring_up(const spmv::CsrMatrix& a, Fixture& f) {
  f.client.reset();
  f.server = std::make_unique<spmv::net::SpmvServer>();
  std::vector<std::uint64_t> row_ptr(a.row_ptr().begin(), a.row_ptr().end());
  std::vector<std::uint32_t> col_idx(a.col_idx().begin(), a.col_idx().end());
  std::vector<double> values(a.values().begin(), a.values().end());

  const std::int64_t t0 = now_ns();
  f.start();
  const auto up = f.client->upload("A", a.rows(), a.cols(), std::move(row_ptr),
                                   std::move(col_idx), std::move(values));
  const double s = static_cast<double>(now_ns() - t0) * 1e-9;
  if (up.status != StatusCode::kOk)
    throw std::runtime_error(std::string("upload failed: ") +
                             spmv::net::to_string(up.status) + " " + up.message);
  return s;
}

/// The set-up repeats after the first, each on a spare fixture, spread
/// evenly over plain calls on `f`.  They run after the measurement so that
/// two servers alive at once do not raise the workload's peak RSS.
void repeat_bring_ups(const spmv::CsrMatrix& a, Fixture& f, std::span<const double> x,
                      std::vector<double>& setup_s, Result& r) {
  const std::int64_t start = now_ns();
  const auto spread_ns = static_cast<std::int64_t>(kSetupSpreadSeconds * 1e9);
  const auto gaps = static_cast<std::int64_t>(kSetupRepeats - 1);
  while (setup_s.size() < kSetupRepeats) {
    if (now_ns() - start >= static_cast<std::int64_t>(setup_s.size() - 1) * spread_ns / gaps) {
      Fixture spare;
      setup_s.push_back(bring_up(a, spare));
      continue;
    }
    ++r.attempted;
    if (!timed_multiply(*f.client, "A", x).ok) ++r.failed;
  }
}

void add_e2e_metrics(Result& r, const std::vector<double>& setup_s, double peak_rss,
                     const Windows& w, const MeasureClock& clock, std::uint64_t nnz) {
  const double ops_s = w.rate(clock.used());
  r.add("setup_s", median(setup_s), "s");
  r.add("peak_rss_mb", peak_rss, "MiB");
  r.add("gflops", 2.0 * static_cast<double>(nnz) * ops_s * 1e-9, "GF/s");
  r.add("p50_us", w.latency(0.5, clock.used()), "us");
  r.add("p90_us", w.latency(0.9, clock.used()), "us");
  r.add("ops_s", ops_s, "1/s");
  r.add_info("samples.latency", static_cast<double>(w.samples()), "count");
}

/// The server's single-thread plan against a 2-thread plan of the same
/// matrix with the server's tuning options, multiplied alternately for
/// `seconds`.  Adds core.gflops_1t and engine.scaling.
void add_scaling_metrics(Result& r, const spmv::CsrMatrix& a,
                         const spmv::TunedMatrix& served,
                         const spmv::TuningOptions& served_opts,
                         std::span<const double> x, unsigned seconds) {
  auto opts = served_opts;
  opts.threads = 2;
  const auto plan_2t = spmv::TunedMatrix::plan(a, opts);
  std::vector<double> y(a.rows());
  plan_2t.multiply(x, y);
  ++r.attempted;
  if (!r.check(max_rel_err(a, x, y, reference_multiply(a, x))))
    std::printf("WRONG 2-thread plan of the served matrix\n");
  std::vector<double> us_1t, us_2t;
  MeasureClock clock(seconds);
  while (clock.running()) {
    for (const spmv::TunedMatrix* p : {&served, &plan_2t}) {
      const std::int64_t t0 = now_ns();
      p->multiply(x, y);
      (p == &served ? us_1t : us_2t).push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    }
  }
  r.attempted += us_1t.size() + us_2t.size();
  const double us1 = median(us_1t);
  r.add("core.gflops_1t", 2.0 * static_cast<double>(a.nnz()) / (us1 * 1e3), "GF/s");
  r.add("engine.scaling", us1 / median(us_2t), "x");
}

}  // namespace

Result run_rpc_solver(const Args& args, Tracer* tracer) {
  Result r;
  const spmv::CsrMatrix a = spmv::gen::generate_suite_matrix(kMatrix, kScale);
  Fixture f;
  std::vector<double> setup_s{bring_up(a, f)};
  auto& client = *f.client;
  auto& server = *f.server;
  const auto entry = server.registry().find("A");
  if (tracer != nullptr) tracer->note("plan:A", entry->plan.report().summary());

  // Operands, churn and the checked sample all derive from the seed.
  spmv::Prng rng(args.seed);
  spmv::Prng pick(args.seed ^ 0x5bd1e995ull);
  const std::uint32_t n = a.cols();
  std::vector<double> x(n);
  for (double& v : x) v = 2.0 * rng.next_double() - 1.0;
  const std::uint32_t churn = std::max<std::uint32_t>(1, n / 100);
  auto step_x = [&] {
    for (std::uint32_t k = 0; k < churn; ++k)
      x[rng.next_below(n)] = 2.0 * rng.next_double() - 1.0;
  };

  const std::int64_t warm_end = now_ns() + static_cast<std::int64_t>(kWarmupSeconds * 1e9);
  while (now_ns() < warm_end) {
    step_x();
    r.attempted += 1;
    if (!timed_multiply(client, "A", x).ok) ++r.failed;
  }

  // The traced run gives the ladder most of the time and the 1- vs
  // 2-thread comparison the rest.
  const auto seconds = static_cast<unsigned>(args.seconds);
  std::unique_ptr<Ladder> ladder;
  if (tracer != nullptr)
    ladder = std::make_unique<Ladder>(f, tracer->lane(), std::vector<std::string>{"A"});
  MeasureClock clock(tracer != nullptr ? seconds * 8 / 10 : seconds);
  // Client-observed latency of the plain calls and of the ladder's net
  // rung; a failed or wrong call counts as infinitely slow.
  Windows plain(clock.start_ns()), net_rung(clock.start_ns());
  std::uint64_t net_ok = 0;
  NoiseProbe noise;
  noise.start();
  for (std::uint64_t step = 0; clock.running(); ++step) {
    step_x();
    const bool check = pick.next_below(kCheckOneIn) == 0;
    if (ladder == nullptr || step % 2 == 0) {
      const Call call =
          ladder != nullptr ? ladder->call(0, x) : timed_multiply(client, "A", x);
      ++r.attempted;
      bool good = call.ok;
      if (!call.ok) {
        ++r.failed;
      } else if (check) {
        good = r.check(max_rel_err(a, x, call.y, reference_multiply(a, x)));
      }
      plain.add(call.t1, good ? call.us() : kFailedLatency, good);
      net_ok += good ? 1 : 0;
      continue;
    }
    const Call net = ladder->step(0, a, x, check, r);
    net_rung.add(net.t1, net.ok ? net.us() : kFailedLatency, net.ok);
    net_ok += net.ok ? 1 : 0;
  }
  noise.stop();
  clock.report(r);

  if (tracer == nullptr) {
    add_noise(r, noise, net_ok, false);
    const double peak_rss = peak_rss_mib();
    repeat_bring_ups(a, f, x, setup_s, r);
    add_e2e_metrics(r, setup_s, peak_rss, plain, clock, a.nnz());
    return r;
  }

  const auto& rep = entry->plan.report();
  const double core_us = ladder->core_us();
  r.add("core.gflops", 2.0 * static_cast<double>(a.nnz()) / (core_us * 1e3), "GF/s");
  add_scaling_metrics(r, a, entry->plan, server.config().tuning, x,
                      std::max(1u, seconds / 10));
  r.add("core.bytes_per_nnz",
        static_cast<double>(rep.tuned_bytes) / static_cast<double>(rep.nnz), "B/nnz");
  // One thread's kernel against the 2-thread roof, on a matrix that fits in
  // a core's L2.
  r.add("core.stream_frac",
        static_cast<double>(compulsory_bytes(rep)) / (core_us * 1e-6) / stream_roof(),
        "frac");
  r.add("core.plan_s", rep.plan_seconds, "s");
  add_dispatch_metrics(r);
  ladder->add_metrics(r);
  r.add("trace.overhead_frac",
        net_rung.latency(0.5, clock.used()) / plain.latency(0.5, clock.used()) - 1.0,
        "frac");
  add_noise(r, noise, net_ok, true);
  return r;
}

}  // namespace perfbench
