// suite-sweep: the in-process library path, the paper's own measurement.
//
// The 14 Table-3 matrices at scale 0.25 are each planned with
// TuningOptions::full(2) and multiplied round-robin, so a slow host period
// hits every matrix alike.  Two threads, not four: on a 4-vCPU guest an
// empty 4-thread dispatch costs ~10x a 2-thread one and the suite geomean
// swung twice as wide between runs.  Serve and net are bypassed; only the
// traced run's layer ladder sends the suite through them.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common.h"
#include "core/tuned_matrix.h"
#include "gen/suite.h"
#include "ladder.h"
#include "util/cpu.h"
#include "util/prng.h"

namespace perfbench {
namespace {

constexpr double kScale = 0.25;
constexpr unsigned kThreads = 2;
/// setup_s is the median of this many full plannings of the suite.
constexpr int kSetupRepeats = 5;
/// One ladder step in this many (seeded) is checked against the reference.
constexpr std::uint64_t kCheckOneIn = 16;

struct SuiteMatrix {
  std::string name;
  const char* span_name;  ///< "core.multiply:<slug>", owned by the tracer
  spmv::CsrMatrix a;
  std::vector<double> x;
  std::vector<double> y;
};

std::vector<spmv::TunedMatrix> plan_all(const std::vector<SuiteMatrix>& ms,
                                        unsigned threads) {
  std::vector<spmv::TunedMatrix> plans;
  plans.reserve(ms.size());
  for (const auto& m : ms)
    plans.push_back(spmv::TunedMatrix::plan(m.a, spmv::TuningOptions::full(threads)));
  return plans;
}

/// Checks every plan's y = A·x against the naive CSR reference.
void verify_all(const std::vector<spmv::TunedMatrix>& plans,
                const std::vector<SuiteMatrix>& ms, Result& r,
                double& worst_err) {
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::vector<double> y(ms[i].a.rows(), 0.0);
    double err = std::numeric_limits<double>::infinity();
    try {
      plans[i].multiply(ms[i].x, y);
      err = max_rel_err(ms[i].a, ms[i].x, y, reference_multiply(ms[i].a, ms[i].x));
    } catch (const std::exception& e) {
      std::printf("check %s: %s\n", ms[i].name.c_str(), e.what());
    }
    worst_err = std::max(worst_err, err);
    ++r.attempted;
    if (!r.check(err))
      std::printf("WRONG %s: relative error %.3g > %.0e\n", ms[i].name.c_str(),
                  err, kRelTol);
  }
}

/// Per-matrix call times, bucketed into the clock's one-second windows.
struct SweepTimes {
  std::vector<Windows> untraced, traced;  ///< per matrix
  std::uint64_t calls = 0;
  std::uint64_t sweeps = 0;
};

/// Round-robin sweeps while `clock` runs.  With a lane, every other sweep
/// is traced: a "sweep" span with one child span per multiply.
SweepTimes sweep(const std::vector<spmv::TunedMatrix>& plans,
                 std::vector<SuiteMatrix>& ms, MeasureClock& clock, Result& r,
                 TraceLane* lane) {
  SweepTimes t;
  t.untraced.assign(ms.size(), Windows(clock.start_ns()));
  t.traced.assign(ms.size(), Windows(clock.start_ns()));
  while (clock.running()) {
    const bool traced = lane != nullptr && t.sweeps % 2 == 1;
    const std::uint64_t sweep_id = traced ? lane->new_id() : 0;
    const std::int64_t s0 = now_ns();
    for (std::size_t i = 0; i < ms.size(); ++i) {
      const std::int64_t c0 = now_ns();
      try {
        plans[i].multiply(ms[i].x, ms[i].y);
      } catch (const std::exception& e) {
        ++r.failed;
        std::printf("multiply %s threw: %s\n", ms[i].name.c_str(), e.what());
      }
      const std::int64_t c1 = now_ns();
      ++t.calls;
      (traced ? t.traced : t.untraced)[i].add(c1, static_cast<double>(c1 - c0) * 1e-3);
      if (traced)
        lane->add(lane->new_id(), ms[i].span_name, sweep_id, t.sweeps, c0, c1);
    }
    if (traced) lane->add(sweep_id, "sweep", 0, t.sweeps, s0, now_ns());
    ++t.sweeps;
  }
  r.attempted += t.calls;
  return t;
}

/// Per matrix, its q-quantile call time: taken in each used window, then
/// averaged over the windows as for the rpc latencies.
std::vector<double> call_us(const std::vector<Windows>& per_matrix,
                            const MeasureClock& clock, double q) {
  std::vector<double> us;
  for (const Windows& w : per_matrix) us.push_back(w.latency(q, clock.used()));
  return us;
}

double gflops(const SuiteMatrix& m, double us) {
  return 2.0 * static_cast<double>(m.a.nnz()) / (us * 1e3);
}

/// Suite geomean GF/s from per-matrix median call times, so every
/// structure class counts equally.
double geomean_gflops(const std::vector<SuiteMatrix>& ms, const std::vector<double>& us) {
  std::vector<double> g;
  for (std::size_t i = 0; i < ms.size(); ++i) g.push_back(gflops(ms[i], us[i]));
  return geomean(g);
}

/// The traced run's layer ladder over the suite: the matrices are loaded
/// into an in-process server with the workload's tuning options and
/// stepped round-robin, each with its own x, in whole rounds.
void run_ladder(const std::vector<SuiteMatrix>& ms, TraceLane& lane, unsigned seconds,
                std::uint64_t seed, Result& r) {
  Fixture f;
  f.server = std::make_unique<spmv::net::SpmvServer>();
  std::vector<std::string> names;
  for (const auto& m : ms) {
    names.push_back(slug(m.name));
    f.server->registry().put(names.back(), m.a, spmv::TuningOptions::full(kThreads));
  }
  f.start();
  for (std::size_t i = 0; i < ms.size(); ++i) {  // warm-up round
    ++r.attempted;
    if (!timed_multiply(*f.client, names[i], ms[i].x).ok) ++r.failed;
  }
  Ladder ladder(f, lane, std::move(names));
  spmv::Prng pick(seed ^ 0x5bd1e995ull);
  MeasureClock clock(seconds);
  for (std::size_t step = 0; clock.running() || step % ms.size() != 0; ++step) {
    const std::size_t i = step % ms.size();
    ladder.step(i, ms[i].a, ms[i].x, pick.next_below(kCheckOneIn) == 0, r);
  }
  ladder.add_metrics(r);
}

}  // namespace

Result run_suite_sweep(const Args& args, Tracer* tracer) {
  Result r;
  spmv::Prng rng(args.seed);
  std::vector<SuiteMatrix> ms;
  for (const auto& e : spmv::gen::suite_entries()) {
    const std::string span = "core.multiply:" + slug(e.name);
    SuiteMatrix m{e.name, tracer != nullptr ? tracer->intern(span) : "",
                  spmv::gen::generate_suite_matrix(e, kScale), {}, {}};
    m.x.resize(m.a.cols());
    for (double& v : m.x) v = 2.0 * rng.next_double() - 1.0;
    m.y.assign(m.a.rows(), 0.0);
    ms.push_back(std::move(m));
  }

  // Set-up: plan the whole suite; the last planning is the one measured.
  std::vector<double> setup_s;
  std::vector<spmv::TunedMatrix> plans;
  for (int k = 0; k < (tracer != nullptr ? 1 : kSetupRepeats); ++k) {
    plans.clear();
    const std::int64_t t0 = now_ns();
    plans = plan_all(ms, kThreads);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  std::uint64_t tuned_bytes = 0, nnz = 0, sweep_bytes = 0;
  double plan_s = 0.0;
  std::printf("%-16s %9s %10s %10s %9s\n", "matrix", "rows", "nnz",
              "tuned_MiB", "prefetch");
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const auto& rep = plans[i].report();
    tuned_bytes += rep.tuned_bytes;
    nnz += rep.nnz;
    plan_s += rep.plan_seconds;
    sweep_bytes += compulsory_bytes(rep);
    std::printf("%-16s %9u %10llu %10.2f %9u\n", ms[i].name.c_str(), rep.rows,
                static_cast<unsigned long long>(rep.nnz),
                static_cast<double>(rep.tuned_bytes) / (1 << 20),
                rep.prefetch_distance);
    if (tracer != nullptr) tracer->note("plan:" + ms[i].name, rep.summary());
  }
  std::printf("cache: L2 %zu KiB per core, L3 %zu MiB shared\n",
              spmv::host_info().l2_bytes >> 10, l3_bytes() >> 20);

  double worst_err = 0.0;
  verify_all(plans, ms, r, worst_err);

  // Warm-up: two sweeps fill caches and finish lazy pool growth.
  for (int w = 0; w < 2; ++w)
    for (std::size_t i = 0; i < ms.size(); ++i) plans[i].multiply(ms[i].x, ms[i].y);

  TraceLane* lane = tracer != nullptr ? &tracer->lane() : nullptr;
  const auto seconds = static_cast<unsigned>(args.seconds);
  // The traced run splits its time: half for the sweeps, a fifth for the
  // 1-thread plans and the rest for the layer ladder.
  MeasureClock clock(tracer != nullptr ? seconds * 5 / 10 : seconds);
  NoiseProbe noise;
  noise.start();
  const SweepTimes t = sweep(plans, ms, clock, r, lane);
  noise.stop();
  verify_all(plans, ms, r, worst_err);
  clock.report(r);

  const auto untraced_us = call_us(t.untraced, clock, 0.5);
  const double untraced_gflops = geomean_gflops(ms, untraced_us);
  r.add_info("samples.sweeps", static_cast<double>(t.sweeps), "count");
  if (tracer == nullptr) {
    r.add_info("check.max_rel_err", worst_err, "frac");
    r.add("setup_s", median(setup_s), "s");
    r.add("peak_rss_mb", peak_rss_mib(), "MiB");
    r.add("gflops", untraced_gflops, "GF/s");
    // A multiply is this workload's request.
    const double p50 = geomean(untraced_us);
    r.add("p50_us", p50, "us");
    r.add("p90_us", geomean(call_us(t.untraced, clock, 0.9)), "us");
    r.add("ops_s", 1e6 / p50, "1/s");
    add_noise(r, noise, t.calls, false);
    return r;
  }

  // Traced run: per-matrix rates from the traced sweeps (the spans' times).
  const auto traced_us = call_us(t.traced, clock, 0.5);
  double sweep_s = 0.0;
  for (std::size_t i = 0; i < ms.size(); ++i) {
    r.add_info("core.gflops." + slug(ms[i].name), gflops(ms[i], traced_us[i]), "GF/s");
    sweep_s += untraced_us[i] * 1e-6;
  }
  const double traced_gflops = geomean_gflops(ms, traced_us);
  r.add("core.gflops", traced_gflops, "GF/s");
  plans.clear();

  auto plans_1t = plan_all(ms, 1);
  verify_all(plans_1t, ms, r, worst_err);
  MeasureClock clock_1t(seconds * 2 / 10);
  const SweepTimes t1 = sweep(plans_1t, ms, clock_1t, r, nullptr);
  const double gflops_1t = geomean_gflops(ms, call_us(t1.untraced, clock_1t, 0.5));
  plans_1t.clear();
  r.add("core.gflops_1t", gflops_1t, "GF/s");

  run_ladder(ms, *lane, seconds * 3 / 10, args.seed, r);

  r.add("core.bytes_per_nnz",
        static_cast<double>(tuned_bytes) / static_cast<double>(nnz), "B/nnz");
  // Above 1 means the matrices streamed from L3 rather than DRAM.
  r.add("core.stream_frac", static_cast<double>(sweep_bytes) / sweep_s / stream_roof(),
        "frac");
  r.add("core.plan_s", plan_s, "s");
  add_dispatch_metrics(r);
  r.add("engine.scaling", untraced_gflops / gflops_1t, "x");
  r.add("trace.overhead_frac", untraced_gflops / traced_gflops - 1.0, "frac");
  add_noise(r, noise, t.calls, true);
  r.add_info("check.max_rel_err", worst_err, "frac");
  return r;
}

}  // namespace perfbench
