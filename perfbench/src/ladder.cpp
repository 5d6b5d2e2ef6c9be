#include "ladder.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>

namespace perfbench {
namespace {

using spmv::net::StatusCode;

spmv::serve::MatrixStatsSnapshot matrix_stats(spmv::net::SpmvServer& s,
                                              const std::string& name) {
  const auto snap = s.scheduler().stats();
  const auto* m = snap.find(name);
  return m != nullptr ? *m : spmv::serve::MatrixStatsSnapshot{};
}

double per(std::uint64_t num, std::uint64_t den) {
  return static_cast<double>(num) / static_cast<double>(std::max<std::uint64_t>(den, 1));
}

}  // namespace

Call timed_multiply(spmv::net::SpmvNetClient& client, const std::string& name,
                    std::span<const double> x) {
  Call c;
  c.t0 = now_ns();
  try {
    auto res = client.multiply(name, x);
    c.ok = res.status == StatusCode::kOk;
    c.y = std::move(res.y);
  } catch (const std::exception&) {
    c.ok = false;
  }
  c.t1 = now_ns();
  return c;
}

void Fixture::start() {
  server->start();
  spmv::net::ClientOptions opts;
  opts.port = server->port();
  opts.client_name = "perfbench";
  client = std::make_unique<spmv::net::SpmvNetClient>(opts);
  client->connect();
}

Ladder::Ladder(Fixture& f, TraceLane& lane, std::vector<std::string> names)
    : f_(f),
      lane_(lane),
      names_(std::move(names)),
      counters0_(f.client->counters()),
      core_us_(names_.size()),
      serve_us_(names_.size()),
      net_us_(names_.size()) {
  for (const auto& name : names_) stats0_.push_back(matrix_stats(*f_.server, name));
}

Call Ladder::call(std::size_t i, std::span<const double> x) {
  ++calls_;
  Call c = timed_multiply(*f_.client, names_[i], x);
  if (!c.ok) ++calls_failed_;
  return c;
}

Call Ladder::step(std::size_t i, const spmv::CsrMatrix& a, std::span<const double> x,
                  bool check, Result& r) {
  const auto entry = f_.server->registry().find(names_[i]);
  y_core_.assign(a.rows(), 0.0);
  y_serve_.assign(a.rows(), 0.0);
  const std::uint64_t step_id = lane_.new_id();
  const std::int64_t t0 = now_ns();
  entry->plan.multiply(x, y_core_);
  const std::int64_t t1 = now_ns();
  bool serve_ok = true;
  try {
    f_.server->scheduler().submit(entry, x, y_serve_).get();
  } catch (const std::exception&) {
    serve_ok = false;
  }
  const std::int64_t t2 = now_ns();
  const Call net = call(i, x);
  lane_.add(lane_.new_id(), "core", step_id, steps_, t0, t1);
  lane_.add(lane_.new_id(), "serve", step_id, steps_, t1, t2);
  lane_.add(lane_.new_id(), "net", step_id, steps_, net.t0, net.t1);
  lane_.add(step_id, "step", 0, steps_, t0, now_ns());
  core_us_[i].push_back(static_cast<double>(t1 - t0) * 1e-3);
  serve_us_[i].push_back(static_cast<double>(t2 - t1) * 1e-3);
  net_us_[i].push_back(net.us());

  r.attempted += 3;
  if (!serve_ok) ++r.failed;
  if (!net.ok) ++r.failed;
  Call out = net;
  if (serve_ok && net.ok) {
    // The three rungs must agree bit for bit; sampled steps must also match
    // the reference.
    const std::size_t bytes = y_core_.size() * sizeof(double);
    const bool identical = net.y.size() == y_core_.size() &&
                           std::memcmp(y_core_.data(), y_serve_.data(), bytes) == 0 &&
                           std::memcmp(y_core_.data(), net.y.data(), bytes) == 0;
    const double err = !identical ? std::numeric_limits<double>::infinity()
                       : check    ? max_rel_err(a, x, y_core_, reference_multiply(a, x))
                                  : 0.0;
    if (!r.check(err)) {
      std::printf("WRONG ladder step %llu on %s: rungs differ or miss the reference\n",
                  static_cast<unsigned long long>(steps_), names_[i].c_str());
      out.ok = false;
    }
  }
  ++steps_;
  return out;
}

double Ladder::geomean_median(const std::vector<std::vector<double>>& us) {
  std::vector<double> medians;
  for (const auto& v : us) medians.push_back(median(v));
  return geomean(medians);
}

void Ladder::add_metrics(Result& r) const {
  const double core = core_us(), serve = serve_us(), net = net_us();
  r.add("core.multiply_us", core, "us");
  r.add("serve.submit_us", serve, "us");
  r.add("serve.self_us", serve - core, "us");
  r.add("net.rpc_us", net, "us");
  r.add("net.self_us", net - serve, "us");

  // Scheduler stats summed over the ladder's matrices.  The histograms'
  // quantiles have factor-of-2 resolution, so the means are reported.
  std::uint64_t queue_ns = 0, queued = 0, dispatch_ns = 0, dispatched = 0;
  std::uint64_t rhs = 0, batches = 0, failed = 0;
  for (std::size_t i = 0; i < names_.size(); ++i) {
    const auto s1 = matrix_stats(*f_.server, names_[i]);
    const auto& s0 = stats0_[i];
    queue_ns += s1.queue_latency.total_ns - s0.queue_latency.total_ns;
    queued += s1.queue_latency.count - s0.queue_latency.count;
    dispatch_ns += s1.dispatch_latency.total_ns - s0.dispatch_latency.total_ns;
    dispatched += s1.dispatch_latency.count - s0.dispatch_latency.count;
    rhs += s1.rhs_dispatched - s0.rhs_dispatched;
    batches += s1.batches_dispatched - s0.batches_dispatched;
    failed += (s1.requests_failed - s0.requests_failed) +
              (s1.requests_rejected - s0.requests_rejected);
  }
  r.add("serve.queue_us", per(queue_ns, queued) * 1e-3, "us");
  r.add("serve.dispatch_us", per(dispatch_ns, dispatched) * 1e-3, "us");

  const auto& c0 = counters0_;
  const auto& c1 = f_.client->counters();
  r.add("net.req_bytes_per_op", per(c1.bytes_sent - c0.bytes_sent, calls_), "B");
  r.add("net.reply_bytes_per_op", per(c1.bytes_received - c0.bytes_received, calls_),
        "B");
  const auto delta = c1.delta_operands - c0.delta_operands;
  const auto operands = delta + (c1.full_operands - c0.full_operands) +
                        (c1.cached_operands - c0.cached_operands);
  r.add_info("net.delta_share", per(delta, operands), "frac");
  r.add_info("serve.batch_width", per(rhs, batches), "rhs");
  r.add_info("serve.failed", static_cast<double>(failed), "count");
  r.add_info("net.failed", static_cast<double>(calls_failed_), "count");
  r.add_info("net.retries", static_cast<double>(c1.retries - c0.retries), "count");
  r.add_info("samples.ladder_steps", static_cast<double>(steps_), "count");
}

}  // namespace perfbench
