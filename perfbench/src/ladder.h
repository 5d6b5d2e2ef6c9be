// The layer ladder of a traced run: one x through core, serve and net in
// turn, on matrices an in-process SpmvServer holds.
//
//   core   registry().find(name)->plan.multiply(x, y)
//   serve  scheduler().submit(entry, x, y).get()
//   net    client.multiply(name, x)
//
// Each step records a "step" span with one child span per rung, and the
// three ys must agree bit for bit.  A layer's self time is its rung minus
// the rung below.  Both workloads run the ladder in their traced run, so
// every per-layer metric is measured on the workload's own matrices.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common.h"
#include "net/client.h"
#include "net/server.h"

namespace perfbench {

/// One client-observed multiply: status, reply and timestamps.
struct Call {
  bool ok = false;
  std::vector<double> y;
  std::int64_t t0 = 0, t1 = 0;
  [[nodiscard]] double us() const { return static_cast<double>(t1 - t0) * 1e-3; }
};

Call timed_multiply(spmv::net::SpmvNetClient& client, const std::string& name,
                    std::span<const double> x);

/// A server with the default ServerConfig and one client connected to it.
struct Fixture {
  std::unique_ptr<spmv::net::SpmvServer> server;
  std::unique_ptr<spmv::net::SpmvNetClient> client;  ///< closes before the server

  /// Starts the constructed `server` and connects a new client to it
  /// (HELLO done).
  void start();
};

class Ladder {
 public:
  /// `names` are the matrices the server's registry holds; the ladder
  /// reads the scheduler's stats and the client's counters from here on.
  Ladder(Fixture& f, TraceLane& lane, std::vector<std::string> names);

  /// A plain client call on matrix `i`, counted towards the net byte
  /// rates but not a ladder step.
  Call call(std::size_t i, std::span<const double> x);
  /// One ladder step on matrix `i`.  Failed rungs count as failed and rungs
  /// that differ as wrong; with `check`, the core rung's y must also match
  /// the naive reference of `a`.  Returns the net rung.
  Call step(std::size_t i, const spmv::CsrMatrix& a, std::span<const double> x,
            bool check, Result& r);

  /// Per matrix, the median of each rung; over matrices, their geometric
  /// mean.  Requires at least one step on every matrix.
  [[nodiscard]] double core_us() const { return geomean_median(core_us_); }
  [[nodiscard]] double serve_us() const { return geomean_median(serve_us_); }
  [[nodiscard]] double net_us() const { return geomean_median(net_us_); }

  /// core.multiply_us, serve.submit_us, serve.self_us, serve.queue_us,
  /// serve.dispatch_us, net.rpc_us, net.self_us, net.req_bytes_per_op and
  /// net.reply_bytes_per_op; failure counts and batch widths as info.
  void add_metrics(Result& r) const;

 private:
  static double geomean_median(const std::vector<std::vector<double>>& us);

  Fixture& f_;
  TraceLane& lane_;
  std::vector<std::string> names_;
  std::vector<spmv::serve::MatrixStatsSnapshot> stats0_;
  spmv::net::SpmvNetClient::Counters counters0_;
  std::uint64_t calls_ = 0, calls_failed_ = 0, steps_ = 0;
  std::vector<std::vector<double>> core_us_, serve_us_, net_us_;
  std::vector<double> y_core_, y_serve_;
};

}  // namespace perfbench
