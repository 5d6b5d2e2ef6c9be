// Shared pieces of spmv_perfbench: run arguments, sample statistics,
// host noise probes, the in-memory span recorder and the result record.
//
// Everything here times calls into the library from outside; nothing in
// the library is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/tuned_matrix.h"
#include "matrix/csr.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
struct Result;

/// Nanoseconds since the program started.
std::int64_t now_ns();

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_file;  ///< spans and plan summaries land here
};

/// Linear-interpolated q-quantile (q in [0,1]) of `v`; v must be non-empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
double geomean(const std::vector<double>& v);

inline constexpr double kFailedLatency = std::numeric_limits<double>::infinity();

/// Decides how long a run measures.  The run is cut into one-second
/// windows, and it measures until `want` of them had a host steal share at
/// or below kCalmSteal, or until 2·want windows have passed.  Statistics
/// use the `want` least-stolen windows.  On a shared host, steal bursts of
/// 10–18% come and go second by second and slow a run by a multiple of the
/// stolen share, which would otherwise read as a regression of the program.
class MeasureClock {
 public:
  static constexpr double kCalmSteal = 0.01;

  explicit MeasureClock(unsigned want);
  [[nodiscard]] std::int64_t start_ns() const { return start_ns_; }
  /// False once the run is done.  Samples /proc/stat at each window
  /// boundary it passes; call it often, from one thread.
  bool running();
  /// The windows statistics use, in index order.
  [[nodiscard]] const std::vector<std::size_t>& used() const { return used_; }
  /// Windows measured and used, and the mean steal share of the used ones.
  void report(Result& r) const;

 private:
  unsigned want_;
  std::int64_t start_ns_;
  std::uint64_t steal_jiffies_ = 0, total_jiffies_ = 0;
  std::vector<double> steal_;  ///< per finished window
  std::vector<std::size_t> used_;
};

/// Latency samples and completions bucketed into one-second windows from
/// `start_ns`.  Each statistic is taken per window and then averaged over
/// the used windows without the highest and lowest tenth: a stall costs
/// only its own window, and a host that flips between a fast and a slow
/// state for seconds at a time moves the result in proportion to the time
/// spent in each rather than jumping between them.
class Windows {
 public:
  explicit Windows(std::int64_t start_ns) : start_ns_(start_ns) {}
  /// A completion at `t_ns`; `ok` calls count towards the rate.
  void add(std::int64_t t_ns, double latency_us, bool ok = true);
  /// Completions per second over the windows in `use`.
  [[nodiscard]] double rate(const std::vector<std::size_t>& use) const;
  /// The q-quantile latency over the windows in `use`.
  [[nodiscard]] double latency(double q, const std::vector<std::size_t>& use) const;
  [[nodiscard]] std::size_t samples() const;

 private:
  std::int64_t start_ns_;
  std::vector<std::uint64_t> counts_;
  std::vector<std::vector<double>> latency_us_;
};

/// Mean of `v` without its highest and lowest tenth.
double trimmed_mean(std::vector<double> v);

/// Host steal share (from /proc/stat) and process CPU time (getrusage)
/// over one measurement window.
class NoiseProbe {
 public:
  void start();
  void stop();
  [[nodiscard]] double steal_frac() const;
  [[nodiscard]] double cpu_seconds() const { return cpu_s_; }

 private:
  std::uint64_t steal0_ = 0, total0_ = 0, steal1_ = 0, total1_ = 0;
  double cpu0_ = 0.0, cpu_s_ = 0.0;
};

double peak_rss_mib();
/// Last-level (L3) cache size from sysfs; 0 when unknown.
std::size_t l3_bytes();
/// One-line JSON object: CPU model, logical CPUs, SIMD flags, L2, L3.
std::string host_stamp_json();

/// y must be A·x computed by the library; ref the naive reference.  Returns
/// the largest per-row |y - ref| / Σ|a_ij·x_j| (0 for empty rows).
double max_rel_err(const spmv::CsrMatrix& a, std::span<const double> x,
                   std::span<const double> y, std::span<const double> ref);
/// Relative tolerance every checked result must meet.  Reassociating a
/// row's sum of n products moves it by at most about n·2^-53 of the row's
/// absolute sum; the widest suite row has ~2,700 entries (3e-13).
inline constexpr double kRelTol = 1e-12;

/// Naive CSR reference y = A·x.
std::vector<double> reference_multiply(const spmv::CsrMatrix& a,
                                       std::span<const double> x);

/// "FEM/Harbor" -> "fem-harbor".
std::string slug(const std::string& name);

struct Span {
  const char* name;
  std::uint64_t id;
  std::uint64_t parent;  ///< 0 for a root span
  std::uint64_t request;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

/// One thread's span buffer: spans stay in memory until Tracer::write().
class TraceLane {
 public:
  explicit TraceLane(unsigned lane) : next_id_((std::uint64_t{lane} << 40) | 1) {}
  std::uint64_t new_id() { return next_id_++; }
  void add(std::uint64_t id, const char* name, std::uint64_t parent,
           std::uint64_t request, std::int64_t start_ns, std::int64_t end_ns) {
    spans_.push_back({name, id, parent, request, start_ns, end_ns});
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint64_t next_id_;
  std::vector<Span> spans_;
};

class Tracer {
 public:
  /// A new lane; the tracer owns it.  Call from the setup thread only.
  TraceLane& lane();
  /// A span name that lives as long as the tracer.
  const char* intern(std::string name);
  void note(std::string key, std::string text);
  /// Writes every lane's spans and the notes as one JSON document.
  void write(const std::string& path) const;

 private:
  std::vector<std::unique_ptr<TraceLane>> lanes_;
  std::deque<std::string> names_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< includes `wrong`
  std::uint64_t wrong = 0;   ///< results outside kRelTol or not bit-identical
  /// Printed and emitted: the end-to-end metrics (untraced run) or the
  /// per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// Printed only: sample counts, noise diagnostics, sizes.
  std::vector<Metric> info;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void add_info(std::string name, double value, std::string unit) {
    info.push_back({std::move(name), value, std::move(unit)});
  }
  /// Counts a checked result that misses kRelTol as wrong (and failed);
  /// returns whether it passed.  The call that produced it is counted in
  /// `attempted` by the caller.
  bool check(double rel_err) {
    if (rel_err <= kRelTol) return true;
    ++failed;
    ++wrong;
    return false;
  }
};

/// host.steal_frac and proc.cpu_us_per_op over the measured window: metrics
/// of a traced run, printed diagnostics of an untraced one.
void add_noise(Result& r, const NoiseProbe& probe, std::uint64_t ops, bool traced);
/// engine.dispatch_us and engine.dispatch_us_4t: empty parallel_for on a
/// private context at the suite's 2 threads and at every logical CPU.
void add_dispatch_metrics(Result& r);

/// Computed compulsory traffic of one multiply: the encoded matrix, x once,
/// y read and written once.  Computed, not counted by the hardware.
std::uint64_t compulsory_bytes(const spmv::TuningReport& rep);
/// Bytes/s of a STREAM triad a = b + 3c at 2 threads (the suite's), best of
/// 5 as bench_stream, with each array 4x the L3; prints the sizes.
double stream_roof();

Result run_suite_sweep(const Args& args, Tracer* tracer);
Result run_rpc_solver(const Args& args, Tracer* tracer);

}  // namespace perfbench
