#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>

#include "core/kernels_csr.h"
#include "core/thread_pool.h"
#include "engine/execution_context.h"
#include "util/aligned.h"
#include "util/cpu.h"

namespace perfbench {

std::int64_t now_ns() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::logic_error("quantile of no samples");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  if (std::isinf(v[hi])) return v[hi];
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double geomean(const std::vector<double>& v) {
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

void Windows::add(std::int64_t t_ns, double latency_us, bool ok) {
  if (t_ns < start_ns_) return;
  const auto w = static_cast<std::size_t>((t_ns - start_ns_) / 1'000'000'000);
  if (w >= counts_.size()) {
    counts_.resize(w + 1);
    latency_us_.resize(w + 1);
  }
  latency_us_[w].push_back(latency_us);
  if (ok) ++counts_[w];
}

double Windows::rate(const std::vector<std::size_t>& use) const {
  std::vector<double> rates;
  for (std::size_t w : use)
    rates.push_back(w < counts_.size() ? static_cast<double>(counts_[w]) : 0.0);
  return trimmed_mean(std::move(rates));
}

double Windows::latency(double q, const std::vector<std::size_t>& use) const {
  std::vector<double> per_window;
  for (std::size_t w : use) {
    if (w < latency_us_.size() && !latency_us_[w].empty())
      per_window.push_back(quantile(latency_us_[w], q));
  }
  return trimmed_mean(std::move(per_window));
}

std::size_t Windows::samples() const {
  std::size_t n = 0;
  for (const auto& v : latency_us_) n += v.size();
  return n;
}

double trimmed_mean(std::vector<double> v) {
  if (v.empty()) throw std::logic_error("trimmed mean of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 10;
  double sum = 0.0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

namespace {

/// Steal and total jiffies of the aggregate "cpu" line of /proc/stat.
void read_proc_stat(std::uint64_t& steal, std::uint64_t& total) {
  steal = total = 0;
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  if (label != "cpu") return;
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user and nice).
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) return;
    total += v;
    if (field == 7) steal = v;
  }
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

void NoiseProbe::start() {
  read_proc_stat(steal0_, total0_);
  cpu0_ = process_cpu_seconds();
}

void NoiseProbe::stop() {
  read_proc_stat(steal1_, total1_);
  cpu_s_ = process_cpu_seconds() - cpu0_;
}

double NoiseProbe::steal_frac() const {
  if (total1_ <= total0_) return 0.0;
  return static_cast<double>(steal1_ - steal0_) /
         static_cast<double>(total1_ - total0_);
}

MeasureClock::MeasureClock(unsigned want)
    : want_(std::max(want, 1u)), start_ns_(now_ns()) {
  read_proc_stat(steal_jiffies_, total_jiffies_);
}

bool MeasureClock::running() {
  if (!used_.empty()) return false;
  const std::int64_t now = now_ns();
  const auto passed = static_cast<std::size_t>((now - start_ns_) / 1'000'000'000);
  if (passed <= steal_.size()) return true;
  std::uint64_t steal = 0, total = 0;
  read_proc_stat(steal, total);
  const double share = total > total_jiffies_
                           ? static_cast<double>(steal - steal_jiffies_) /
                                 static_cast<double>(total - total_jiffies_)
                           : 0.0;
  steal_.resize(passed, share);  // a late call spreads one sample over the gap
  steal_jiffies_ = steal;
  total_jiffies_ = total;
  const auto calm = static_cast<std::size_t>(std::count_if(
      steal_.begin(), steal_.end(), [](double s) { return s <= kCalmSteal; }));
  if (calm < want_ && steal_.size() < 2 * std::size_t{want_}) return true;
  // Done: keep the `want_` least-stolen windows.
  std::vector<std::size_t> order(steal_.size());
  for (std::size_t w = 0; w < order.size(); ++w) order[w] = w;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return steal_[a] < steal_[b]; });
  used_.assign(order.begin(), order.begin() + std::min<std::size_t>(want_, order.size()));
  std::sort(used_.begin(), used_.end());
  return false;
}

void MeasureClock::report(Result& r) const {
  double steal = 0.0;
  for (std::size_t w : used_) steal += steal_[w];
  r.add_info("windows.measured", static_cast<double>(steal_.size()), "count");
  r.add_info("windows.used", static_cast<double>(used_.size()), "count");
  r.add_info("host.used_steal_frac",
             used_.empty() ? 0.0 : steal / static_cast<double>(used_.size()), "frac");
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::size_t l3_bytes() {
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    std::ifstream level_in(dir + "/level");
    int level = 0;
    if (!(level_in >> level)) break;
    if (level != 3) continue;
    std::ifstream size_in(dir + "/size");
    std::size_t size = 0;
    char suffix = 0;
    if (!(size_in >> size)) return 0;
    size_in >> suffix;
    if (suffix == 'K') size <<= 10;
    if (suffix == 'M') size <<= 20;
    return size;
  }
  return 0;
}

std::string host_stamp_json() {
  const auto& h = spmv::host_info();
  std::ostringstream os;
  os << "{\"cpu\": \"" << json_escape(h.vendor)
     << "\", \"logical_cpus\": " << h.logical_cpus << ", \"simd\": \""
     << (h.has_avx2 ? "avx2 " : "") << (h.has_fma ? "fma " : "")
     << (h.has_avx512f ? "avx512f" : "") << "\", \"l2_bytes\": " << h.l2_bytes
     << ", \"l3_bytes\": " << l3_bytes() << "}";
  return os.str();
}

double max_rel_err(const spmv::CsrMatrix& a, std::span<const double> x,
                   std::span<const double> y, std::span<const double> ref) {
  const auto row_ptr = a.row_ptr();
  const auto col_idx = a.col_idx();
  const auto values = a.values();
  double worst = 0.0;
  for (std::uint32_t r = 0; r < a.rows(); ++r) {
    double abs_sum = 0.0;
    for (std::uint64_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k)
      abs_sum += std::fabs(values[k] * x[col_idx[k]]);
    const double diff = std::fabs(y[r] - ref[r]);
    double err = 0.0;
    if (std::isnan(diff)) {
      err = std::numeric_limits<double>::infinity();
    } else if (abs_sum > 0.0) {
      err = diff / abs_sum;
    } else if (diff > 0.0) {
      err = std::numeric_limits<double>::infinity();
    }
    worst = std::max(worst, err);
  }
  return worst;
}

std::vector<double> reference_multiply(const spmv::CsrMatrix& a,
                                       std::span<const double> x) {
  std::vector<double> y(a.rows(), 0.0);
  spmv::spmv_csr_naive(a, x.data(), y.data());
  return y;
}

std::string slug(const std::string& name) {
  std::string out;
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else if (!out.empty() && out.back() != '-') {
      out += '-';
    }
  }
  return out;
}

TraceLane& Tracer::lane() {
  lanes_.push_back(
      std::make_unique<TraceLane>(static_cast<unsigned>(lanes_.size()) + 1));
  return *lanes_.back();
}

const char* Tracer::intern(std::string name) {
  return names_.emplace_back(std::move(name)).c_str();
}

void Tracer::note(std::string key, std::string text) {
  notes_.emplace_back(std::move(key), std::move(text));
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"notes\": {";
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    out << (i ? ",\n" : "\n") << "\"" << json_escape(notes_[i].first)
        << "\": \"" << json_escape(notes_[i].second) << "\"";
  }
  out << "},\n\"span_fields\": [\"name\", \"id\", \"parent\", \"request\", "
         "\"start_ns\", \"end_ns\"],\n\"spans\": [";
  bool first = true;
  for (const auto& lane : lanes_) {
    for (const Span& s : lane->spans()) {
      out << (first ? "\n" : ",\n") << "[\"" << s.name << "\", " << s.id
          << ", " << s.parent << ", " << s.request << ", " << s.start_ns
          << ", " << s.end_ns << "]";
      first = false;
    }
  }
  out << "]}\n";
}

void add_noise(Result& r, const NoiseProbe& probe, std::uint64_t ops, bool traced) {
  const double cpu_us = probe.cpu_seconds() * 1e6 /
                        static_cast<double>(std::max<std::uint64_t>(ops, 1));
  if (traced) {
    r.add("host.steal_frac", probe.steal_frac(), "frac");
    r.add("proc.cpu_us_per_op", cpu_us, "us");
  } else {
    r.add_info("host.steal_frac", probe.steal_frac(), "frac");
    r.add_info("proc.cpu_us_per_op", cpu_us, "us");
  }
}

namespace {

/// The suite's thread count, used for the dispatch and triad probes.
constexpr unsigned kProbeThreads = 2;

/// STREAM triad a = b + 3c at `threads` threads, best of 5 (as
/// bench_stream), with each array `elems` doubles.  Returns bytes/s.
double triad_bytes_per_s(std::size_t elems, unsigned threads) {
  spmv::AlignedBuffer<double> a(elems, spmv::kPageBytes);
  spmv::AlignedBuffer<double> b(elems, spmv::kPageBytes);
  spmv::AlignedBuffer<double> c(elems, spmv::kPageBytes);
  spmv::ThreadPool pool(threads, /*pin=*/true);
  const std::size_t chunk = elems / threads;
  auto range = [&](unsigned tid, auto&& f) {
    const std::size_t lo = tid * chunk;
    const std::size_t hi = tid + 1 == threads ? elems : lo + chunk;
    f(lo, hi);
  };
  // First touch on the workers that will stream each chunk.
  pool.run([&](unsigned tid) {
    range(tid, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        a[i] = 0.0;
        b[i] = 1.0;
        c[i] = 2.0;
      }
    });
  });
  double best = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const std::int64_t t0 = now_ns();
    pool.run([&](unsigned tid) {
      range(tid, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + 3.0 * c[i];
      });
    });
    const double s = static_cast<double>(now_ns() - t0) * 1e-9;
    best = std::max(best, 24.0 * static_cast<double>(elems) / s);
  }
  return best;
}

/// Median µs of an empty parallel_for at `threads` on a private context.
double empty_dispatch_us(unsigned threads) {
  spmv::engine::ExecutionContext ctx;
  const std::function<void(unsigned)> nop = [](unsigned) {};
  for (int i = 0; i < 200; ++i) ctx.parallel_for(threads, nop);
  std::vector<double> us;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t t0 = now_ns();
    ctx.parallel_for(threads, nop);
    us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  return median(std::move(us));
}

}  // namespace

void add_dispatch_metrics(Result& r) {
  r.add("engine.dispatch_us", empty_dispatch_us(kProbeThreads), "us");
  r.add("engine.dispatch_us_4t", empty_dispatch_us(spmv::host_info().logical_cpus),
        "us");
}

std::uint64_t compulsory_bytes(const spmv::TuningReport& rep) {
  return rep.tuned_bytes + 8ull * rep.cols + 16ull * rep.rows;
}

double stream_roof() {
  const std::size_t l3 = l3_bytes();
  const std::size_t elems = (l3 != 0 ? 4 * l3 : std::size_t{1} << 30) / sizeof(double);
  const double roof = triad_bytes_per_s(elems, kProbeThreads);
  std::printf("triad: 3 arrays x %.0f MiB (4x the %zu MiB L3), %u threads: %.2f GB/s\n",
              static_cast<double>(elems * sizeof(double)) / (1 << 20), l3 >> 20,
              kProbeThreads, roof * 1e-9);
  return roof;
}

}  // namespace perfbench
