#include "serve/serve_stats.h"

#include <algorithm>
#include <bit>

namespace spmv::serve {

void LatencyHistogram::record_ns(std::uint64_t ns) {
  const std::uint64_t us = ns / 1000;
  const std::size_t bucket =
      us == 0 ? 0
              : std::min<std::size_t>(std::bit_width(us) - 1, kBuckets - 1);
  buckets[bucket].add();
  count.add();
  total_ns.add(ns);
}

double LatencyHistogram::mean_us() const {
  const std::uint64_t n = count;
  return n == 0 ? 0.0
                : static_cast<double>(total_ns) / 1000.0 /
                      static_cast<double>(n);
}

double LatencyHistogram::quantile_us(double q) const {
  const std::uint64_t n = count;
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(n - 1));  // 0-based sample index
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += buckets[b];
    if (seen > rank) return static_cast<double>(std::uint64_t{2} << b);
  }
  return static_cast<double>(std::uint64_t{2} << (kBuckets - 1));
}

void CountHistogram::record(std::uint64_t n) {
  const std::size_t bucket =
      n <= 1 ? 0 : std::min<std::size_t>(std::bit_width(n) - 1, kBuckets - 1);
  buckets[bucket].add();
  count.add();
  total.add(n);
}

double CountHistogram::mean() const {
  const std::uint64_t n = count;
  return n == 0 ? 0.0 : static_cast<double>(total) / static_cast<double>(n);
}

std::uint64_t CountHistogram::quantile(double q) const {
  const std::uint64_t n = count;
  if (n == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(n - 1));  // 0-based sample index
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += buckets[b];
    if (seen > rank) return b == 0 ? 1 : (std::uint64_t{2} << b) - 1;
  }
  return (std::uint64_t{2} << (kBuckets - 1)) - 1;
}

void MatrixServeStats::record_batch(std::uint64_t width) {
  batches_dispatched.add();
  rhs_dispatched.add(width);
  max_batch_width.raise_to(width);
}

double MatrixServeStats::mean_batch_width() const {
  const std::uint64_t batches = batches_dispatched;
  return batches == 0 ? 1.0
                      : static_cast<double>(rhs_dispatched) /
                            static_cast<double>(batches);
}

const MatrixStatsSnapshot* ServeStatsSnapshot::find(
    const std::string& name) const& {
  for (const MatrixStatsSnapshot& m : matrices) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

double ServeStatsSnapshot::mean_batch_width() const {
  std::uint64_t batches = 0, rhs = 0;
  for (const MatrixStatsSnapshot& m : matrices) {
    batches += m.batches_dispatched;
    rhs += m.rhs_dispatched;
  }
  return batches == 0 ? 1.0
                      : static_cast<double>(rhs) / static_cast<double>(batches);
}

std::uint64_t ServeStatsSnapshot::total_completed() const {
  std::uint64_t n = 0;
  for (const MatrixStatsSnapshot& m : matrices) n += m.requests_completed;
  return n;
}

std::shared_ptr<MatrixCell> ServeStats::cell(const std::string& name) {
  MutexLock lock(mutex_);
  auto it = cells_.find(name);
  if (it == cells_.end()) {
    it = cells_.emplace(name, std::make_shared<MatrixCell>()).first;
  }
  return it->second;
}

ServeStatsSnapshot ServeStats::snapshot() const {
  ServeStatsSnapshot out;
  out.unknown_matrix_rejected = unknown_matrix_rejected_;
  MutexLock lock(mutex_);
  out.matrices.reserve(cells_.size());
  for (const auto& [name, cell] : cells_) {
    out.matrices.push_back({*cell, name});
  }
  return out;
}

}  // namespace spmv::serve
