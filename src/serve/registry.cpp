#include "serve/registry.h"

#include <stdexcept>
#include <utility>

#include "util/fault_point.h"

namespace spmv::serve {

namespace {

/// Tuning with the registry's fault points applied: injected planning
/// latency (a slow tune) and injected planning failure (which must
/// propagate to the caller and leave no half-registered entry —
/// regression-tested in tests/test_fault_inject.cpp).
TunedMatrix tuned_plan(const CsrMatrix& m, const TuningOptions& opt) {
  SPMV_FAULT_DELAY("registry.tune_slow");
  SPMV_FAULT_THROW("registry.tune_fail", std::runtime_error,
                   "registry: injected tuning failure");
  return TunedMatrix::plan(m, opt);
}

}  // namespace

MatrixRegistry::EntryPtr MatrixRegistry::publish(std::string name,
                                                 TunedMatrix plan) {
  MutexLock lock(mutex_);
  auto entry = std::make_shared<Entry>(name, next_version_++, std::move(plan));
  entries_[std::move(name)] = entry;
  return entry;
}

MatrixRegistry::EntryPtr MatrixRegistry::put(const std::string& name,
                                             const CsrMatrix& m,
                                             const TuningOptions& opt) {
  // Tune outside the lock: planning is the expensive part and must not
  // serialize lookups or other publishes.
  return publish(name, tuned_plan(m, opt));
}

MatrixRegistry::EntryPtr MatrixRegistry::find(const std::string& name) const {
  MutexLock lock(mutex_);
  const auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : it->second;
}

bool MatrixRegistry::erase(const std::string& name) {
  MutexLock lock(mutex_);
  return entries_.erase(name) != 0;
}

std::vector<std::string> MatrixRegistry::names() const {
  MutexLock lock(mutex_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(name);
  return out;
}

std::size_t MatrixRegistry::size() const {
  MutexLock lock(mutex_);
  return entries_.size();
}

}  // namespace spmv::serve
