// MatrixRegistry: named, refcounted, hot-swappable tuned matrices.
//
// A serving process tunes each matrix once (planning itself already runs
// its NUMA-aware encoding on the shared engine pool) and then shares the
// immutable plan across every client and dispatcher thread.  Entries are published as shared_ptr<const Entry>:
// lookup pins the plan, so replace()/erase() never destroy a plan under an
// in-flight request — the old version is retired when its last pin drops.
// The plan recycles its own scratch, so batched dispatches stay
// allocation-free in steady state.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/tuned_matrix.h"
#include "util/thread_annotations.h"

namespace spmv::serve {

class MatrixRegistry {
 public:
  /// One published version of one named matrix.  Immutable after publish.
  struct Entry {
    Entry(std::string name_, std::uint64_t version_, TunedMatrix plan_)
        : name(std::move(name_)),
          version(version_),
          plan(std::move(plan_)) {}

    std::string name;
    std::uint64_t version;  ///< unique across the registry, monotonic
    TunedMatrix plan;
  };
  using EntryPtr = std::shared_ptr<const Entry>;

  /// Tune `m` under `opt` and publish it as `name`, replacing any existing
  /// entry (the old version stays alive for holders that already pinned
  /// it).  Returns the published entry.  Tuning runs on the caller, and
  /// lookups see the entry only once tuning finished; a tuning error
  /// propagates and publishes nothing.  Concurrent puts on one name are
  /// safe — last publish wins, versions stay monotonic.  To tune while
  /// traffic flows, call put() from a thread of the caller's own (the
  /// network server runs uploads on its control thread).
  EntryPtr put(const std::string& name, const CsrMatrix& m,
               const TuningOptions& opt = {});

  MatrixRegistry() = default;
  MatrixRegistry(const MatrixRegistry&) = delete;
  MatrixRegistry& operator=(const MatrixRegistry&) = delete;

  /// The current entry for `name`, or nullptr.  The returned pin keeps the
  /// plan alive regardless of later replace/erase.
  [[nodiscard]] EntryPtr find(const std::string& name) const
      SPMV_EXCLUDES(mutex_);

  /// Retire `name` (current pins stay valid).  False when absent.
  bool erase(const std::string& name) SPMV_EXCLUDES(mutex_);

  [[nodiscard]] std::vector<std::string> names() const SPMV_EXCLUDES(mutex_);
  [[nodiscard]] std::size_t size() const SPMV_EXCLUDES(mutex_);

 private:
  EntryPtr publish(std::string name, TunedMatrix plan) SPMV_EXCLUDES(mutex_);

  mutable Mutex mutex_;
  std::map<std::string, EntryPtr> entries_ SPMV_GUARDED_BY(mutex_);
  std::uint64_t next_version_ SPMV_GUARDED_BY(mutex_) = 1;
};

}  // namespace spmv::serve
