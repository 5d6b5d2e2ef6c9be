// Serving telemetry: per-matrix request/batch counters and latency
// histograms, updated lock-free on the hot path.
//
// The scheduler's whole value proposition — coalescing concurrent requests
// into wide batched dispatches — is only credible if it can be measured, so
// every submit/dispatch/completion records into a MatrixServeStats cell:
// achieved batch width (the request-level analogue of the paper's
// dispatch-amortization argument), queue latency (submit → dispatch start,
// the price of lingering for a fuller batch), and dispatch latency (the
// batched multiply itself).  Cells are shared_ptr-held so a snapshot or an
// in-flight request can outlive registry replacement.  Every counter is a
// util/counter.h Counter — stats never serialize the data path — so each
// stats struct here is its own snapshot: a copy holds the values it read.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serve/health.h"
#include "util/counter.h"
#include "util/thread_annotations.h"

namespace spmv::serve {

/// Lock-free power-of-two latency histogram.  Bucket b counts samples in
/// [2^b, 2^(b+1)) microseconds (bucket 0 additionally holds sub-µs
/// samples); the top bucket is open-ended.  Good to ~2.2 hours, which is
/// plenty for queue/dispatch latencies.
struct LatencyHistogram {
  static constexpr std::size_t kBuckets = 33;

  void record_ns(std::uint64_t ns);

  [[nodiscard]] double mean_us() const;
  /// Upper edge (µs) of the bucket holding the q-quantile sample,
  /// q in [0,1]; 0 when empty.  Bucket resolution: factor-of-2.
  [[nodiscard]] double quantile_us(double q) const;

  std::array<Counter, kBuckets> buckets{};
  Counter count;
  Counter total_ns;
};

/// Lock-free power-of-two count histogram for small integer samples
/// (batch widths, queue depths).  Bucket 0 counts samples of 0 and 1;
/// bucket b >= 1 counts samples in [2^b, 2^(b+1)); the top bucket is
/// open-ended.  16 doubling buckets cover depths past 64K — far beyond
/// any configured queue_capacity or max_batch.
struct CountHistogram {
  static constexpr std::size_t kBuckets = 17;

  void record(std::uint64_t n);

  [[nodiscard]] double mean() const;
  /// Upper edge of the bucket holding the q-quantile sample, q in
  /// [0,1]; 0 when empty.  Bucket resolution: factor-of-2.
  [[nodiscard]] std::uint64_t quantile(double q) const;

  std::array<Counter, kBuckets> buckets{};
  Counter count;
  Counter total;
};

/// Scheduler-wide data-plane telemetry (not per-matrix): how the queue,
/// the dispatcher and admission control are behaving.
struct DataPlaneStats {
  /// Times the dispatcher went to sleep waiting for work (including
  /// linger-window waits).
  Counter dispatcher_sleeps;
  /// Requests rejected by kShed admission control (overload shedding or a
  /// deadline the latency EWMA already overran).
  Counter requests_shed;
  /// Requests resolved kDeadlineExceeded without executing (at the door
  /// or swept out of the queue or a batch pre-dispatch).
  Counter requests_expired;
  /// Requests resolved kCancelled via their CancelToken pre-dispatch.
  Counter requests_cancelled;
  /// Linger windows entered, and those that added at least one request
  /// to their batch: the ratio is how often waiting for company paid.
  Counter lingers;
  Counter lingers_widened;
  /// Requests executed on their submitting thread (SubmitOptions::
  /// allow_inline) instead of by the dispatcher.  Each is also a 1-wide
  /// batch in batch_width and its matrix's batch counters.
  Counter inline_runs;
  CountHistogram batch_width;  ///< width of every dispatched batch
  CountHistogram queue_depth;  ///< total queued depth sampled at submit

  // Read by Scheduler::stats() into its copy; zero in the live struct.
  /// Overload detector (serve/health.h) at snapshot time.
  HealthState health_state = HealthState::kOk;
  std::uint64_t overload_transitions = 0;
  std::uint64_t ewma_queue_latency_us = 0;
  /// Total fault-point fires (0 unless built -DSPMV_FAULT_INJECTION=ON).
  std::uint64_t faults_fired = 0;
};

/// One matrix id's serving counters.
struct MatrixServeStats {
  Counter requests_submitted;
  Counter requests_completed;
  Counter requests_failed;    ///< resolved with an error
  Counter requests_rejected;  ///< failed before enqueue
  Counter batches_dispatched;
  Counter rhs_dispatched;  ///< Σ batch widths
  Counter max_batch_width;
  LatencyHistogram queue_latency;     ///< submit → dispatch start
  LatencyHistogram dispatch_latency;  ///< batched multiply duration

  void record_batch(std::uint64_t width);
  /// Achieved mean coalescing width; 1.0 when nothing dispatched yet.
  [[nodiscard]] double mean_batch_width() const;
};

/// The scheduler's per-matrix cell: the matrix's stats, plus the two words
/// of its linger gate.  Those steer scheduling rather than count, so they
/// stay raw atomics and are not part of a snapshot.  Thread-safe; shared
/// between the scheduler, in-flight requests, and snapshots.
struct MatrixCell : MatrixServeStats {
  /// Consecutive linger windows that ended no wider than they began: the
  /// scheduler's per-matrix linger gate (see Scheduler::build_batch).
  std::atomic<std::uint32_t> linger_misses{0};
  /// Batches of this matrix between dispatch start and the first member
  /// they finish; a request submitted while it is nonzero re-arms the
  /// linger gate.
  std::atomic<std::uint32_t> batches_executing{0};
};

/// One matrix's stats as copied by a snapshot.
struct MatrixStatsSnapshot : MatrixServeStats {
  std::string name;
};

struct ServeStatsSnapshot {
  std::vector<MatrixStatsSnapshot> matrices;  ///< sorted by name
  /// Data-plane telemetry (filled by Scheduler::stats()).
  DataPlaneStats data_plane;
  /// submit() calls naming a matrix that was never registered.  One
  /// aggregate counter rather than per-name cells: the names are
  /// caller-supplied and unbounded, so keying stats by them would let a
  /// typo loop (or an attacker) grow the map without limit.
  std::uint64_t unknown_matrix_rejected = 0;

  /// Lookup by matrix id; nullptr when the id never served a request.
  /// Ref-qualified: the pointer aims into this snapshot, so calling it on
  /// a temporary (`scheduler.stats().find(...)`) would dangle — bind the
  /// snapshot to a local first.
  [[nodiscard]] const MatrixStatsSnapshot* find(
      const std::string& name) const&;
  const MatrixStatsSnapshot* find(const std::string& name) const&& = delete;
  /// Aggregate mean batch width across all matrices (1.0 when idle).
  [[nodiscard]] double mean_batch_width() const;
  [[nodiscard]] std::uint64_t total_completed() const;
};

/// The scheduler-owned stats registry: one MatrixCell per matrix id,
/// created on first touch and aggregated across registry replacements of
/// the same id (serving continuity outlives any one plan version).
class ServeStats {
 public:
  /// The cell for `name`, creating it if needed.  The returned pointer is
  /// stable and safe to hold across registry mutations.  Only call with
  /// names that exist in the registry (cells live forever) — unknown-name
  /// rejections count in unknown_matrix_rejected() instead.
  std::shared_ptr<MatrixCell> cell(const std::string& name)
      SPMV_EXCLUDES(mutex_);

  /// The counter of submit() calls against a never-registered name.
  Counter& unknown_matrix_rejected() { return unknown_matrix_rejected_; }

  [[nodiscard]] ServeStatsSnapshot snapshot() const SPMV_EXCLUDES(mutex_);

 private:
  mutable Mutex mutex_;
  std::map<std::string, std::shared_ptr<MatrixCell>> cells_
      SPMV_GUARDED_BY(mutex_);
  Counter unknown_matrix_rejected_;
};

}  // namespace spmv::serve
