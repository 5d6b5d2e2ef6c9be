// Serving telemetry: per-matrix request/batch counters and latency
// histograms, updated lock-free on the hot path and exported as plain
// snapshot structs.
//
// The scheduler's whole value proposition — coalescing concurrent requests
// into wide batched dispatches — is only credible if it can be measured, so
// every submit/dispatch/completion records into a MatrixServeStats cell:
// achieved batch width (the request-level analogue of the paper's
// dispatch-amortization argument), queue latency (submit → dispatch start,
// the price of lingering for a fuller batch), and dispatch latency (the
// batched multiply itself).  Cells are shared_ptr-held so a snapshot or an
// in-flight request can outlive registry replacement, and all counters are
// relaxed atomics — stats never serialize the data path.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serve/health.h"
#include "util/thread_annotations.h"

namespace spmv::serve {

/// Lock-free power-of-two latency histogram.  Bucket b counts samples in
/// [2^b, 2^(b+1)) microseconds (bucket 0 additionally holds sub-µs
/// samples); the top bucket is open-ended.  Good to ~2.2 hours, which is
/// plenty for queue/dispatch latencies.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 33;

  void record_ns(std::uint64_t ns);

  struct Snapshot {
    std::array<std::uint64_t, kBuckets> buckets{};
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;

    [[nodiscard]] double mean_us() const;
    /// Upper edge (µs) of the bucket holding the q-quantile sample,
    /// q in [0,1]; 0 when empty.  Bucket resolution: factor-of-2.
    [[nodiscard]] double quantile_us(double q) const;
  };
  [[nodiscard]] Snapshot snapshot() const;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> total_ns_{0};
};

/// Lock-free power-of-two count histogram for small integer samples
/// (batch widths, queue depths).  Bucket 0 counts samples of 0 and 1;
/// bucket b >= 1 counts samples in [2^b, 2^(b+1)); the top bucket is
/// open-ended.  16 doubling buckets cover depths past 64K — far beyond
/// any configured queue_capacity or max_batch.
class CountHistogram {
 public:
  static constexpr std::size_t kBuckets = 17;

  void record(std::uint64_t n);

  struct Snapshot {
    std::array<std::uint64_t, kBuckets> buckets{};
    std::uint64_t count = 0;
    std::uint64_t total = 0;

    [[nodiscard]] double mean() const;
    /// Upper edge of the bucket holding the q-quantile sample, q in
    /// [0,1]; 0 when empty.  Bucket resolution: factor-of-2.
    [[nodiscard]] std::uint64_t quantile(double q) const;
  };
  [[nodiscard]] Snapshot snapshot() const;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> total_{0};
};

/// Scheduler-wide data-plane telemetry (not per-matrix): how the queue,
/// the dispatcher and admission control are behaving.  All relaxed
/// atomics — recording never serializes the data path.
struct DataPlaneStats {
  /// Times the dispatcher went to sleep waiting for work (including
  /// linger-window waits).
  std::atomic<std::uint64_t> dispatcher_sleeps{0};
  /// Requests rejected by kShed admission control (overload shedding or a
  /// deadline the latency EWMA already overran).
  std::atomic<std::uint64_t> requests_shed{0};
  /// Requests resolved kDeadlineExceeded without executing (at the door
  /// or swept out of the queue or a batch pre-dispatch).
  std::atomic<std::uint64_t> requests_expired{0};
  /// Requests resolved kCancelled via their CancelToken pre-dispatch.
  std::atomic<std::uint64_t> requests_cancelled{0};
  /// Linger windows entered, and those that added at least one request
  /// to their batch: the ratio is how often waiting for company paid.
  std::atomic<std::uint64_t> lingers{0};
  std::atomic<std::uint64_t> lingers_widened{0};
  CountHistogram batch_width;  ///< width of every dispatched batch
  CountHistogram queue_depth;  ///< total queued depth sampled at submit
};

/// Plain-data export of DataPlaneStats plus the detector and watchdog
/// state.
struct DataPlaneSnapshot {
  std::uint64_t dispatcher_sleeps = 0;
  std::uint64_t requests_shed = 0;
  std::uint64_t requests_expired = 0;
  std::uint64_t requests_cancelled = 0;
  std::uint64_t lingers = 0;
  std::uint64_t lingers_widened = 0;
  /// Overload detector (serve/health.h) at snapshot time.
  HealthState health_state = HealthState::kOk;
  std::uint64_t overload_transitions = 0;
  std::uint64_t ewma_queue_latency_us = 0;
  /// Stalled-dispatcher watchdog at snapshot time (0 or 1).
  std::uint64_t stalled_dispatchers = 0;
  std::uint64_t stall_events = 0;
  /// Total fault-point fires (0 unless built -DSPMV_FAULT_INJECTION=ON).
  std::uint64_t faults_fired = 0;
  CountHistogram::Snapshot batch_width;
  CountHistogram::Snapshot queue_depth;
};

/// One matrix id's serving counters.  Thread-safe; shared between the
/// scheduler, in-flight requests, and snapshots.
struct MatrixServeStats {
  std::atomic<std::uint64_t> requests_submitted{0};
  std::atomic<std::uint64_t> requests_completed{0};
  std::atomic<std::uint64_t> requests_failed{0};   ///< resolved with an error
  std::atomic<std::uint64_t> requests_rejected{0};  ///< failed before enqueue
  std::atomic<std::uint64_t> batches_dispatched{0};
  std::atomic<std::uint64_t> rhs_dispatched{0};  ///< Σ batch widths
  std::atomic<std::uint64_t> max_batch_width{0};
  LatencyHistogram queue_latency;     ///< submit → dispatch start
  LatencyHistogram dispatch_latency;  ///< batched multiply duration
  /// Consecutive linger windows that ended no wider than they began: the
  /// scheduler's per-matrix linger gate (see Scheduler::build_batch).
  std::atomic<std::uint32_t> linger_misses{0};
  /// Batches of this matrix between dispatch start and the first promise
  /// they resolve; a request submitted while it is nonzero re-arms the
  /// linger gate.
  std::atomic<std::uint32_t> batches_executing{0};

  void record_batch(std::uint64_t width);
};

/// Plain-data export of one matrix's stats.
struct MatrixStatsSnapshot {
  std::string name;
  std::uint64_t requests_submitted = 0;
  std::uint64_t requests_completed = 0;
  std::uint64_t requests_failed = 0;
  std::uint64_t requests_rejected = 0;
  std::uint64_t batches_dispatched = 0;
  std::uint64_t rhs_dispatched = 0;
  std::uint64_t max_batch_width = 0;
  LatencyHistogram::Snapshot queue_latency;
  LatencyHistogram::Snapshot dispatch_latency;

  /// Achieved mean coalescing width; 1.0 when nothing dispatched yet.
  [[nodiscard]] double mean_batch_width() const;
};

struct ServeStatsSnapshot {
  std::vector<MatrixStatsSnapshot> matrices;  ///< sorted by name
  /// Data-plane telemetry (filled by Scheduler::stats()).
  DataPlaneSnapshot data_plane;
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

/// The scheduler-owned stats registry: one MatrixServeStats cell per matrix
/// id, created on first touch and aggregated across registry replacements
/// of the same id (serving continuity outlives any one plan version).
class ServeStats {
 public:
  /// The cell for `name`, creating it if needed.  The returned pointer is
  /// stable and safe to hold across registry mutations.  Only call with
  /// names that exist in the registry (cells live forever) — unknown-name
  /// rejections go through record_unknown_matrix() instead.
  std::shared_ptr<MatrixServeStats> cell(const std::string& name)
      SPMV_EXCLUDES(mutex_);

  /// Count a submit() against a never-registered name.
  void record_unknown_matrix() {
    unknown_matrix_rejected_.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] ServeStatsSnapshot snapshot() const SPMV_EXCLUDES(mutex_);

 private:
  mutable Mutex mutex_;
  std::map<std::string, std::shared_ptr<MatrixServeStats>> cells_
      SPMV_GUARDED_BY(mutex_);
  std::atomic<std::uint64_t> unknown_matrix_rejected_{0};
};

}  // namespace spmv::serve
