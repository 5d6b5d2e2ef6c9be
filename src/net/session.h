// Per-client session state for the network front-end.
//
// A session begins at HELLO and survives disconnects when resumption is
// enabled: an abrupt connection loss *parks* the session (bounded by the
// server's resume deadline) and a later HELLO carrying the session's
// resume token re-attaches it.  Its *protocol* state — the cached operand
// vector deltas apply to, and the quota admission ledger — lives under a
// per-slot mutex: a resume can take over a still-attached slot whose old
// connection's I/O thread is still draining buffered frames (the server
// kills that stale connection the moment it notices the ownership
// change, but until then two threads can genuinely reach the slot), so
// no slot state may rely on single-thread ownership.  The *retry* state
// (reply-replay windows, in-flight id map) shares the same mutex — it is
// additionally reached by the thread delivering a completion for a
// connection that already died.  *Statistics* are one SessionStats of
// util/counter.h Counters: any thread adds, and a copy is the snapshot.
//
// Exactly-once effect semantics hang off the retry state: every decided
// multiply (result or terminal error) is recorded in a bounded replay
// window keyed by request id.  A retransmitted id is answered from the
// window verbatim — the multiply never re-executes.  Executed outcomes
// and pre-execution rejections (quota, shutdown, malformed, ...) are
// tracked in two separate bounded windows so a burst of rejections can
// never evict a genuinely executed result, whose retry would otherwise
// degrade from replay to kRetryUnknown.  Ids still executing answer
// kRetryPending; ids decided so long ago that their entry was evicted
// answer kRetryUnknown (the server refuses to guess).  The
// classification relies on the protocol rule that a session's multiply
// request ids are strictly increasing except for retransmissions — the
// in-tree client's monotone id counter guarantees it.
//
// This header is on lint_concurrency.py's lock-free audit list: every
// atomic operation states its memory_order and argues it in an adjacent
// comment.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "serve/serve_stats.h"
#include "util/counter.h"
#include "util/prng.h"
#include "util/thread_annotations.h"

namespace spmv::net {

/// One session's counters; a copy is its snapshot.
struct SessionStats {
  Counter requests;   ///< multiplies accepted
  Counter completed;  ///< multiplies resolved kOk
  Counter failed;     ///< multiplies resolved with any error
  Counter bytes_in;
  Counter bytes_out;
  Counter full_operands;
  Counter delta_operands;
  Counter cached_operands;
  /// Σ (dense operand bytes − bytes actually shipped) over delta/cached
  /// operands: what the delta encoding saved this session.
  Counter delta_bytes_saved;
  serve::LatencyHistogram rpc_latency;  ///< receive → reply

  /// A multiply's outcome: its count and its receive → reply latency.
  void record_outcome(bool ok, std::uint64_t rpc_ns) {
    (ok ? completed : failed).add();
    rpc_latency.record_ns(rpc_ns);
  }
};

/// Where a session is in its attach lifecycle.
enum class AttachState : std::uint8_t {
  kAttached,  ///< a live connection owns it
  kParked,    ///< connection died; waiting for resume or the reaper
  kClosed,    ///< permanently gone; late completions count as dropped
};

/// What a multiply request id means to this session right now.
enum class RetryClass : std::uint8_t {
  kNew,      ///< never seen: admit normally
  kReplay,   ///< decided and still in the replay window: resend verbatim
  kPending,  ///< still executing: answer kRetryPending
  kUnknown,  ///< decided but evicted: answer kRetryUnknown
};

/// One client's session.  The operand cache, the admission ledger, and
/// the retry state all live under `retry_mutex_` (a resume takeover can
/// put two I/O threads behind one slot for a moment — see the file
/// comment); `client_name` is written once before HELLO_OK ships, while
/// no other thread can possibly hold the resume token; `stats` may be
/// added to and read from any thread.
class ClientSlot {
 public:
  ClientSlot(std::uint64_t id, std::uint32_t quota, std::uint64_t token)
      : id(id), quota(quota), resume_token(token) {}

  ClientSlot(const ClientSlot&) = delete;
  ClientSlot& operator=(const ClientSlot&) = delete;

  const std::uint64_t id;
  const std::uint32_t quota;  ///< max in-flight multiplies
  /// Opaque proof-of-ownership a resuming HELLO must present.  Not a
  /// security boundary (the transport is plaintext); it guards against
  /// accidental cross-client resumption.
  const std::uint64_t resume_token;

  /// Written exactly once, on the fresh-session HELLO path, before the
  /// HELLO_OK carrying the resume token ships — no other thread can
  /// reach the slot yet, so this needs no guard.
  std::string client_name;

  /// The session's counters; a copy is a snapshot (see snapshot()).
  SessionStats stats;

  // --- operand cache (guarded: resume takeover can race the stale
  // connection's last buffered frames) ---

  /// The session's cached operand vector.  Copy-on-write: delta/full
  /// updates publish a fresh vector; in-flight requests keep pinning the
  /// snapshot they were submitted with.  Cleared on resume — the client
  /// re-ships full after a reconnect.
  [[nodiscard]] std::shared_ptr<const std::vector<double>> cached_x()
      SPMV_EXCLUDES(retry_mutex_) {
    MutexLock lock(retry_mutex_);
    return cached_x_;
  }
  void set_cached_x(std::shared_ptr<const std::vector<double>> x)
      SPMV_EXCLUDES(retry_mutex_) {
    MutexLock lock(retry_mutex_);
    cached_x_ = std::move(x);
  }

  // --- retry / replay state (shared with orphan-completion delivery) ---

  /// Classify a multiply request id.  On kReplay, `replay_frame` receives
  /// a copy of the recorded reply frame to resend verbatim.
  [[nodiscard]] RetryClass classify(std::uint64_t request_id,
                                    std::vector<std::uint8_t>& replay_frame)
      SPMV_EXCLUDES(retry_mutex_) {
    MutexLock lock(retry_mutex_);
    if (auto it = replay_.find(request_id); it != replay_.end()) {
      replay_frame = it->second;
      return RetryClass::kReplay;
    }
    if (auto it = rejected_.find(request_id); it != rejected_.end()) {
      replay_frame = it->second;
      return RetryClass::kReplay;
    }
    if (inflight_.count(request_id) != 0) return RetryClass::kPending;
    if (max_decided_id_ != 0 && request_id <= max_decided_id_) {
      return RetryClass::kUnknown;
    }
    return RetryClass::kNew;
  }

  /// Admission check and reservation in ONE critical section: reserves
  /// one in-flight slot for `request_id` unless the quota is used up.
  /// Atomic check-and-admit keeps the quota exact even in the takeover
  /// window where a stale connection's thread has not yet observed that
  /// it lost the slot.  In-flight work survives a park, so quota cannot
  /// be evaded by reconnecting; rejection paths after a successful
  /// reservation release it through decide().
  [[nodiscard]] bool try_admit(std::uint64_t request_id)
      SPMV_EXCLUDES(retry_mutex_) {
    MutexLock lock(retry_mutex_);
    if (inflight_.size() >= quota) return false;
    inflight_.insert(request_id);
    return true;
  }

  /// Record the decided reply for a request id: releases its in-flight
  /// reservation (if any) and stores the frame in the replay window —
  /// the executed-results window when `executed`, else the rejection
  /// window — evicting the oldest entries past `window`.
  void decide(std::uint64_t request_id, std::vector<std::uint8_t> frame,
              std::size_t window, bool executed = true)
      SPMV_EXCLUDES(retry_mutex_) {
    MutexLock lock(retry_mutex_);
    decide_locked(request_id, std::move(frame), window, executed);
  }

  /// Fault-injection hook (net.replay_evict): drop one replay entry so a
  /// retry of it exercises the kRetryUnknown path.
  void drop_replay(std::uint64_t request_id) SPMV_EXCLUDES(retry_mutex_) {
    MutexLock lock(retry_mutex_);
    replay_.erase(request_id);
    rejected_.erase(request_id);
  }

  /// A completion arrived for a connection that no longer exists (the
  /// session is parked, re-attached elsewhere, or closed).  Record the
  /// decision into the replay window and count the outcome so a retry
  /// can be answered.  Returns false when the slot is already closed —
  /// no retry can reach it, so the caller must count the completion as
  /// dropped instead.
  [[nodiscard]] bool record_orphan(std::uint64_t request_id, bool ok,
                                   std::uint64_t rpc_ns,
                                   std::vector<std::uint8_t> frame,
                                   std::size_t window)
      SPMV_EXCLUDES(retry_mutex_) {
    MutexLock lock(retry_mutex_);
    // relaxed: state_ transitions happen under retry_mutex_, which
    // supplies the ordering here; the atomic exists for advisory reads.
    if (state_.load(std::memory_order_relaxed) == AttachState::kClosed) {
      return false;
    }
    decide_locked(request_id, std::move(frame), window, /*executed=*/true);
    stats.record_outcome(ok, rpc_ns);
    return true;
  }

  // --- attach lifecycle (driven by the SessionManager) ---

  /// Advisory read of the attach state (e.g. gauges); exactness-critical
  /// decisions read it under retry_mutex_ inside record_orphan.
  [[nodiscard]] AttachState attach_state() const {
    // relaxed: advisory read; all decisions that must be exact take
    // retry_mutex_ instead.
    return state_.load(std::memory_order_relaxed);
  }

  /// The connection currently owning this session.  A resume HELLO can
  /// race the death of the previous connection (a proxy or middlebox cuts
  /// both ends at once, and the two events land on different I/O
  /// threads): resume() takes over a still-attached slot and bumps the
  /// owner, the late close of the old connection sees the mismatch and
  /// leaves the session alone, and the old connection's frame path kills
  /// the connection on mismatch so a taken-over slot stops being driven
  /// from two threads.  That frame-path check is advisory (a stale read
  /// only delays the kill by a frame) — correctness rests on the slot
  /// state it guards being mutex-guarded.  Mutated only under the
  /// SessionManager's mutex, which supplies the ordering for every
  /// decision made on it; the atomic exists for advisory reads.
  [[nodiscard]] std::uint64_t owner_conn() const {
    // relaxed: ordered by the SessionManager mutex where it matters.
    return owner_conn_.load(std::memory_order_relaxed);
  }
  void set_owner_conn(std::uint64_t conn_id) {
    // relaxed: ordered by the SessionManager mutex (see owner_conn()).
    owner_conn_.store(conn_id, std::memory_order_relaxed);
  }

  /// Attached -> parked.  Returns false if the slot already closed.
  [[nodiscard]] bool mark_parked() SPMV_EXCLUDES(retry_mutex_) {
    MutexLock lock(retry_mutex_);
    // relaxed: guarded by retry_mutex_ (see record_orphan).
    if (state_.load(std::memory_order_relaxed) == AttachState::kClosed) {
      return false;
    }
    state_.store(AttachState::kParked, std::memory_order_relaxed);
    return true;
  }

  void mark_attached() SPMV_EXCLUDES(retry_mutex_) {
    MutexLock lock(retry_mutex_);
    // relaxed: guarded by retry_mutex_ (see record_orphan).
    state_.store(AttachState::kAttached, std::memory_order_relaxed);
  }

  /// Permanently close: any record_orphan after this (under the same
  /// mutex) sees kClosed and counts its completion as dropped, so a
  /// completion is either parked in the replay window or dropped, never
  /// both.
  void mark_closed() SPMV_EXCLUDES(retry_mutex_) {
    MutexLock lock(retry_mutex_);
    // relaxed: guarded by retry_mutex_ (see record_orphan).
    state_.store(AttachState::kClosed, std::memory_order_relaxed);
  }

  /// A copy of the counters.  Advisory: each counter is exact on its
  /// own, but the copy is not one atomic cut across them.
  [[nodiscard]] SessionStats snapshot() const { return stats; }

 private:
  void decide_locked(std::uint64_t request_id, std::vector<std::uint8_t> frame,
                     std::size_t window, bool executed)
      SPMV_REQUIRES(retry_mutex_) {
    inflight_.erase(request_id);
    max_decided_id_ = std::max(max_decided_id_, request_id);
    if (replay_.count(request_id) != 0 || rejected_.count(request_id) != 0) {
      return;  // double decide: keep the first recording
    }
    // Executed outcomes and pre-execution rejections get separate
    // windows: only executed multiplies consume executed-replay slots,
    // so a burst of rejections cannot evict a result whose retry must
    // replay rather than answer kRetryUnknown.
    auto& frames = executed ? replay_ : rejected_;
    auto& order = executed ? replay_order_ : rejected_order_;
    frames.emplace(request_id, std::move(frame));
    order.push_back(request_id);
    while (window == 0 ? !order.empty() : order.size() > window) {
      frames.erase(order.front());
      order.pop_front();
    }
  }

  mutable Mutex retry_mutex_;
  /// The cached operand vector (see cached_x()): guarded because a
  /// resume takeover resets it from the new connection's thread while
  /// the stale connection's thread may still be draining frames.
  std::shared_ptr<const std::vector<double>> cached_x_
      SPMV_GUARDED_BY(retry_mutex_);
  /// Decided replies of EXECUTED multiplies, request id -> full encoded
  /// reply frame.
  std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> replay_
      SPMV_GUARDED_BY(retry_mutex_);
  /// Insertion order of replay_ keys for window eviction.
  std::deque<std::uint64_t> replay_order_ SPMV_GUARDED_BY(retry_mutex_);
  /// Decided terminal REJECTIONS (never executed: quota, shutdown,
  /// malformed, unknown matrix), windowed separately from replay_.
  std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> rejected_
      SPMV_GUARDED_BY(retry_mutex_);
  /// Insertion order of rejected_ keys for window eviction.
  std::deque<std::uint64_t> rejected_order_ SPMV_GUARDED_BY(retry_mutex_);
  /// Highest request id ever decided: anything at or below it that is
  /// neither replayable nor in flight was evicted -> kRetryUnknown.
  std::uint64_t max_decided_id_ SPMV_GUARDED_BY(retry_mutex_) = 0;
  /// Request ids of in-flight multiplies, one quota slot each.
  std::unordered_set<std::uint64_t> inflight_ SPMV_GUARDED_BY(retry_mutex_);
  /// Attach lifecycle.  Mutated only under retry_mutex_; the atomic makes
  /// the advisory attach_state() read legal without it.
  std::atomic<AttachState> state_{AttachState::kAttached};
  /// Owning connection id; mutated under the SessionManager mutex (that
  /// mutex orders takeover-vs-close races), atomic for advisory reads.
  std::atomic<std::uint64_t> owner_conn_{0};
};

/// Registry of live and parked sessions: assigns ids and resume tokens,
/// parks sessions across disconnects, re-attaches them on resume, reaps
/// parked sessions whose deadline lapsed, and rolls a closing session's
/// counters into cumulative totals so STATS never under-reports after
/// churn.
class SessionManager {
 public:
  using Clock = std::chrono::steady_clock;

  /// Outcome of a park attempt (the caller's cleanup differs per case).
  enum class ParkResult : std::uint8_t {
    kParked,     ///< slot parked; keep in-flight work running
    kTakenOver,  ///< a resume already re-attached it elsewhere: hands off
    kGone,       ///< already closed
  };

  [[nodiscard]] std::shared_ptr<ClientSlot> open(std::uint32_t quota,
                                                 std::uint64_t owner_conn)
      SPMV_EXCLUDES(mutex_) {
    // relaxed: the id only needs uniqueness, not ordering against other
    // memory.
    const std::uint64_t id =
        next_id_.fetch_add(1, std::memory_order_relaxed);
    MutexLock lock(mutex_);
    // `| 1` keeps the token nonzero: 0 in a HELLO means "no resume".
    auto slot = std::make_shared<ClientSlot>(id, quota,
                                             token_rng_.next_u64() | 1);
    slot->set_owner_conn(owner_conn);
    slots_.emplace(id, slot);
    ++opened_;
    return slot;
  }

  /// Attached -> parked until `deadline`, provided `owner_conn` still
  /// owns the slot.  kTakenOver means a resume on another connection beat
  /// this park — the caller must neither cancel the in-flight work nor
  /// close the session.  The owner check and the park are one critical
  /// section, so takeover-vs-park cannot interleave.
  [[nodiscard]] ParkResult park(const std::shared_ptr<ClientSlot>& slot,
                                Clock::time_point deadline,
                                std::uint64_t owner_conn)
      SPMV_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    if (slot->owner_conn() != owner_conn) return ParkResult::kTakenOver;
    if (!slot->mark_parked()) return ParkResult::kGone;
    slots_.erase(slot->id);
    parked_.emplace(slot->id, Parked{slot, deadline});
    return ParkResult::kParked;
  }

  /// Re-attach a session for `new_owner`, if `token` matches.  Two cases:
  /// parked (the usual reconnect, deadline-checked) and still-attached
  /// takeover — the old connection is dead but its EOF has not been
  /// processed yet (a proxy cutting both ends races the two I/O threads).
  /// In the takeover case the old connection's thread may still be
  /// draining buffered frames against the slot: the server kills that
  /// connection at its next owner check, and every slot member both
  /// threads can reach in the meantime is guarded by the slot's own
  /// mutex.  Clears the cached operand vector — the client re-ships full
  /// after resuming.
  [[nodiscard]] std::shared_ptr<ClientSlot> resume(std::uint64_t id,
                                                   std::uint64_t token,
                                                   Clock::time_point now,
                                                   std::uint64_t new_owner)
      SPMV_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    if (auto it = parked_.find(id); it != parked_.end()) {
      if (it->second.slot->resume_token != token ||
          now >= it->second.deadline) {
        return nullptr;
      }
      std::shared_ptr<ClientSlot> slot = std::move(it->second.slot);
      parked_.erase(it);
      slot->mark_attached();
      slot->set_cached_x(nullptr);
      slot->set_owner_conn(new_owner);
      slots_.emplace(slot->id, slot);
      return slot;
    }
    if (auto it = slots_.find(id); it != slots_.end()) {
      if (it->second->resume_token != token) return nullptr;
      std::shared_ptr<ClientSlot> slot = it->second;
      slot->set_cached_x(nullptr);
      slot->set_owner_conn(new_owner);  // the late close sees the mismatch
      return slot;
    }
    return nullptr;
  }

  /// Retire a session.  `owner_conn` != 0 makes the close conditional on
  /// still owning the slot (a connection's death must not close a session
  /// that was taken over); 0 closes unconditionally (drain/stop).
  void close(std::uint64_t id, std::uint64_t owner_conn = 0)
      SPMV_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    std::shared_ptr<ClientSlot> slot;
    if (auto it = slots_.find(id); it != slots_.end()) {
      if (owner_conn != 0 && it->second->owner_conn() != owner_conn) return;
      slot = std::move(it->second);
      slots_.erase(it);
    } else if (auto pit = parked_.find(id); pit != parked_.end()) {
      slot = std::move(pit->second.slot);
      parked_.erase(pit);
    } else {
      return;
    }
    slot->mark_closed();
  }

  /// Close every parked session whose resume deadline lapsed.  Returns
  /// how many were reaped.
  [[nodiscard]] std::size_t reap_parked(Clock::time_point now)
      SPMV_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    std::size_t reaped = 0;
    for (auto it = parked_.begin(); it != parked_.end();) {
      if (now < it->second.deadline) {
        ++it;
        continue;
      }
      it->second.slot->mark_closed();
      it = parked_.erase(it);
      ++reaped;
    }
    return reaped;
  }

  [[nodiscard]] std::size_t active() const SPMV_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return slots_.size();
  }

  [[nodiscard]] std::size_t parked() const SPMV_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return parked_.size();
  }

  /// Sessions opened since construction (resumes are not new sessions).
  [[nodiscard]] std::uint64_t opened() const SPMV_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return opened_;
  }

 private:
  struct Parked {
    std::shared_ptr<ClientSlot> slot;
    Clock::time_point deadline;
  };

  mutable Mutex mutex_;
  std::map<std::uint64_t, std::shared_ptr<ClientSlot>> slots_
      SPMV_GUARDED_BY(mutex_);
  std::map<std::uint64_t, Parked> parked_ SPMV_GUARDED_BY(mutex_);
  /// Resume tokens need uniqueness, not cryptographic strength (the wire
  /// is plaintext); a fixed-seed Prng keeps them deterministic per run.
  Prng token_rng_ SPMV_GUARDED_BY(mutex_){0x5e551044'cafef00dULL};
  std::uint64_t opened_ SPMV_GUARDED_BY(mutex_) = 0;
  std::atomic<std::uint64_t> next_id_{1};
};

}  // namespace spmv::net
