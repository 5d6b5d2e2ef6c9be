// SpmvNetClient: blocking client library for the SpMV network service.
//
// One instance drives one connection and is deliberately single-threaded
// (no locks, no background threads) — the concurrency story lives on the
// server.  The tests, the bench harness, and examples/spmv_client.cpp all
// speak the protocol through this class rather than hand-rolling frames.
//
// Operand shipping is where the client earns its keep: it keeps a shadow
// copy of the last vector sent and, in DeltaMode::kAuto, encodes each new
// operand as whichever of {cached (identical), delta (cheaper than
// dense), full} costs the fewest wire bytes.  The shadow evolves exactly
// like the server's session cache, including across pipelined requests
// and across rejected requests (the server applies any structurally
// valid operand to the cache even when it refuses the multiply), so the
// two can never disagree about what a delta applies to.  The two
// cases where the server does NOT apply — kBadRequest / kProtocolError —
// drop the shadow, resyncing with one full send; close() drops it too,
// since the session cache dies with the connection.
//
// Fault tolerance (opt-in via RetryPolicy::enabled): the synchronous
// multiply() rides a retry ladder — on transport failure the client
// reconnects, resumes its prior session (HELLO carries the resume token),
// and retransmits under the SAME request id so the server's replay window
// guarantees exactly-once execution.  Retransmissions always ship full
// operands (delivery of the original was uncertain) and are cache-neutral
// on both sides.  Delays follow capped decorrelated-jitter backoff, the
// whole ladder is bounded by one cumulative per-RPC deadline (never
// per-syscall), and a three-state circuit breaker fails fast while the
// server stays unreachable.  kRetryPending re-arms the ladder;
// kRetryUnknown is terminal — the server genuinely lost the outcome and
// the caller must decide whether re-issuing is safe.  A reconnect whose
// resume offer is REJECTED while a retransmission is pending ends the
// ladder the same way: the replay window that knew the outcome is gone,
// so the ladder answers kRetryUnknown rather than re-executing on the
// fresh session (HELLO_OK.resumed == 0 means unacknowledged work is
// unknown).
//
// Request/response calls (`multiply`, `upload`, ...) are synchronous.
// `begin_multiply` + `await` expose the protocol's pipelining: many
// requests can be in flight (up to the HELLO-granted quota) and replies
// are routed by request id, arriving in any order.  That is how k
// operands travel at once: k pipelined MULTIPLYs, whose deltas chain
// through the session cache while each request pins its own snapshot.
// Pipelined calls are NOT retried — a dead transport surfaces as
// kConnectionLost, exactly as before.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "net/wire.h"
#include "util/backoff.h"

namespace spmv::net {

struct ClientOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string client_name = "spmv-client";
  std::uint32_t requested_quota = 0;  ///< 0 = accept the server default
  /// Per-attempt transport bound: one connect or one request/reply
  /// exchange may take at most this long, measured cumulatively across
  /// its syscalls (a server trickling a byte per poll cannot stretch it).
  std::chrono::milliseconds timeout{5000};
  /// Cumulative wall-clock budget for one synchronous RPC *including*
  /// every retry, reconnect, and backoff sleep — the ladder's deadline,
  /// not each attempt's.  0 = use `timeout` as the budget.
  std::chrono::milliseconds rpc_budget{0};
  std::size_t max_payload = std::size_t{256} << 20;

  enum class DeltaMode {
    kAuto,        ///< cheapest of cached / delta / full per operand
    kAlwaysFull,  ///< ship dense always (baseline for the bench)
  };
  DeltaMode delta_mode = DeltaMode::kAuto;

  /// Retry / reconnect / circuit-breaker policy for the synchronous
  /// multiply().  Disabled by default: transport failures surface as
  /// kConnectionLost immediately (the pre-fault-tolerance semantics the
  /// lifecycle tests pin down).
  struct RetryPolicy {
    bool enabled = false;
    /// Attempts per RPC including the first send.
    int max_attempts = 8;
    std::chrono::milliseconds backoff_base{5};
    std::chrono::milliseconds backoff_cap{200};
    /// Seed for the decorrelated-jitter draw — a seeded client replays
    /// the exact same ladder (the chaos soak depends on that).
    std::uint64_t seed = 1;
    /// Consecutive transport failures that open the breaker.
    int breaker_threshold = 5;
    /// How long an open breaker fails fast before the half-open probe.
    std::chrono::milliseconds breaker_cooldown{250};
  };
  RetryPolicy retry;
};

class SpmvNetClient {
 public:
  explicit SpmvNetClient(ClientOptions options = {});
  ~SpmvNetClient();  ///< best-effort GOODBYE + close

  SpmvNetClient(const SpmvNetClient&) = delete;
  SpmvNetClient& operator=(const SpmvNetClient&) = delete;

  /// Connect and run the HELLO handshake; when a prior session left a
  /// resume token behind, offer it (the server restores the session or
  /// opens a fresh one).  Throws std::runtime_error on transport failure
  /// or a rejected handshake.
  void connect();
  [[nodiscard]] bool connected() const { return fd_ >= 0; }
  /// Close the socket without the GOODBYE exchange (tests use this to
  /// exercise the server's disconnect-cancels-in-flight path).  Resets
  /// all session state — shadow vector included — so a later connect()
  /// starts with a full operand send; the resume identity is kept so
  /// connect() can offer it.
  void close();

  [[nodiscard]] std::uint64_t session_id() const { return session_id_; }
  [[nodiscard]] std::uint32_t quota() const { return quota_; }
  /// True when the last connect() resumed the prior session.
  [[nodiscard]] bool resumed() const { return last_resumed_; }

  /// Outcome of one request: kOk fills `y` for multiplies; anything else
  /// carries the server's message.  kConnectionLost is synthesized
  /// client-side when the transport dies mid-call (or the breaker is
  /// open).
  struct Result {
    StatusCode status = StatusCode::kOk;
    std::string message;
    std::vector<double> y;
  };

  Result upload(const std::string& name, std::uint32_t rows,
                std::uint32_t cols, std::vector<std::uint64_t> row_ptr,
                std::vector<std::uint32_t> col_idx,
                std::vector<double> values);

  /// In DeltaMode::kAuto an x identical to the last one shipped travels
  /// as kCached: the server reuses its copy.
  Result multiply(const std::string& name, std::span<const double> x,
                  std::uint64_t deadline_us = 0, std::int32_t priority = 0);

  /// Pipelined submission: returns the request id to pass to await().
  std::uint64_t begin_multiply(const std::string& name,
                               std::span<const double> x,
                               std::uint64_t deadline_us = 0,
                               std::int32_t priority = 0);
  /// Block until the reply for `request_id` arrives (replies for other
  /// in-flight ids are buffered and routed to their own await calls).
  Result await(std::uint64_t request_id);

  /// Ask the server to cancel an in-flight request.  kOk means the cancel
  /// was delivered; the cancelled request's own await() reports the race
  /// outcome (kCancelled or its result).
  Result cancel(std::uint64_t target_id);

  [[nodiscard]] bool stats(StatsResult& out);
  [[nodiscard]] bool health(HealthResult& out);

  /// True once the server announced drain shutdown (GOODBYE, id 0).
  [[nodiscard]] bool server_goodbye() const { return server_goodbye_; }

  /// Wire-cost and fault-tolerance accounting.
  struct Counters {
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_received = 0;
    std::uint64_t full_operands = 0;
    std::uint64_t delta_operands = 0;
    std::uint64_t cached_operands = 0;
    /// Encoded operand bytes actually shipped (vs n*8 dense per operand).
    std::uint64_t operand_bytes_sent = 0;
    std::uint64_t operand_bytes_dense = 0;
    // --- retry / resume / breaker events ---
    std::uint64_t retries = 0;        ///< retransmission attempts sent
    std::uint64_t reconnects = 0;     ///< successful connects after the first
    std::uint64_t resumes = 0;        ///< HELLO_OK carried resumed=1
    std::uint64_t resume_rejected = 0;  ///< resume offered but refused
    std::uint64_t retry_pending = 0;  ///< kRetryPending replies observed
    /// Retransmissions abandoned because the reconnect's resume was
    /// rejected: the replay window that knew the outcome is gone, so the
    /// RPC terminates with kRetryUnknown instead of re-executing.
    std::uint64_t retry_abandoned = 0;
    std::uint64_t breaker_open_events = 0;  ///< closed/half-open -> open
    std::uint64_t breaker_fast_fails = 0;   ///< calls refused while open
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// Encode x per delta_mode against the shadow, update the shadow, and
  /// account the wire cost.
  OperandSpec make_operand(std::span<const double> x);
  /// Keep the shadow honest against the server's cache rule: replies the
  /// server issues without applying the request's operand
  /// (kBadRequest/kProtocolError) drop the shadow so the next operand
  /// ships full.
  void note_reply_status(StatusCode code);
  /// The cumulative deadline for one sync RPC: now + rpc_budget (or
  /// `timeout` when no budget is set).
  [[nodiscard]] Clock::time_point ladder_deadline() const;
  /// Dense retransmission operand for `x`, with wire-cost accounting.
  OperandSpec full_operand(std::span<const double> x);
  /// Sleep the next backoff delay, clipped so we wake by `deadline`.
  void sleep_backoff(Clock::time_point deadline);
  /// Run one sync MULTIPLY under the retry ladder.
  /// `encode_attempt(first)` builds the payload — delta-aware on the
  /// first attempt, full-operand on retransmits.  Returns the reply
  /// frame; throws std::runtime_error when the ladder exhausts.
  std::pair<FrameType, std::vector<std::uint8_t>> retry_call(
      std::uint64_t request_id,
      const std::function<std::vector<std::uint8_t>(bool first)>&
          encode_attempt,
      Clock::time_point deadline);
  void connect_internal(Clock::time_point deadline);
  /// Block until fd_ is ready for `events` or io_deadline_ lapses
  /// (throws; the deadline is cumulative across the whole exchange).
  void wait_io(short events);
  void send_frame(FrameType type, std::uint64_t request_id,
                  std::span<const std::uint8_t> payload);
  void send_all(const std::uint8_t* data, std::size_t n);
  /// Block for the next complete frame; throws on transport/protocol
  /// failure.
  void recv_frame(FrameHeader& header, std::vector<std::uint8_t>& payload);
  /// Route frames until `request_id`'s reply arrives.
  std::pair<FrameType, std::vector<std::uint8_t>> await_frame(
      std::uint64_t request_id);
  static Result to_result(FrameType type,
                          std::span<const std::uint8_t> payload);

  ClientOptions options_;
  int fd_ = -1;
  std::uint64_t session_id_ = 0;
  std::uint32_t quota_ = 0;
  std::uint64_t next_request_id_ = 1;
  /// Cumulative transport deadline for the exchange in progress; every
  /// public entry point arms it (satisfying "per RPC, not per syscall").
  Clock::time_point io_deadline_{};
  /// Resume identity from the last HELLO_OK; survives close() so a
  /// reconnect can offer it.
  std::uint64_t resume_session_id_ = 0;
  std::uint64_t resume_token_ = 0;
  bool last_resumed_ = false;
  bool ever_connected_ = false;
  Backoff backoff_;
  CircuitBreaker breaker_;
  std::vector<std::uint8_t> rdbuf_;
  /// Replies that arrived while awaiting a different id.
  std::map<std::uint64_t, std::pair<FrameType, std::vector<std::uint8_t>>>
      pending_;
  std::vector<double> shadow_x_;  ///< mirror of the server's cached x
  bool have_shadow_ = false;
  bool server_goodbye_ = false;
  Counters counters_;
};

}  // namespace spmv::net
