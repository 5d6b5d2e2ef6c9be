// SpmvServer: the poll()-driven non-blocking TCP front-end that turns the
// serving subsystem into a network service.
//
// Threading model — every connection is owned by exactly ONE I/O thread:
//
//   accept (I/O thread 0) ──round-robin──► I/O thread i
//       │                                     │ poll(): conns + doorbell
//       │                                     ├─ read → parse_frame →
//       │                                     │    handle (never blocks)
//       ▼                                     ├─ write queues (POLLOUT)
//   UPLOAD_MATRIX ──queue──► control thread   └─ completion inbox drain
//        (registry.put tunes off-loop)                 ▲
//                                                      │ doorbell write
//   MULTIPLY ──Scheduler::submit(on_complete=hook)─────┘
//              (hook runs on the resolving dispatcher: push + wake, O(1))
//
// Responses complete asynchronously off the scheduler's future
// resolution: the SubmitOptions::on_complete hook pushes a completion
// record onto the owning I/O thread's inbox and rings its doorbell pipe —
// no thread ever blocks on a future, and there is no thread-per-request
// anywhere.  Operand lifetime is pin-based like the rest of the serving
// plane: each request holds shared ownership of the exact cached-vector
// snapshot it was submitted with (see net/session.h), its y buffer, and
// its registry entry, all carried in the completion record until the
// reply is written.
//
// Protocol events map onto the serving primitives one-to-one:
//   RPC deadline      → SubmitOptions::deadline (expiry sweeps, EWMA shed)
//   client disconnect → CancelToken::cancel() on every in-flight request
//   admission         → session quota at the wire + OverflowPolicy::kShed
//                       (a shed resolves as a SHED status frame)
//   readiness         → HealthWatchdog / OverloadDetector via HEALTH
//   SIGTERM           → request_stop() (async-signal-safe) → drain
//                       shutdown: scheduler drains, every in-flight
//                       request and every frame already received is
//                       answered, each session gets GOODBYE, then
//                       connections half-close and close.
//
// This file is on lint_concurrency.py's audited-thread-lifecycle list:
// the I/O threads and the upload control thread are joined in stop(),
// which the destructor always runs.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/options.h"
#include "net/session.h"
#include "net/wire.h"
#include "serve/registry.h"
#include "serve/scheduler.h"
#include "util/thread_annotations.h"

namespace spmv::net {

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  /// 0 binds an ephemeral port; read the real one from port() after
  /// start() — that is how the tests and benches avoid port races.
  std::uint16_t port = 0;
  unsigned io_threads = 2;
  /// Per-frame payload cap advertised in HELLO_OK and enforced before a
  /// single payload byte is buffered (ParseStatus::kOversized closes).
  std::size_t max_payload = std::size_t{256} << 20;
  /// In-flight multiply-item quota granted when HELLO requests 0.
  std::uint32_t default_quota = 16;
  std::uint32_t max_quota = 1024;
  /// Reap sessions with no traffic and nothing in flight for this long.
  /// 0 disables reaping.
  std::chrono::milliseconds idle_timeout{0};
  /// How long shutdown may keep flushing already-queued response bytes
  /// after the scheduler drained, and then wait for each peer to
  /// acknowledge the half-close (slow readers do not wedge stop()).
  std::chrono::milliseconds drain_grace{1000};
  /// How long an abruptly disconnected session stays parked waiting for a
  /// resuming HELLO.  0 disables resumption entirely: a disconnect
  /// cancels in-flight work and closes the session immediately (the
  /// pre-resume semantics the lifecycle tests pin down).
  std::chrono::milliseconds resume_timeout{0};
  /// Decided multiply replies kept per session for retransmission.  A
  /// retry inside the window re-sends the recorded reply verbatim
  /// (exactly-once effect); a retry past it answers kRetryUnknown.
  /// Executed results and pre-execution rejections each get a window of
  /// this size, so rejection bursts cannot evict executed results.
  std::size_t replay_window = 64;
  /// A partial frame header must complete within this long of its first
  /// byte, and a partial payload within body_timeout — defeats
  /// byte-at-a-time tricklers whose per-byte "activity" would evade
  /// idle_timeout.  0 falls back to idle_timeout (if set); both 0
  /// disables the progress check.
  std::chrono::milliseconds header_timeout{0};
  std::chrono::milliseconds body_timeout{0};
  /// Kill a connection whose unsent reply backlog exceeds
  /// write_stall_bytes with no drain progress for write_stall_timeout —
  /// a peer that stops reading cannot pin reply memory forever.  0
  /// disables the check.
  std::size_t write_stall_bytes = 0;
  std::chrono::milliseconds write_stall_timeout{1000};
  serve::SchedulerConfig scheduler;
  /// Tuning options applied to UPLOAD_MATRIX (runs on the control
  /// thread, never on an I/O thread).
  TuningOptions tuning;
};

/// Wire/connection-level counters (scheduler stats cover the data plane).
struct NetStatsSnapshot {
  std::uint64_t accepted = 0;
  std::uint64_t active_connections = 0;
  std::uint64_t sessions_opened = 0;
  std::uint64_t requests = 0;        ///< multiply items admitted
  std::uint64_t responses = 0;       ///< frames written back
  std::uint64_t shed_replies = 0;    ///< SHED status frames sent
  std::uint64_t protocol_errors = 0;
  std::uint64_t idle_reaped = 0;
  /// Completions whose connection was already gone (disconnect raced the
  /// multiply) and whose session was closed too: the result is dropped,
  /// never double-delivered.
  std::uint64_t completions_dropped = 0;
  /// Completions whose connection was gone but whose session was parked
  /// (or re-attached): recorded into the replay window for the retry.
  std::uint64_t completions_parked = 0;
  std::uint64_t replay_hits = 0;      ///< retries answered from the window
  std::uint64_t retry_pending = 0;    ///< retries answered kRetryPending
  std::uint64_t retry_unknown = 0;    ///< retries answered kRetryUnknown
  std::uint64_t resumes = 0;          ///< sessions re-attached via HELLO
  std::uint64_t resume_rejected = 0;  ///< resume attempts refused
  std::uint64_t parked_reaped = 0;    ///< parked sessions past the deadline
  std::uint64_t progress_killed = 0;  ///< header/body progress deadline hit
  std::uint64_t write_stall_killed = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
};

class SpmvServer {
 public:
  explicit SpmvServer(ServerConfig config = {});
  ~SpmvServer();  ///< stop()

  SpmvServer(const SpmvServer&) = delete;
  SpmvServer& operator=(const SpmvServer&) = delete;

  /// Bind, listen, and spawn the I/O + control threads.  Throws
  /// std::runtime_error when the socket cannot be bound.
  void start();

  /// The bound port (resolves config.port == 0 to the real one).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Block until request_stop() (or stop()) is called.  The pattern for a
  /// signal-driven server: install a handler that calls request_stop(),
  /// then wait(); stop().
  void wait() SPMV_EXCLUDES(wait_mutex_);

  /// Async-signal-safe stop request: one write() to a self-pipe.  Safe
  /// to call from a SIGTERM handler; wait() wakes shortly after.
  void request_stop() noexcept;

  /// Drain shutdown, idempotent: stop accepting, let the scheduler drain
  /// (every in-flight request is answered over the wire), answer the
  /// frames still buffered in each socket (kShutdown for new work), send
  /// GOODBYE to each session, flush, half-close and wait for each peer to
  /// acknowledge it within drain_grace, close, join all threads.
  void stop();

  /// The registry/scheduler behind the wire — for in-process loading,
  /// resume() after start_paused, and test introspection.
  [[nodiscard]] serve::MatrixRegistry& registry() { return registry_; }
  [[nodiscard]] serve::Scheduler& scheduler() { return scheduler_; }
  [[nodiscard]] SessionManager& sessions() { return sessions_; }
  [[nodiscard]] const ServerConfig& config() const { return config_; }

  [[nodiscard]] NetStatsSnapshot net_stats() const;

 private:
  struct PendingOp;
  struct BatchState;
  /// One message for an I/O thread's inbox: a resolved single op, a fully
  /// resolved batch, or a pre-encoded reply frame (upload results).
  struct Completion {
    std::uint64_t conn_id = 0;
    std::shared_ptr<PendingOp> op;
    std::shared_ptr<BatchState> batch;
    std::vector<std::uint8_t> frame;
    bool has_frame = false;
  };
  struct Conn;
  struct IoThread;
  struct UploadJob;

  void io_loop(unsigned index);
  void accept_ready(IoThread& io0);
  void upload_loop() SPMV_EXCLUDES(upload_mutex_);

  void handle_readable(IoThread& io, Conn& conn);
  /// How a read_socket() sweep ended.
  enum class ReadEnd : std::uint8_t { kDrained, kEof, kError };
  /// Append what the socket's receive queue holds to conn.rdbuf.
  ReadEnd read_socket(Conn& conn);
  /// Parse and handle every complete frame in conn.rdbuf.
  void handle_frames(IoThread& io, Conn& conn);
  void handle_frame(IoThread& io, Conn& conn, const FrameHeader& header,
                    std::span<const std::uint8_t> payload);
  void handle_multiply(IoThread& io, Conn& conn, const FrameHeader& header,
                       bool batch, std::span<const std::uint8_t> payload);
  void handle_cancel(Conn& conn, std::uint64_t request_id,
                     std::span<const std::uint8_t> payload);
  void handle_stats(Conn& conn, std::uint64_t request_id);
  void handle_health(Conn& conn, std::uint64_t request_id);

  void process_completion(IoThread& io, Completion&& c);
  /// Reply outcome of one resolved scheduler future.
  StatusCode op_status(PendingOp& op, std::string& message);

  void send_frame(Conn& conn, FrameType type, std::uint64_t request_id,
                  std::span<const std::uint8_t> payload);
  void send_status(Conn& conn, std::uint64_t request_id, StatusCode code,
                   const std::string& message);
  /// Enqueue an already-encoded frame and try to flush.
  void queue_frame(Conn& conn, std::vector<std::uint8_t> frame);
  /// Record `frame` as the decision for `request_id` in the session's
  /// replay window (`executed` false routes it to the separate rejection
  /// window so rejections never evict executed results), then send it.
  void decide_and_send(Conn& conn, ClientSlot& slot,
                       std::uint64_t request_id,
                       std::vector<std::uint8_t> frame,
                       bool executed = true);
  /// decide_and_send of a STATUS frame (terminal multiply rejections —
  /// never executed, so they land in the rejection window).
  void decide_status(Conn& conn, ClientSlot& slot, std::uint64_t request_id,
                     StatusCode code, const std::string& message);
  void flush_writes(Conn& conn);
  void close_conn(IoThread& io, std::uint64_t conn_id);
  /// Idle reaping plus the slow-peer sweeps: read-progress deadlines on
  /// partial frames, write-stall kills, and (thread 0) parked-session
  /// expiry.
  void reap_idle(IoThread& io);
  void drain_inbox(IoThread& io);
  /// True when any periodic sweep needs the poll loop to tick.
  [[nodiscard]] bool needs_sweep_tick() const;

  /// Push a completion to the owning thread's inbox and ring its
  /// doorbell.  Called from the scheduler's dispatcher thread (the
  /// on_complete hook) and the control thread; must stay cheap.
  void post_completion(unsigned io_index, Completion c);

  ServerConfig config_;
  serve::MatrixRegistry registry_;
  serve::Scheduler scheduler_;
  SessionManager sessions_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  int stop_pipe_[2] = {-1, -1};  ///< request_stop() writes; thread 0 reads

  std::vector<std::unique_ptr<IoThread>> io_threads_;
  std::atomic<std::uint64_t> next_conn_id_{1};

  /// No new connections/requests; scheduler is draining.
  std::atomic<bool> draining_{false};
  /// I/O threads run their final drain-flush-close pass and exit.
  std::atomic<bool> io_stopping_{false};
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};

  Mutex wait_mutex_;
  CondVar wait_cv_;
  bool stop_requested_ SPMV_GUARDED_BY(wait_mutex_) = false;

  Mutex upload_mutex_;
  CondVar upload_cv_;
  std::deque<UploadJob> uploads_ SPMV_GUARDED_BY(upload_mutex_);
  bool upload_stop_ SPMV_GUARDED_BY(upload_mutex_) = false;
  std::thread upload_thread_;

  // Wire-level counters (relaxed; exported by net_stats()).
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> active_conns_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> responses_{0};
  std::atomic<std::uint64_t> shed_replies_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> idle_reaped_{0};
  std::atomic<std::uint64_t> completions_dropped_{0};
  std::atomic<std::uint64_t> completions_parked_{0};
  std::atomic<std::uint64_t> replay_hits_{0};
  std::atomic<std::uint64_t> retry_pending_{0};
  std::atomic<std::uint64_t> retry_unknown_{0};
  std::atomic<std::uint64_t> resumes_{0};
  std::atomic<std::uint64_t> resume_rejected_{0};
  std::atomic<std::uint64_t> parked_reaped_{0};
  std::atomic<std::uint64_t> progress_killed_{0};
  std::atomic<std::uint64_t> write_stall_killed_{0};
  std::atomic<std::uint64_t> bytes_in_{0};
  std::atomic<std::uint64_t> bytes_out_{0};
};

}  // namespace spmv::net
