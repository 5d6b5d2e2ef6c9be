// ChaosProxy: a seeded, deterministic TCP fault injector for the SpMV
// network path.
//
// The proxy sits between SpmvNetClient and SpmvNetServer on loopback and
// relays bytes both ways — until the fault schedule says otherwise.  Each
// accepted connection draws its fate from a Prng keyed by (seed,
// connection index), so a given seed replays the exact same schedule:
// which connections die, after how many relayed bytes, and in which of
// four styles:
//
//   kKill       close both sides abruptly once the byte threshold passes
//   kHalfClose  shutdown(SHUT_WR) toward the client and stop relaying
//               downstream — the client sees EOF while its last request
//               may still reach (and execute on) the server.  This is the
//               canonical "executed but unacknowledged" generator.
//   kStall      stop relaying in both directions for a drawn duration,
//               then resume AND draw the next fault from the same stream —
//               a brown-out is a recoverable event, so a stalled
//               connection stays on the chaos schedule instead of
//               relaying cleanly forever afterwards
//   kTrickle    after the threshold, relay downstream at a few bytes per
//               tick — a pathologically slow link that must trip the
//               client's cumulative deadline, never hang it
//
// Thresholds count relayed bytes (both directions), so the schedule is a
// function of traffic, not wall-clock — the chaos soak's invariants stay
// replayable under TSan's timing jitter.
//
// Manual controls complement the schedule for targeted tests:
// kill_on_next_downstream() arms a one-shot trap that cuts a connection
// the moment the server tries to send — with the arm placed between
// handshake and multiply, that deterministically drops exactly the
// RESULT frame; kill_all() cuts every live relay (reconnect storms).
//
// One background thread owns every socket; controls are atomics sampled
// each poll tick.  start()/stop() bound the thread's lifecycle (joined in
// stop(), which the destructor also calls).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "util/counter.h"

namespace spmv::net {

struct ChaosProxyConfig {
  std::string listen_host = "127.0.0.1";
  std::string upstream_host = "127.0.0.1";
  std::uint16_t upstream_port = 0;
  /// Seed for the per-connection fault draws; same seed → same schedule.
  std::uint64_t seed = 1;
  /// Every Nth accepted connection (1-based: connections N, 2N, ...)
  /// draws a scheduled fault; the rest relay cleanly.  0 disables the
  /// schedule entirely (manual controls still work).
  std::uint32_t kill_every = 0;
  /// Relayed-byte window the fault threshold is drawn from.
  std::uint64_t fault_after_min = 256;
  std::uint64_t fault_after_max = 8192;
  /// Stall-duration window (milliseconds) for kStall draws.
  std::uint32_t stall_ms_min = 20;
  std::uint32_t stall_ms_max = 150;
};

class ChaosProxy {
 public:
  explicit ChaosProxy(ChaosProxyConfig config);
  ~ChaosProxy();  ///< stop() if still running

  ChaosProxy(const ChaosProxy&) = delete;
  ChaosProxy& operator=(const ChaosProxy&) = delete;

  /// Bind an ephemeral port and start the relay thread.  Throws
  /// std::runtime_error on socket failure.
  void start();
  /// Close every relay and join the thread.  Idempotent.
  void stop();
  /// The port clients should connect to (valid after start()).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  // --- manual controls (callable from any thread) ---

  /// Cut every live connection at the next poll tick.
  void kill_all();
  /// One-shot trap: the next time ANY relay has downstream (server ->
  /// client) bytes to forward, kill that connection instead of relaying.
  void kill_on_next_downstream();

  // --- observability ---
  [[nodiscard]] std::uint64_t accepted() const;
  [[nodiscard]] std::uint64_t killed() const;
  /// Scheduled faults fired (all four styles; manual kills not counted).
  [[nodiscard]] std::uint64_t faults() const;
  [[nodiscard]] std::uint64_t bytes_relayed() const;

 private:
  enum class Fault : std::uint8_t { kNone, kKill, kHalfClose, kStall,
                                    kTrickle };

  struct Relay;  // defined in the .cpp; only the thread touches them

  void run();
  void open_relay(int client_fd, std::uint64_t index);
  /// Draw the relay's next fault (style, byte threshold, stall length)
  /// from its per-connection Prng stream.
  void draw_fault(Relay& r);

  const ChaosProxyConfig config_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  std::thread thread_;
  std::vector<Relay*> relays_;  ///< owned by the relay thread only

  std::atomic<bool> stop_{false};
  std::atomic<bool> kill_all_{false};
  std::atomic<bool> kill_next_downstream_{false};
  Counter accepted_;
  Counter killed_;
  Counter faults_;
  Counter bytes_relayed_;
};

}  // namespace spmv::net
