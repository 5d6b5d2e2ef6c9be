// Chaos soak for the network path's fault tolerance: the client's retry
// ladder (reconnect, session resume, idempotent retransmission, circuit
// breaker, cumulative per-RPC deadline) against the seeded ChaosProxy and
// the server's replay window and slow-peer defenses.
//
// The load-bearing invariant, checked across three seeds: with retries
// enabled and no deadlines/shedding in play, every synchronous multiply
// that returns kOk was executed by the scheduler EXACTLY once —
// `scheduler().stats().total_completed()` equals the number of kOk
// multiplies, no matter how many times the proxy cut, stalled, trickled,
// or half-closed the connection mid-exchange.  Lost completions would
// undercount; blind re-execution of a retransmitted id would overcount.
//
// Runs in the spmv_net_chaos CTest entry (and, matching Net*, in the
// TSan-gated spmv_concurrency/spmv_net entries too).
#include "support/chaos_proxy.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <thread>
#include <vector>

#include "matrix/csr.h"
#include "net/client.h"
#include "net/server.h"
#include "support/test_helpers.h"
#include "util/backoff.h"

namespace spmv::net {
namespace {

using namespace std::chrono_literals;

/// Load the matrix straight into the server's registry — the soak
/// measures multiply-path fault tolerance, and UPLOAD is not on the
/// retry ladder.
void load_inprocess(SpmvServer& server, const TestMatrix& m) {
  server.registry().put(
      "A", CsrMatrix(m.n, m.n, m.row_ptr, m.col_idx, m.values), {});
}

bool wait_until(const std::function<bool()>& pred,
                std::chrono::milliseconds limit = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return pred();
}

int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  return fd;
}

std::size_t read_to_eof(int fd) {
  std::size_t total = 0;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) break;
    total += static_cast<std::size_t>(n);
  }
  return total;
}

// ---------------------------------------------------------------------------
// Backoff / breaker primitives

TEST(NetChaos, BackoffDeterministicPerSeedAndCapped) {
  Backoff a(5ms, 80ms, 42);
  Backoff b(5ms, 80ms, 42);
  Backoff c(5ms, 80ms, 43);
  bool diverged = false;
  for (int i = 0; i < 32; ++i) {
    const auto da = a.next();
    EXPECT_EQ(da, b.next()) << "same seed must replay the same ladder";
    EXPECT_GE(da, 5ms);
    EXPECT_LE(da, 80ms);
    if (da != c.next()) diverged = true;
  }
  EXPECT_TRUE(diverged) << "different seeds should draw different ladders";
  a.reset();
  EXPECT_LE(a.next(), 15ms);  // first post-reset draw is near base again
}

TEST(NetChaos, CircuitBreakerStateMachine) {
  using State = CircuitBreaker::State;
  const auto t0 = CircuitBreaker::Clock::now();
  CircuitBreaker br(3, 100ms);
  EXPECT_TRUE(br.allow(t0));
  EXPECT_FALSE(br.record_failure(t0));
  EXPECT_FALSE(br.record_failure(t0));
  EXPECT_TRUE(br.record_failure(t0));  // third consecutive failure trips
  EXPECT_EQ(br.state(), State::kOpen);
  EXPECT_FALSE(br.allow(t0 + 50ms));          // still cooling down
  EXPECT_TRUE(br.allow(t0 + 150ms));          // half-open probe
  EXPECT_EQ(br.state(), State::kHalfOpen);
  EXPECT_TRUE(br.record_failure(t0 + 151ms));  // probe failed: re-open
  EXPECT_EQ(br.state(), State::kOpen);
  EXPECT_TRUE(br.allow(t0 + 300ms));
  br.record_success();
  EXPECT_EQ(br.state(), State::kClosed);
  EXPECT_TRUE(br.allow(t0 + 301ms));
}

// ---------------------------------------------------------------------------
// The soak

void run_soak(std::uint64_t seed) {
  ServerConfig scfg;
  scfg.resume_timeout = 5000ms;
  scfg.replay_window = 64;
  SpmvServer server(scfg);
  server.start();
  const TestMatrix m = tridiag(64);
  load_inprocess(server, m);

  ChaosProxyConfig pcfg;
  pcfg.upstream_port = server.port();
  pcfg.seed = seed;
  pcfg.kill_every = 1;  // every connection draws a fault...
  pcfg.fault_after_min = 2500;  // ...but only after ~2 ops of progress
  pcfg.fault_after_max = 12000;
  ChaosProxy proxy(pcfg);
  proxy.start();

  ClientOptions copts;
  copts.port = proxy.port();
  copts.timeout = 400ms;       // per attempt
  copts.rpc_budget = 30000ms;  // whole ladder
  copts.retry.enabled = true;
  copts.retry.max_attempts = 200;
  copts.retry.backoff_base = 1ms;
  copts.retry.backoff_cap = 20ms;
  copts.retry.seed = seed;
  // The soak exercises retry/resume, not fast-fail: keep the breaker out
  // of the way (it has its own tests).
  copts.retry.breaker_threshold = 1000000;
  SpmvNetClient client(copts);
  client.connect();

  constexpr int kOps = 30;
  for (int i = 0; i < kOps; ++i) {
    const auto x = random_x(m.n, static_cast<std::uint32_t>(seed * 1000 + i));
    const auto r = client.multiply("A", x);
    ASSERT_EQ(r.status, StatusCode::kOk)
        << "op " << i << ": " << r.message << " (retries so far "
        << client.counters().retries << ")";
    const auto want = reference(m, x);
    ASSERT_EQ(r.y.size(), want.size());
    for (std::size_t j = 0; j < want.size(); ++j) {
      ASSERT_NEAR(r.y[j], want[j], 1e-12) << "op " << i << " j=" << j;
    }
  }

  // Exactly-once: every kOk multiply executed once — retransmissions
  // were answered from the replay window (or held with kRetryPending),
  // never re-executed; and nothing the client observed as kOk was lost.
  EXPECT_EQ(server.scheduler().stats().total_completed(),
            static_cast<std::uint64_t>(kOps))
      << "replay_hits=" << server.net_stats().replay_hits
      << " retry_pending=" << server.net_stats().retry_pending
      << " resumes=" << server.net_stats().resumes;

  // The chaos actually happened, and the ladder actually worked.
  EXPECT_GT(proxy.faults(), 0u);
  EXPECT_GT(client.counters().reconnects, 0u);
  EXPECT_GE(client.counters().retries, 1u);
  EXPECT_EQ(client.counters().resumes, client.counters().reconnects)
      << "every reconnect should have resumed the prior session";

  client.close();
  proxy.stop();
  server.stop();
}

TEST(NetChaos, SoakSeed11) { run_soak(11); }
TEST(NetChaos, SoakSeed29) { run_soak(29); }
TEST(NetChaos, SoakSeed47) { run_soak(47); }

// ---------------------------------------------------------------------------
// Targeted fault shapes

// The acceptance case for the replay window: the connection dies AFTER
// the server executed the multiply but BEFORE the RESULT frame reached
// the client.  The retransmission must be answered with the recorded
// reply — bit-identical — and the multiply must not run a second time.
TEST(NetChaos, ExecutedButUnackedRetryReturnsCachedReply) {
  ServerConfig scfg;
  scfg.resume_timeout = 5000ms;
  SpmvServer server(scfg);
  server.start();
  const TestMatrix m = tridiag(96);
  load_inprocess(server, m);

  ChaosProxyConfig pcfg;
  pcfg.upstream_port = server.port();  // no schedule: manual trap only
  ChaosProxy proxy(pcfg);
  proxy.start();

  ClientOptions copts;
  copts.port = proxy.port();
  copts.timeout = 500ms;
  copts.rpc_budget = 15000ms;
  copts.retry.enabled = true;
  copts.retry.backoff_base = 1ms;
  copts.retry.backoff_cap = 10ms;
  copts.retry.max_attempts = 50;
  SpmvNetClient client(copts);
  client.connect();

  const auto x1 = random_x(m.n, 1);
  const auto warm = client.multiply("A", x1);
  ASSERT_EQ(warm.status, StatusCode::kOk) << warm.message;
  ASSERT_EQ(server.scheduler().stats().total_completed(), 1u);

  // Arm between exchanges: the server is quiet, so the next downstream
  // bytes are exactly the next multiply's RESULT — the proxy cuts the
  // connection instead of relaying it.
  proxy.kill_on_next_downstream();

  const auto x2 = random_x(m.n, 2);
  const auto r = client.multiply("A", x2);
  ASSERT_EQ(r.status, StatusCode::kOk) << r.message;
  const auto want = reference(m, x2);
  for (std::size_t j = 0; j < want.size(); ++j) {
    ASSERT_NEAR(r.y[j], want[j], 1e-12);
  }

  // Executed exactly once despite delivery needing a retransmission...
  EXPECT_EQ(server.scheduler().stats().total_completed(), 2u);
  // ...answered from the replay window on the resumed session.
  EXPECT_GE(server.net_stats().replay_hits, 1u);
  EXPECT_GE(server.net_stats().resumes, 1u);
  EXPECT_GE(client.counters().retries, 1u);
  EXPECT_GE(client.counters().resumes, 1u);
  EXPECT_EQ(proxy.killed(), 1u);

  client.close();
  proxy.stop();
  server.stop();
}

// Satellite regression: one byte of a frame header, then silence.  The
// read-progress clock anchors when the partial frame STARTS buffering,
// so the server must kill the connection within frame_timeout even
// though idle_timeout alone would never fire (and is not even set).
TEST(NetChaos, OneByteThenStopKilledByHeaderDeadline) {
  ServerConfig cfg;
  cfg.frame_timeout = 200ms;
  SpmvServer server(cfg);
  server.start();
  const int fd = raw_connect(server.port());
  const std::uint8_t byte = 'S';  // first magic byte of a real header
  ASSERT_EQ(::write(fd, &byte, 1), 1);
  const auto t0 = std::chrono::steady_clock::now();
  (void)read_to_eof(fd);  // EOF proves the server closed it
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ::close(fd);
  EXPECT_LT(elapsed, 5s);
  ASSERT_TRUE(
      wait_until([&] { return server.net_stats().progress_killed >= 1; }));
  server.stop();
}

// A trickler drips header bytes forever.  Each byte is "activity", but
// the progress deadline anchors at the frame start and only a COMPLETED
// frame re-arms it — so the drip cannot extend the deadline.
TEST(NetChaos, TricklerKilledDespiteContinuousBytes) {
  ServerConfig cfg;
  cfg.frame_timeout = 250ms;
  SpmvServer server(cfg);
  server.start();
  const int fd = raw_connect(server.port());
  const auto frame = encode_frame(FrameType::kHello, 1, {});
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t sent = 0;
  // One byte per 40ms: a full header would take ~1.1s against a 250ms
  // progress deadline.  The write eventually fails (EPIPE/RST) once the
  // server kills the connection.
  while (sent < frame.size()) {
    if (::send(fd, frame.data() + sent, 1, MSG_NOSIGNAL) != 1) break;
    ++sent;
    std::this_thread::sleep_for(40ms);
    if (std::chrono::steady_clock::now() - t0 > 10s) break;
  }
  ::close(fd);
  ASSERT_TRUE(
      wait_until([&] { return server.net_stats().progress_killed >= 1; }));
  EXPECT_LT(sent, frame.size()) << "server should have cut the trickler";
  server.stop();
}

// A peer that completes a valid header and then stalls inside the
// payload is held to the same deadline as a header trickler: the partial
// frame must complete within frame_timeout of its first byte.  Here a
// HELLO header announces 1 KiB, 10 payload bytes follow, then silence.
TEST(NetChaos, StalledBodyKilledByFrameDeadline) {
  ServerConfig cfg;
  cfg.frame_timeout = 200ms;
  SpmvServer server(cfg);
  server.start();
  const int fd = raw_connect(server.port());
  const std::vector<std::uint8_t> payload(1024, 0);
  const auto frame = encode_frame(FrameType::kHello, 1, payload);
  const std::size_t partial = kHeaderSize + 10;
  ASSERT_EQ(::send(fd, frame.data(), partial, MSG_NOSIGNAL),
            static_cast<ssize_t>(partial));
  // Bounded wait first: a server that never kills the stalled body must
  // fail here, not hang in the blocking read below.
  ASSERT_TRUE(
      wait_until([&] { return server.net_stats().progress_killed >= 1; }))
      << "stalled payload was never killed";
  (void)read_to_eof(fd);  // EOF proves the server closed it
  ::close(fd);
  server.stop();
}

// A peer that stops reading while replies queue up: once the unsent
// backlog exceeds write_stall_bytes with no drain progress for
// write_stall_timeout, the server kills the connection instead of
// pinning reply memory forever.
TEST(NetChaos, WriteStalledPeerKilled) {
  ServerConfig cfg;
  cfg.write_stall_bytes = 64 * 1024;
  cfg.write_stall_timeout = 200ms;
  // The kernel's send buffer (auto-tuned to megabytes) must fill before
  // the user-space write queue starts growing, so the test needs a deep
  // in-flight window and many large replies.
  cfg.default_quota = 1024;
  SpmvServer server(cfg);
  server.start();
  const TestMatrix m = tridiag(4096);
  load_inprocess(server, m);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  // Tiny receive window: the server's kernel send buffer fills almost
  // immediately, so the backlog accumulates in its user-space write
  // queue where the stall detector watches it.
  const int rcvbuf = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);

  const auto send_all = [&](const std::vector<std::uint8_t>& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t w =
          ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (w <= 0) return false;
      off += static_cast<std::size_t>(w);
    }
    return true;
  };

  HelloRequest hello;
  hello.client_name = "write-staller";
  ASSERT_TRUE(send_all(encode_frame(FrameType::kHello, 1, encode_hello(hello))));
  // 256 multiplies with dense 4096-element operands: ~8 MiB of replies
  // aimed at a reader that never reads — enough to fill any auto-tuned
  // kernel send buffer and spill into the server's write queue.
  const auto x = random_x(m.n, 3);
  for (std::uint64_t id = 2; id < 258; ++id) {
    MultiplyRequest req;
    req.name = "A";
    OperandSpec spec;
    spec.mode = OperandMode::kFull;
    spec.n = m.n;
    spec.full = x;
    req.operand = std::move(spec);
    if (!send_all(encode_frame(FrameType::kMultiply, id,
                               encode_multiply(req)))) {
      break;  // server may already have cut us — that is the point
    }
  }
  ASSERT_TRUE(wait_until(
      [&] { return server.net_stats().write_stall_killed >= 1; }, 15000ms));
  ::close(fd);
  server.stop();
}

// The cumulative per-RPC budget caps the whole retry ladder, and the
// breaker fails fast once the server stays unreachable.
TEST(NetChaos, RpcBudgetCapsLadderAndBreakerFailsFast) {
  auto server = std::make_unique<SpmvServer>();
  server->start();
  const std::uint16_t port = server->port();
  const TestMatrix m = tridiag(32);
  load_inprocess(*server, m);

  ClientOptions copts;
  copts.port = port;
  copts.timeout = 200ms;
  copts.rpc_budget = 600ms;
  copts.retry.enabled = true;
  copts.retry.max_attempts = 1000;
  copts.retry.backoff_base = 1ms;
  copts.retry.backoff_cap = 10ms;
  copts.retry.breaker_threshold = 3;
  copts.retry.breaker_cooldown = 10000ms;
  SpmvNetClient client(copts);
  client.connect();
  const auto x = random_x(m.n, 4);
  ASSERT_EQ(client.multiply("A", x).status, StatusCode::kOk);

  server->stop();
  server.reset();  // the port now refuses connections

  const auto t0 = std::chrono::steady_clock::now();
  const auto r = client.multiply("A", x);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(r.status, StatusCode::kConnectionLost);
  // The ladder ran multiple attempts but stopped at the budget, not at
  // max_attempts and not per-syscall.
  EXPECT_GE(client.counters().retries, 1u);
  EXPECT_LT(elapsed, 5s);
  EXPECT_GE(client.counters().breaker_open_events, 1u);

  // Breaker is open with a long cooldown: the next call fails fast.
  const auto t1 = std::chrono::steady_clock::now();
  const auto r2 = client.multiply("A", x);
  const auto fast = std::chrono::steady_clock::now() - t1;
  EXPECT_EQ(r2.status, StatusCode::kConnectionLost);
  EXPECT_LT(fast, 100ms);
  EXPECT_GE(client.counters().breaker_fast_fails, 1u);
}

}  // namespace
}  // namespace spmv::net
