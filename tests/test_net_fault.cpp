// Seeded fault-injection tests for the network front-end: accept
// failures, failed batches, pathological partial writes, and slow
// clients.  Only built under -DSPMV_FAULT_INJECTION=ON; suites are named
// FaultNet* so the spmv_fault CTest filter (Serve*:Fault*) picks them up.
//
// The invariants under fire: every admitted request gets exactly one
// reply (never lost, never doubled), sessions always reap, and the
// server survives a storm of all three faults at once.
#include "util/fault_point.h"

#if defined(SPMV_FAULT_INJECTION)

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <random>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "support/chaos_proxy.h"

namespace spmv::net {
namespace {

using namespace std::chrono_literals;

class FaultArm {
 public:
  explicit FaultArm(std::uint64_t seed) { FaultInjector::instance().arm(seed); }
  ~FaultArm() { FaultInjector::instance().disarm(); }
  FaultArm(const FaultArm&) = delete;
  FaultArm& operator=(const FaultArm&) = delete;
};

struct TestMatrix {
  std::uint32_t n;
  std::vector<std::uint64_t> row_ptr;
  std::vector<std::uint32_t> col_idx;
  std::vector<double> values;
};

TestMatrix tridiag(std::uint32_t n) {
  TestMatrix m;
  m.n = n;
  m.row_ptr.push_back(0);
  for (std::uint32_t r = 0; r < n; ++r) {
    if (r > 0) {
      m.col_idx.push_back(r - 1);
      m.values.push_back(-1.0);
    }
    m.col_idx.push_back(r);
    m.values.push_back(2.0);
    if (r + 1 < n) {
      m.col_idx.push_back(r + 1);
      m.values.push_back(-1.0);
    }
    m.row_ptr.push_back(m.col_idx.size());
  }
  return m;
}

std::vector<double> random_x(std::uint32_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  std::vector<double> x(n);
  for (auto& v : x) v = d(rng);
  return x;
}

// Accept failures drop some connections before any session exists; the
// survivors work normally and the failed accepts leak nothing.
TEST(FaultNet, AcceptFailuresLeaveSurvivorsServing) {
  FaultArm arm(0xACCE97);
  FaultInjector::instance().set_rate("net.accept_fail", 0.5);

  SpmvServer server;
  server.start();
  const TestMatrix m = tridiag(65);

  int connected = 0;
  int refused = 0;
  bool uploaded = false;
  for (int attempt = 0; attempt < 12; ++attempt) {
    ClientOptions copts;
    copts.port = server.port();
    copts.timeout = 2000ms;
    SpmvNetClient client(copts);
    try {
      client.connect();
    } catch (const std::exception&) {
      ++refused;  // the injected accept failure reset us
      continue;
    }
    ++connected;
    if (!uploaded) {
      ASSERT_EQ(
          client.upload("A", m.n, m.n, m.row_ptr, m.col_idx, m.values).status,
          StatusCode::kOk);
      uploaded = true;
    }
    const auto x = random_x(m.n, 50 + attempt);
    EXPECT_EQ(client.multiply("A", x).status, StatusCode::kOk);
  }
  EXPECT_GT(connected, 0) << "a 0.5 rate must let some through";
  EXPECT_GT(refused, 0) << "a 0.5 rate must refuse some";
  server.stop();
  EXPECT_EQ(server.sessions().active(), 0u);
}

// A batch whose multiply throws answers STATUS kInternal with the
// exception's message, counts in the session's failed total, and leaves
// the connection serving: the next multiply succeeds, bit-identically.
TEST(FaultNet, FailedBatchAnswersInternal) {
  FaultArm arm(0xFA17);
  SpmvServer server;
  server.start();
  const TestMatrix m = tridiag(41);
  ClientOptions copts;
  copts.port = server.port();
  SpmvNetClient client(copts);
  client.connect();
  ASSERT_EQ(
      client.upload("A", m.n, m.n, m.row_ptr, m.col_idx, m.values).status,
      StatusCode::kOk);
  const auto x = random_x(m.n, 61);
  const auto first = client.multiply("A", x);
  ASSERT_EQ(first.status, StatusCode::kOk) << first.message;

  FaultInjector::instance().set_rate("scheduler.dispatch_fail", 1.0);
  const auto failed = client.multiply("A", x);
  EXPECT_EQ(failed.status, StatusCode::kInternal);
  EXPECT_EQ(failed.message, "serve: injected dispatch failure");
  StatsResult stats;
  ASSERT_TRUE(client.stats(stats));
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 1u);

  FaultInjector::instance().set_rate("scheduler.dispatch_fail", 0.0);
  const auto again = client.multiply("A", x);
  ASSERT_EQ(again.status, StatusCode::kOk) << again.message;
  ASSERT_EQ(again.y.size(), first.y.size());
  EXPECT_EQ(std::memcmp(again.y.data(), first.y.data(),
                        first.y.size() * sizeof(double)),
            0);
  server.stop();
}

// Every write capped to one byte: frames trickle out through the
// POLLOUT resume path, yet every reply still arrives exactly once and
// byte-identical.
TEST(FaultNet, PartialWritesDeliverEveryReplyIntact) {
  FaultArm arm(0x9A47);
  FaultInjector::instance().set_rate("net.partial_write", 1.0);

  SpmvServer server;
  server.start();
  const TestMatrix m = tridiag(33);
  ClientOptions copts;
  copts.port = server.port();
  copts.timeout = 10000ms;  // one byte per write is slow on purpose
  SpmvNetClient client(copts);
  client.connect();
  ASSERT_EQ(
      client.upload("A", m.n, m.n, m.row_ptr, m.col_idx, m.values).status,
      StatusCode::kOk);
  const auto x = random_x(m.n, 77);
  const auto first = client.multiply("A", x);
  ASSERT_EQ(first.status, StatusCode::kOk) << first.message;
  for (int i = 0; i < 5; ++i) {
    const auto r = client.multiply("A", x);
    ASSERT_EQ(r.status, StatusCode::kOk) << r.message;
    ASSERT_EQ(r.y.size(), first.y.size());
    EXPECT_EQ(std::memcmp(r.y.data(), first.y.data(),
                          r.y.size() * sizeof(double)),
              0);
  }
  server.stop();
}

// Slow clients (injected read-path delay) must not wedge the reaper or
// the other connection sharing the I/O thread.
TEST(FaultNet, SlowClientDoesNotStallNeighbors) {
  FaultArm arm(0x510C);
  FaultInjector::instance().set_rate("net.slow_client", 1.0);
  FaultInjector::instance().set_delay("net.slow_client", 2000us);

  ServerConfig cfg;
  cfg.io_threads = 1;  // force both clients onto one thread
  SpmvServer server(cfg);
  server.start();
  const TestMatrix m = tridiag(65);
  ClientOptions copts;
  copts.port = server.port();
  copts.timeout = 10000ms;
  SpmvNetClient a(copts);
  SpmvNetClient b(copts);
  a.connect();
  b.connect();
  ASSERT_EQ(a.upload("A", m.n, m.n, m.row_ptr, m.col_idx, m.values).status,
            StatusCode::kOk);
  const auto x = random_x(m.n, 99);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(a.multiply("A", x).status, StatusCode::kOk);
    EXPECT_EQ(b.multiply("A", x).status, StatusCode::kOk);
  }
  server.stop();
  EXPECT_EQ(server.sessions().active(), 0u);
}

// The storm: all three faults at once, several clients, abrupt
// disconnects.  Invariants: the server stays up, every reply that
// arrives is for a request this client sent (exactly-once by id), and
// after stop() no session or connection survives.
TEST(FaultNet, FaultStormNeverLosesOrDoublesReplies) {
  FaultArm arm(0x570A11);
  auto& fi = FaultInjector::instance();
  fi.set_rate("net.accept_fail", 0.2);
  fi.set_rate("net.partial_write", 0.3);
  fi.set_rate("net.slow_client", 0.2);
  fi.set_delay("net.slow_client", 500us);

  ServerConfig cfg;
  cfg.io_threads = 2;
  cfg.idle_timeout = 200ms;
  SpmvServer server(cfg);
  server.start();
  const TestMatrix m = tridiag(65);
  {
    // Uploader may be refused by accept_fail: retry until through.
    for (int attempt = 0;; ++attempt) {
      ASSERT_LT(attempt, 20) << "could not connect through accept faults";
      ClientOptions copts;
      copts.port = server.port();
      copts.timeout = 5000ms;
      SpmvNetClient up(copts);
      try {
        up.connect();
      } catch (const std::exception&) {
        continue;
      }
      ASSERT_EQ(
          up.upload("A", m.n, m.n, m.row_ptr, m.col_idx, m.values).status,
          StatusCode::kOk);
      break;
    }
  }

  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> replies{0};
  for (int c = 0; c < 4; ++c) {
    threads.emplace_back([&, c] {
      std::mt19937 rng(1000 + c);
      for (int round = 0; round < 3; ++round) {
        ClientOptions copts;
        copts.port = server.port();
        copts.timeout = 10000ms;
        SpmvNetClient client(copts);
        try {
          client.connect();
        } catch (const std::exception&) {
          continue;  // accept fault; next round
        }
        const auto x = random_x(m.n, rng());
        for (int s = 0; s < 5; ++s) {
          const auto r = client.multiply("A", x);
          // Any terminal status is acceptable under the storm; a reply
          // routed to the wrong request id would throw in the client's
          // frame router and fail the test via the catch below.
          if (r.status == StatusCode::kOk ||
              r.status == StatusCode::kConnectionLost) {
            // relaxed: test-only tally.
            replies.fetch_add(1, std::memory_order_relaxed);
          }
          if (r.status == StatusCode::kConnectionLost) break;
        }
        if (round == 1) client.close();  // abrupt disconnect mid-session
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GT(replies.load(std::memory_order_relaxed), 0u);

  server.stop();
  EXPECT_EQ(server.sessions().active(), 0u);
  EXPECT_EQ(server.net_stats().active_connections, 0u);
  const auto s = server.net_stats();
  // Every admitted request was answered or its completion was dropped
  // against a dead connection — nothing is still pending after stop().
  EXPECT_GE(s.responses + s.completions_dropped, s.requests);
}

// net.resume_reject: the server refuses every resume offer, as if the
// parked session were already reaped.  With a retransmission pending,
// the only honest answer is kRetryUnknown — the replay window that knew
// the outcome died with the old session, so re-sending on the fresh one
// would silently re-execute.  The ladder must abandon the retransmit,
// leave the fresh session healthy, and let the caller re-issue under a
// NEW id; exactly-once is never degraded behind the caller's back.
TEST(FaultNet, ResumeRejectedAbandonsRetransmitWithUnknown) {
  FaultArm arm(0x4E5137);
  FaultInjector::instance().set_rate("net.resume_reject", 1.0);

  ServerConfig cfg;
  cfg.resume_timeout = 2000ms;
  SpmvServer server(cfg);
  server.start();
  const TestMatrix m = tridiag(65);

  ChaosProxyConfig pcfg;
  pcfg.upstream_port = server.port();
  ChaosProxy proxy(pcfg);
  proxy.start();

  ClientOptions copts;
  copts.port = proxy.port();
  copts.timeout = 1000ms;
  copts.rpc_budget = 10000ms;
  copts.retry.enabled = true;
  copts.retry.backoff_base = 1ms;
  copts.retry.backoff_cap = 10ms;
  SpmvNetClient client(copts);
  client.connect();
  ASSERT_EQ(
      client.upload("A", m.n, m.n, m.row_ptr, m.col_idx, m.values).status,
      StatusCode::kOk);
  const auto x = random_x(m.n, 7);
  ASSERT_EQ(client.multiply("A", x).status, StatusCode::kOk);

  proxy.kill_all();
  std::this_thread::sleep_for(20ms);

  const auto r = client.multiply("A", x);
  EXPECT_EQ(r.status, StatusCode::kRetryUnknown) << r.message;
  EXPECT_FALSE(client.resumed()) << "resume must have been rejected";
  EXPECT_GE(client.counters().resume_rejected, 1u);
  EXPECT_GE(client.counters().retry_abandoned, 1u);
  EXPECT_GE(server.net_stats().resume_rejected, 1u);
  EXPECT_GE(server.net_stats().sessions_opened, 2u);
  // The abandoned retransmission never reached the fresh session: only
  // the first multiply executed.
  EXPECT_EQ(server.scheduler().stats().total_completed(), 1u);

  // Recovery is the caller's decision: re-issuing under a NEW request id
  // on the (healthy) fresh session completes normally.
  ASSERT_TRUE(client.connected());
  const auto r2 = client.multiply("A", x);
  EXPECT_EQ(r2.status, StatusCode::kOk) << r2.message;
  EXPECT_EQ(server.scheduler().stats().total_completed(), 2u);

  client.close();
  proxy.stop();
  server.stop();
}

// net.replay_evict: every decided reply is evicted from the replay
// window immediately, so a retransmission of an executed-but-unacked
// multiply gets the honest kRetryUnknown answer — and, critically, is
// NOT blindly re-executed (the decided-id watermark still classifies
// it as a retransmission).
TEST(FaultNet, ReplayEvictedRetryAnswersUnknownWithoutReExecution) {
  FaultArm arm(0xE71C7);
  FaultInjector::instance().set_rate("net.replay_evict", 1.0);

  ServerConfig cfg;
  cfg.resume_timeout = 2000ms;
  SpmvServer server(cfg);
  server.start();
  const TestMatrix m = tridiag(65);

  ChaosProxyConfig pcfg;
  pcfg.upstream_port = server.port();
  ChaosProxy proxy(pcfg);
  proxy.start();

  ClientOptions copts;
  copts.port = proxy.port();
  copts.timeout = 1000ms;
  copts.rpc_budget = 10000ms;
  copts.retry.enabled = true;
  copts.retry.backoff_base = 1ms;
  copts.retry.backoff_cap = 10ms;
  SpmvNetClient client(copts);
  client.connect();
  ASSERT_EQ(
      client.upload("A", m.n, m.n, m.row_ptr, m.col_idx, m.values).status,
      StatusCode::kOk);
  const auto x = random_x(m.n, 8);
  ASSERT_EQ(client.multiply("A", x).status, StatusCode::kOk);
  ASSERT_EQ(server.scheduler().stats().total_completed(), 1u);

  // Drop exactly the next RESULT frame: the multiply executes, the
  // client never sees the reply, and the replay entry is already gone.
  proxy.kill_on_next_downstream();
  const auto r = client.multiply("A", x);
  EXPECT_EQ(r.status, StatusCode::kRetryUnknown) << r.message;
  // Executed once; the retransmission was answered, not re-run.
  EXPECT_EQ(server.scheduler().stats().total_completed(), 2u);
  EXPECT_GE(server.net_stats().retry_unknown, 1u);
  EXPECT_GE(client.counters().resumes, 1u);

  client.close();
  proxy.stop();
  server.stop();
}

}  // namespace
}  // namespace spmv::net

#endif  // SPMV_FAULT_INJECTION
