// Loopback integration tests for the network front-end: the full
// client -> wire -> SpmvServer -> Scheduler -> reply path, including the
// lifecycle semantics the protocol promises (deadline expiry over the
// wire, disconnect-cancels-in-flight, SHED as a status frame, drain
// shutdown answering everything in flight).  Runs in the spmv_concurrency
// CTest entry, so the whole stack is TSan-gated.
#include "net/server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <future>
#include <random>
#include <thread>
#include <vector>

#include "engine/execution_context.h"
#include "gen/generators.h"
#include "net/client.h"
#include "support/chaos_proxy.h"
#include "support/test_helpers.h"
#include "util/crc32.h"

namespace spmv::net {
namespace {

using namespace std::chrono_literals;

/// Server + uploaded tridiagonal matrix + connected client.
struct Loop {
  explicit Loop(ServerConfig config = {}, std::uint32_t n = 257,
                ClientOptions copts = {})
      : server(std::move(config)), m(tridiag(n)) {
    server.start();
    copts.port = server.port();
    client = std::make_unique<SpmvNetClient>(copts);
    client->connect();
    const auto up =
        client->upload("A", m.n, m.n, m.row_ptr, m.col_idx, m.values);
    EXPECT_EQ(up.status, StatusCode::kOk) << up.message;
  }

  SpmvServer server;
  TestMatrix m;
  std::unique_ptr<SpmvNetClient> client;
};

bool wait_until(const std::function<bool()>& pred,
                std::chrono::milliseconds limit = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return pred();
}

// Regression: terminal rejections are windowed separately from executed
// results, so a burst of rejections (quota, shutdown, bad request, ...)
// cannot evict an executed result whose in-window retry must replay
// verbatim rather than degrade to kRetryUnknown.
TEST(NetSession, RejectionBurstDoesNotEvictExecutedReplays) {
  ClientSlot slot(/*id=*/1, /*quota=*/4, /*token=*/0x5eed);
  const std::size_t window = 4;
  const std::vector<std::uint8_t> result_frame{1, 2, 3};
  slot.decide(/*request_id=*/1, result_frame, window, /*executed=*/true);
  const std::uint64_t last_reject = 1 + 4 * window;
  for (std::uint64_t id = 2; id <= last_reject; ++id) {
    slot.decide(id, {0xEE}, window, /*executed=*/false);
  }
  std::vector<std::uint8_t> replay;
  // The executed reply survives the burst, replayable verbatim...
  EXPECT_EQ(slot.classify(1, replay), RetryClass::kReplay);
  EXPECT_EQ(replay, result_frame);
  // ...recent rejections replay from their own window...
  EXPECT_EQ(slot.classify(last_reject, replay), RetryClass::kReplay);
  // ...and rejections evicted from it answer kRetryUnknown.
  EXPECT_EQ(slot.classify(2, replay), RetryClass::kUnknown);
}

// try_admit is check-and-reserve in one critical section; a terminal
// rejection decided after admission releases the reservation.
TEST(NetSession, TryAdmitReservesUntilDecided) {
  ClientSlot slot(/*id=*/1, /*quota=*/1, /*token=*/0x5eed);
  EXPECT_TRUE(slot.try_admit(1));
  EXPECT_FALSE(slot.try_admit(2)) << "quota must be exhausted";
  slot.decide(1, {0xEE}, /*window=*/4, /*executed=*/false);
  EXPECT_TRUE(slot.try_admit(3)) << "decide must release the reservation";
}

TEST(NetLoopback, HelloGrantsClampedQuota) {
  ServerConfig cfg;
  cfg.max_quota = 8;
  SpmvServer server(cfg);
  server.start();
  ClientOptions copts;
  copts.port = server.port();
  copts.requested_quota = 1000;  // above max: clamped
  SpmvNetClient client(copts);
  client.connect();
  EXPECT_GT(client.session_id(), 0u);
  EXPECT_EQ(client.quota(), 8u);
  EXPECT_EQ(server.sessions().active(), 1u);
}

TEST(NetLoopback, MultiplyMatchesReference) {
  Loop loop;
  const auto x = random_x(loop.m.n, 1);
  const auto r = loop.client->multiply("A", x);
  ASSERT_EQ(r.status, StatusCode::kOk) << r.message;
  const auto want = reference(loop.m, x);
  ASSERT_EQ(r.y.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(r.y[i], want[i], 1e-12) << "i=" << i;
  }
}

// The acceptance criterion: a delta-updated operand produces a result
// bit-identical to shipping the full vector.
TEST(NetLoopback, DeltaBitIdenticalToFullUpload) {
  ServerConfig cfg;
  Loop loop(cfg);

  // Second client on the same matrix, forced to always ship dense.
  ClientOptions full_opts;
  full_opts.port = loop.server.port();
  full_opts.delta_mode = ClientOptions::DeltaMode::kAlwaysFull;
  SpmvNetClient full_client(full_opts);
  full_client.connect();

  auto x = random_x(loop.m.n, 2);
  std::mt19937 rng(3);
  std::uniform_int_distribution<std::uint32_t> idx(0, loop.m.n - 1);
  for (int step = 0; step < 10; ++step) {
    const auto rd = loop.client->multiply("A", x);
    const auto rf = full_client.multiply("A", x);
    ASSERT_EQ(rd.status, StatusCode::kOk) << rd.message;
    ASSERT_EQ(rf.status, StatusCode::kOk) << rf.message;
    ASSERT_EQ(rd.y.size(), rf.y.size());
    EXPECT_EQ(std::memcmp(rd.y.data(), rf.y.data(),
                          rd.y.size() * sizeof(double)),
              0)
        << "step " << step;
    // ~1% churn, plus a -0.0 to keep the bit-pattern diff honest.
    for (std::uint32_t k = 0; k < loop.m.n / 100 + 1; ++k) {
      x[idx(rng)] += 0.25;
    }
    x[idx(rng)] = -0.0;
  }
  // The delta client actually used the encoding (not dense fallbacks).
  EXPECT_GE(loop.client->counters().delta_operands, 8u);
  EXPECT_LT(loop.client->counters().operand_bytes_sent,
            loop.client->counters().operand_bytes_dense / 2);
}

TEST(NetLoopback, CachedOperandReusesServerCopy) {
  Loop loop;
  const auto x = random_x(loop.m.n, 4);
  const auto r1 = loop.client->multiply("A", x);
  ASSERT_EQ(r1.status, StatusCode::kOk);
  // The same x again: the client ships kCached, the server reuses its copy.
  const auto r2 = loop.client->multiply("A", x);
  ASSERT_EQ(r2.status, StatusCode::kOk);
  EXPECT_EQ(
      std::memcmp(r1.y.data(), r2.y.data(), r1.y.size() * sizeof(double)), 0);
  EXPECT_GE(loop.client->counters().cached_operands, 1u);
}

// k operands in flight are k pipelined MULTIPLYs.  Their deltas chain
// through the session cache in arrival order, while each request
// executes against the snapshot it pinned: all three are applied to the
// cache before anything runs, so the first must still compute A·x0 even
// though the cache already holds x1 by then.
TEST(NetLoopback, PipelinedDeltasPinTheirOwnSnapshots) {
  ServerConfig cfg;
  cfg.scheduler.start_paused = true;
  ClientOptions copts;
  copts.requested_quota = 3;
  Loop loop(cfg, 257, copts);
  const auto x0 = random_x(loop.m.n, 5);
  auto x1 = x0;
  x1[10] += 1.0;
  const std::uint64_t ids[] = {
      loop.client->begin_multiply("A", x0),  // ships full
      loop.client->begin_multiply("A", x1),  // ships a delta against x0
      loop.client->begin_multiply("A", x1),  // ships cached
  };
  ASSERT_TRUE(wait_until([&] { return loop.server.net_stats().requests == 3; }))
      << "server never admitted the three multiplies";
  loop.server.scheduler().resume();
  const std::vector<double>* xs[] = {&x0, &x1, &x1};
  for (std::size_t i = 0; i < 3; ++i) {
    const auto r = loop.client->await(ids[i]);
    ASSERT_EQ(r.status, StatusCode::kOk) << "request " << i << ": "
                                         << r.message;
    const auto want = reference(loop.m, *xs[i]);
    ASSERT_EQ(r.y.size(), want.size());
    for (std::size_t j = 0; j < want.size(); ++j) {
      EXPECT_NEAR(r.y[j], want[j], 1e-12) << "request " << i << " j=" << j;
    }
  }
  EXPECT_GE(loop.client->counters().delta_operands, 1u);
  EXPECT_GE(loop.client->counters().cached_operands, 1u);
}

TEST(NetLoopback, UnknownMatrixAnswered) {
  Loop loop;
  const auto x = random_x(loop.m.n, 6);
  const auto r = loop.client->multiply("nope", x);
  EXPECT_EQ(r.status, StatusCode::kUnknownMatrix);
}

TEST(NetLoopback, MalformedUploadAnswersBadRequest) {
  Loop loop;
  // row_ptr claims more entries than values supplies: CsrMatrix rejects.
  const auto r = loop.client->upload("bad", 2, 2, {0, 1, 5}, {0}, {1.0});
  EXPECT_EQ(r.status, StatusCode::kBadRequest);
}

// Deadline expiry travels the wire: queue behind a paused dispatcher
// with a short deadline, let it lapse, resume -> DEADLINE_EXCEEDED frame.
TEST(NetLoopback, DeadlineExpiryOverWire) {
  ServerConfig cfg;
  cfg.scheduler.start_paused = true;
  Loop loop(cfg);
  const auto x = random_x(loop.m.n, 7);
  const auto id =
      loop.client->begin_multiply("A", x, /*deadline_us=*/2000);
  std::this_thread::sleep_for(20ms);
  loop.server.scheduler().resume();
  const auto r = loop.client->await(id);
  EXPECT_EQ(r.status, StatusCode::kDeadlineExceeded) << r.message;
  const auto stats = loop.server.scheduler().stats();
  EXPECT_GE(stats.data_plane.requests_expired, 1u);
}

// CANCEL over the wire: delivery acknowledged kOk, the target resolves
// kCancelled, and its y buffer is never written.
TEST(NetLoopback, CancelOverWire) {
  ServerConfig cfg;
  cfg.scheduler.start_paused = true;
  Loop loop(cfg);
  const auto x = random_x(loop.m.n, 8);
  const auto id = loop.client->begin_multiply("A", x);
  const auto ack = loop.client->cancel(id);
  EXPECT_EQ(ack.status, StatusCode::kOk) << ack.message;
  loop.server.scheduler().resume();
  const auto r = loop.client->await(id);
  EXPECT_EQ(r.status, StatusCode::kCancelled) << r.message;
  const auto miss = loop.client->cancel(id + 1000);
  EXPECT_EQ(miss.status, StatusCode::kNotFound);
}

// Mid-request disconnect: the server cancels everything the connection
// had in flight, reaps the session, and drops the orphaned completions
// exactly once — zero leaked sessions, zero leaked futures (ASan/TSan
// close the loop on the leak half).
TEST(NetLoopback, DisconnectCancelsInFlight) {
  ServerConfig cfg;
  cfg.scheduler.start_paused = true;
  Loop loop(cfg);
  const auto x = random_x(loop.m.n, 9);
  (void)loop.client->begin_multiply("A", x);
  (void)loop.client->begin_multiply("A", x);
  loop.client->close();  // abrupt: no GOODBYE
  ASSERT_TRUE(wait_until([&] { return loop.server.sessions().active() == 0; }))
      << "session not reaped after disconnect";
  loop.server.scheduler().resume();
  ASSERT_TRUE(wait_until([&] {
    const auto s = loop.server.scheduler().stats();
    return s.data_plane.requests_cancelled >= 2;
  })) << "disconnect did not cancel in-flight requests";
  ASSERT_TRUE(wait_until([&] {
    return loop.server.net_stats().completions_dropped >= 2;
  })) << "orphaned completions not accounted";
  EXPECT_EQ(loop.server.net_stats().active_connections, 0u);
}

// Admission control surfaces as a SHED status frame: saturate a tiny
// paused queue under OverflowPolicy::kShed.
TEST(NetLoopback, ShedAnsweredAsShedFrame) {
  ServerConfig cfg;
  cfg.scheduler.queue_capacity = 4;
  cfg.scheduler.overflow = serve::SchedulerConfig::OverflowPolicy::kShed;
  cfg.scheduler.start_paused = true;
  ClientOptions copts;
  copts.requested_quota = 64;
  Loop loop(cfg, 257, copts);
  const auto x = random_x(loop.m.n, 10);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 16; ++i) {
    ids.push_back(loop.client->begin_multiply("A", x));
  }
  // Resume only once the server has taken all 16 frames: resuming while
  // the I/O thread is still reading them lets the dispatcher drain the
  // queue as fast as it fills, and nothing sheds.
  ASSERT_TRUE(
      wait_until([&] { return loop.server.net_stats().requests == 16; }))
      << "server never admitted the 16 multiplies";
  loop.server.scheduler().resume();
  int ok = 0;
  int shed = 0;
  for (const auto id : ids) {
    const auto r = loop.client->await(id);
    if (r.status == StatusCode::kOk) ++ok;
    if (r.status == StatusCode::kShed) ++shed;
  }
  EXPECT_EQ(ok + shed, 16);
  EXPECT_GE(shed, 1) << "tiny paused queue must have shed";
  EXPECT_GE(loop.server.net_stats().shed_replies, static_cast<uint64_t>(shed));
}

TEST(NetLoopback, QuotaExceededAnswered) {
  ServerConfig cfg;
  cfg.scheduler.start_paused = true;
  ClientOptions copts;
  copts.requested_quota = 2;
  Loop loop(cfg, 257, copts);
  const auto x = random_x(loop.m.n, 11);
  const auto a = loop.client->begin_multiply("A", x);
  const auto b = loop.client->begin_multiply("A", x);
  const auto r = loop.client->multiply("A", x);  // third in flight: over quota
  EXPECT_EQ(r.status, StatusCode::kQuotaExceeded);
  loop.server.scheduler().resume();
  EXPECT_EQ(loop.client->await(a).status, StatusCode::kOk);
  EXPECT_EQ(loop.client->await(b).status, StatusCode::kOk);
  // Quota released: a new request is admitted again.
  EXPECT_EQ(loop.client->multiply("A", x).status, StatusCode::kOk);
}

// Regression: a rejected multiply must leave the client shadow and the
// server's session cache in agreement.  The server applies a structurally
// valid operand to the cache even when it refuses the request
// (here: over quota while pipelining), so the next delta still patches
// the base the client diffed against — without that, the server would
// answer kOk with silently wrong y forever after.
TEST(NetLoopback, RejectedMultiplyKeepsCacheInSync) {
  ServerConfig cfg;
  cfg.scheduler.start_paused = true;
  ClientOptions copts;
  copts.requested_quota = 1;
  Loop loop(cfg, 257, copts);
  auto x = random_x(loop.m.n, 20);
  const auto a = loop.client->begin_multiply("A", x);  // fills the quota
  x[3] += 1.0;
  // Pipelined past the quota: rejected, but its delta advanced both the
  // shadow (at send) and the server cache (at admission).
  const auto b = loop.client->begin_multiply("A", x);
  // Await the rejection while the scheduler is still paused: `a` cannot
  // complete yet, so the server reads b's frame with the quota full —
  // resuming first would race b's admission against a's completion.
  ASSERT_EQ(loop.client->await(b).status, StatusCode::kQuotaExceeded);
  loop.server.scheduler().resume();
  ASSERT_EQ(loop.client->await(a).status, StatusCode::kOk);
  x[200] += 2.0;
  const auto r = loop.client->multiply("A", x);
  ASSERT_EQ(r.status, StatusCode::kOk) << r.message;
  EXPECT_GE(loop.client->counters().delta_operands, 2u);
  const auto want = reference(loop.m, x);
  ASSERT_EQ(r.y.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_NEAR(r.y[i], want[i], 1e-12) << "i=" << i;
  }
}

// Regression: close() must drop the shadow with the rest of the session
// state — the new session after a reconnect has no server-side cache, so
// the first operand must ship full, not delta/cached.
TEST(NetLoopback, ReconnectShipsFullOperand) {
  Loop loop;
  auto x = random_x(loop.m.n, 21);
  ASSERT_EQ(loop.client->multiply("A", x).status, StatusCode::kOk);
  loop.client->close();
  EXPECT_FALSE(loop.client->connected());
  EXPECT_EQ(loop.client->session_id(), 0u);
  loop.client->connect();
  x[7] += 1.0;  // would encode as a tiny delta if the shadow survived
  const auto r = loop.client->multiply("A", x);
  ASSERT_EQ(r.status, StatusCode::kOk) << r.message;
  EXPECT_EQ(loop.client->counters().full_operands, 2u);
  EXPECT_EQ(loop.client->counters().delta_operands, 0u);
  const auto want = reference(loop.m, x);
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_NEAR(r.y[i], want[i], 1e-12) << "i=" << i;
  }
}

// Drain shutdown: every request in flight when stop() begins is answered
// before the listener closes — none lost, none reset.
TEST(NetLoopback, DrainAnswersAllInFlight) {
  Loop loop;
  const auto x = random_x(loop.m.n, 12);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(loop.client->begin_multiply("A", x));
  }
  loop.server.stop();
  int answered = 0;
  for (const auto id : ids) {
    const auto r = loop.client->await(id);
    // kOk for whatever dispatched, kShutdown for whatever the drain
    // failed fast — but always an answer, never a dead socket.
    EXPECT_TRUE(r.status == StatusCode::kOk ||
                r.status == StatusCode::kShutdown)
        << to_string(r.status) << ": " << r.message;
    if (r.status != StatusCode::kConnectionLost) ++answered;
  }
  EXPECT_EQ(answered, 8);
}

TEST(NetLoopback, GoodbyeAnnouncedOnDrain) {
  Loop loop;
  const auto x = random_x(loop.m.n, 13);
  ASSERT_EQ(loop.client->multiply("A", x).status, StatusCode::kOk);
  loop.server.stop();
  // The drain GOODBYE (request id 0) is sitting in the socket; any await
  // routes past it and records it.
  StatsResult unused;
  (void)loop.client->stats(unused);  // fails: connection winds down
  EXPECT_TRUE(loop.client->server_goodbye());
}

TEST(NetLoopback, IdleSessionsReaped) {
  ServerConfig cfg;
  cfg.idle_timeout = 50ms;
  Loop loop(cfg);
  ASSERT_EQ(loop.server.sessions().active(), 1u);
  ASSERT_TRUE(wait_until([&] { return loop.server.sessions().active() == 0; },
                         3000ms))
      << "idle session never reaped";
  EXPECT_GE(loop.server.net_stats().idle_reaped, 1u);
}

TEST(NetLoopback, HealthReportsReady) {
  Loop loop;
  HealthResult h;
  ASSERT_TRUE(loop.client->health(h));
  EXPECT_EQ(h.ready, 1);
  EXPECT_EQ(h.draining, 0);
}

TEST(NetLoopback, StatsReportDeltaSavings) {
  Loop loop;
  auto x = random_x(loop.m.n, 14);
  ASSERT_EQ(loop.client->multiply("A", x).status, StatusCode::kOk);
  x[5] += 1.0;
  ASSERT_EQ(loop.client->multiply("A", x).status, StatusCode::kOk);
  StatsResult s;
  ASSERT_TRUE(loop.client->stats(s));
  EXPECT_EQ(s.requests, 2u);
  EXPECT_EQ(s.completed, 2u);
  EXPECT_EQ(s.full_operands, 1u);
  EXPECT_EQ(s.delta_operands, 1u);
  EXPECT_GT(s.delta_bytes_saved, 0u);
  EXPECT_EQ(s.active_sessions, 1u);
  EXPECT_GT(s.bytes_in, 0u);
  EXPECT_GT(s.bytes_out, 0u);
}

TEST(NetLoopback, LoneClientStopsLingering) {
  // The default ServerConfig lingers up to 100 us for company.  A lone
  // closed-loop client never has any, so after two missed windows its
  // calls dispatch at once instead of paying the window every time.
  Loop loop;
  auto x = random_x(loop.m.n, 15);
  for (int i = 0; i < 50; ++i) {
    x[static_cast<std::size_t>(i)] += 1.0;
    ASSERT_EQ(loop.client->multiply("A", x).status, StatusCode::kOk);
  }
  const auto plane = loop.server.scheduler().stats().data_plane;
  EXPECT_EQ(plane.lingers, 2u);
  EXPECT_EQ(plane.lingers_widened, 0u);
}

// --- wire-level misbehavior over a raw socket -------------------------------

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

/// Read until EOF (returns total bytes) — proves the server closed.
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

TEST(NetLoopback, GarbageBytesCloseConnection) {
  Loop loop;
  const int fd = raw_connect(loop.server.port());
  const char garbage[] = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_GT(::write(fd, garbage, sizeof garbage), 0);
  (void)read_to_eof(fd);  // server answers nothing and closes
  ::close(fd);
  ASSERT_TRUE(wait_until(
      [&] { return loop.server.net_stats().protocol_errors >= 1; }));
}

TEST(NetLoopback, RequestBeforeHelloRejected) {
  Loop loop;
  const int fd = raw_connect(loop.server.port());
  const auto frame = encode_frame(FrameType::kStats, 42, {});
  ASSERT_GT(::write(fd, frame.data(), frame.size()), 0);
  // Expect a STATUS kProtocolError reply, then EOF.
  std::vector<std::uint8_t> buf(4096);
  std::size_t got = 0;
  for (;;) {
    const ssize_t n = ::read(fd, buf.data() + got, buf.size() - got);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  FrameHeader h;
  std::span<const std::uint8_t> p;
  std::size_t consumed = 0;
  ASSERT_EQ(parse_frame(std::span(buf.data(), got), kMaxSanePayload, h, p,
                        consumed),
            ParseStatus::kFrame);
  EXPECT_EQ(h.type, FrameType::kStatus);
  EXPECT_EQ(h.request_id, 42u);
  StatusMsg msg;
  ASSERT_TRUE(decode_status(p, msg));
  EXPECT_EQ(msg.code, StatusCode::kProtocolError);
}

// A peer still speaking the retired type-4 multi-operand multiply gets
// what any unknown type gets: an addressed STATUS kProtocolError on its
// live session, then the connection closes.
TEST(NetLoopback, RetiredFrameTypeAnsweredProtocolError) {
  Loop loop;
  const int fd = raw_connect(loop.server.port());
  auto bytes = encode_frame(FrameType::kHello, 1, encode_hello({}));
  auto retired = encode_frame(FrameType::kStats, 9, {});
  retired[5] = 4;  // the type byte
  const std::uint32_t crc = crc32(retired.data(), kHeaderSize - 4);
  std::memcpy(retired.data() + kHeaderSize - 4, &crc, 4);
  bytes.insert(bytes.end(), retired.begin(), retired.end());
  // A receive timeout turns "never closed" into a failure, not a hang.
  const timeval limit{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &limit, sizeof limit);
  ASSERT_GT(::write(fd, bytes.data(), bytes.size()), 0);
  std::vector<std::uint8_t> buf(4096);
  std::size_t got = 0;
  ssize_t n = 0;
  for (;;) {
    n = ::read(fd, buf.data() + got, buf.size() - got);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  const bool closed = n == 0 || errno == ECONNRESET;
  ::close(fd);
  EXPECT_TRUE(closed) << "the server must close the connection";
  std::span<const std::uint8_t> rest(buf.data(), got);
  FrameHeader h;
  std::span<const std::uint8_t> p;
  std::size_t consumed = 0;
  ASSERT_EQ(parse_frame(rest, kMaxSanePayload, h, p, consumed),
            ParseStatus::kFrame);
  EXPECT_EQ(h.type, FrameType::kHelloOk);
  rest = rest.subspan(consumed);
  ASSERT_EQ(parse_frame(rest, kMaxSanePayload, h, p, consumed),
            ParseStatus::kFrame);
  EXPECT_EQ(h.type, FrameType::kStatus);
  EXPECT_EQ(h.request_id, 9u);
  StatusMsg msg;
  ASSERT_TRUE(decode_status(p, msg));
  EXPECT_EQ(msg.code, StatusCode::kProtocolError);
  EXPECT_EQ(rest.size(), consumed) << "nothing may follow the error";
}

TEST(NetLoopback, OversizedFrameRejectedBeforeBuffering) {
  ServerConfig cfg;
  cfg.max_payload = 1 << 10;
  SpmvServer server(cfg);
  server.start();
  const int fd = raw_connect(server.port());
  // Header advertising a 1 MiB payload against a 1 KiB limit: the server
  // must reject from the header alone, never buffering the payload.
  std::vector<std::uint8_t> huge(1 << 20, 0);
  const auto frame = encode_frame(FrameType::kMultiply, 7, huge);
  ASSERT_GT(::write(fd, frame.data(), kHeaderSize), 0);
  std::vector<std::uint8_t> buf(4096);
  std::size_t got = 0;
  for (;;) {
    const ssize_t n = ::read(fd, buf.data() + got, buf.size() - got);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  FrameHeader h;
  std::span<const std::uint8_t> p;
  std::size_t consumed = 0;
  ASSERT_EQ(parse_frame(std::span(buf.data(), got), kMaxSanePayload, h, p,
                        consumed),
            ParseStatus::kFrame);
  StatusMsg msg;
  ASSERT_TRUE(decode_status(p, msg));
  EXPECT_EQ(msg.code, StatusCode::kProtocolError);
}

// --- run to completion on the I/O thread ------------------------------------

serve::DataPlaneStats data_plane(SpmvServer& server) {
  return server.scheduler().stats().data_plane;
}

struct RawFrame {
  FrameHeader header;
  std::vector<std::uint8_t> payload;
};

/// Read from `fd` until `count` whole frames arrived (or the socket's
/// receive timeout or EOF ends the wait).
std::vector<RawFrame> read_frames(int fd, std::size_t count) {
  std::vector<std::uint8_t> buf;
  std::vector<RawFrame> out;
  while (out.size() < count) {
    FrameHeader h;
    std::span<const std::uint8_t> p;
    std::size_t consumed = 0;
    if (parse_frame(buf, kMaxSanePayload, h, p, consumed) ==
        ParseStatus::kFrame) {
      out.push_back({h, {p.begin(), p.end()}});
      buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(consumed));
      continue;
    }
    std::uint8_t chunk[65536];
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) break;
    buf.insert(buf.end(), chunk, chunk + n);
  }
  return out;
}

/// A raw connection past its HELLO, with a receive timeout so a missing
/// reply fails the test instead of hanging it.
int raw_session(std::uint16_t port) {
  const int fd = raw_connect(port);
  const timeval limit{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &limit, sizeof limit);
  const auto hello = encode_frame(FrameType::kHello, 1, encode_hello({}));
  EXPECT_EQ(::write(fd, hello.data(), hello.size()),
            static_cast<ssize_t>(hello.size()));
  const auto ok = read_frames(fd, 1);
  EXPECT_EQ(ok.size(), 1u);
  if (!ok.empty()) {
    EXPECT_EQ(ok[0].header.type, FrameType::kHelloOk);
  }
  return fd;
}

std::vector<std::uint8_t> multiply_frame(std::uint64_t request_id,
                                         const std::vector<double>& x,
                                         const std::string& name = "A") {
  MultiplyRequest req;
  req.name = name;
  req.operand.mode = OperandMode::kFull;
  req.operand.n = static_cast<std::uint32_t>(x.size());
  req.operand.full = x;
  return encode_frame(FrameType::kMultiply, request_id, encode_multiply(req));
}

/// The y of a MULTIPLY_RESULT frame (empty for any other frame).
std::vector<double> result_y(const RawFrame& f) {
  MultiplyResult res;
  if (f.header.type != FrameType::kMultiplyResult ||
      !decode_multiply_result(f.payload, res)) {
    return {};
  }
  return res.y;
}

/// Closed-loop calls of `name` on `client` until one runs inline (at
/// most `limit`); how many it took.
int calls_until_inline(SpmvServer& server, SpmvNetClient& client,
                       const std::vector<double>& x,
                       const std::string& name = "A", int limit = 20) {
  const std::uint64_t before = data_plane(server).inline_runs;
  int calls = 0;
  while (data_plane(server).inline_runs == before && calls < limit) {
    EXPECT_EQ(client.multiply(name, x).status, StatusCode::kOk);
    ++calls;
  }
  return calls;
}

TEST(NetInline, LoneClosedLoopClientRunsInlineAfterTwoCalls) {
  // The default config lingers up to 100 us.  A lone closed-loop client's
  // first two calls each wait out a window; then its matrix is disarmed,
  // and every call runs on the I/O thread that read it and is answered
  // in place, without waking the dispatcher.
  Loop loop;
  auto x = random_x(loop.m.n, 16);
  int step = 0;
  const auto call = [&] {
    x[static_cast<std::size_t>(step++)] += 1.0;
    const auto r = loop.client->multiply("A", x);
    ASSERT_EQ(r.status, StatusCode::kOk);
    const auto want = reference(loop.m, x);
    ASSERT_EQ(r.y.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_NEAR(r.y[i], want[i], 1e-12);
    }
  };
  for (int i = 0; i < 2; ++i) call();
  EXPECT_EQ(data_plane(loop.server).inline_runs, 0u);
  EXPECT_EQ(data_plane(loop.server).lingers, 2u);
  // Right after a dispatched call the dispatcher may hold the executor
  // token a moment longer before it parks, so allow the third call to
  // miss it.
  while (data_plane(loop.server).inline_runs == 0 && step < 5) call();
  ASSERT_EQ(data_plane(loop.server).inline_runs, 1u);

  const std::uint64_t sleeps = data_plane(loop.server).dispatcher_sleeps;
  constexpr int kCalls = 40;
  for (int i = 0; i < kCalls; ++i) call();
  const serve::DataPlaneStats plane = data_plane(loop.server);
  EXPECT_EQ(plane.inline_runs, 1u + kCalls);
  // At most the park the dispatcher may record after the first run.
  EXPECT_LE(plane.dispatcher_sleeps, sleeps + 1);
  EXPECT_EQ(plane.lingers, 2u);
}

TEST(NetInline, MultiplyWithAFrameBufferedBehindItIsNeverInline) {
  // A MULTIPLY followed by a complete frame in the same read is part of a
  // pipelined burst: it queues for the dispatcher even on a disarmed,
  // idle scheduler.
  Loop loop;
  const auto x = random_x(loop.m.n, 17);
  EXPECT_LE(calls_until_inline(loop.server, *loop.client, x), 5);
  ASSERT_EQ(data_plane(loop.server).inline_runs, 1u);

  const int fd = raw_session(loop.server.port());
  auto burst = multiply_frame(2, x);
  const auto health = encode_frame(FrameType::kHealth, 3, {});
  burst.insert(burst.end(), health.begin(), health.end());
  ASSERT_EQ(::write(fd, burst.data(), burst.size()),
            static_cast<ssize_t>(burst.size()));
  const auto replies = read_frames(fd, 2);
  ::close(fd);
  ASSERT_EQ(replies.size(), 2u);
  bool got_result = false;
  for (const RawFrame& f : replies) {
    if (f.header.request_id != 2) continue;
    const auto y = result_y(f);
    const auto want = reference(loop.m, x);
    ASSERT_EQ(y.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_NEAR(y[i], want[i], 1e-12);
    }
    got_result = true;
  }
  EXPECT_TRUE(got_result);
  EXPECT_EQ(data_plane(loop.server).inline_runs, 1u)
      << "a MULTIPLY with a frame buffered behind it ran inline";
}

TEST(NetInline, SecondReadableConnectionKeepsRequestsQueued) {
  // An inline run holds up its I/O thread, so a MULTIPLY runs inline only
  // when no other connection of that thread was readable in the same
  // poll round.  Block the one I/O thread inside an inline run of "A"
  // (its plan multiplies on a pool the test holds), send a MULTIPLY of
  // the fast serial "F" on each of two more connections meanwhile, then
  // let go: the next round finds both readable, and neither runs inline.
  // F keeps its own dispatch times, which the held run cannot inflate.
  engine::ExecutionContext ctx({.pin_threads = false});
  ServerConfig cfg;
  cfg.io_threads = 1;
  SpmvServer server(cfg);
  server.start();
  const CsrMatrix m = gen::banded(90, 3, 0.9, 18);
  server.registry().put("A", m, serve::serve_options(&ctx, 2));
  server.registry().put("F", m, serve::serve_options(&ctx, 1));
  const auto x = random_x(m.cols(), 19);
  const std::vector<double> expect_a =
      serve::direct_result(*server.registry().find("A"), x, 0.0);
  const std::vector<double> expect_f =
      serve::direct_result(*server.registry().find("F"), x, 0.0);
  ClientOptions copts;
  copts.port = server.port();
  SpmvNetClient client(copts);
  client.connect();
  // Disarm and measure both matrices; A last, so the dispatcher parks.
  EXPECT_LT(calls_until_inline(server, client, x, "F"), 20);
  const auto matrix_a = [&] {
    const serve::ServeStatsSnapshot snap = server.scheduler().stats();
    const serve::MatrixStatsSnapshot* a = snap.find("A");
    return a == nullptr ? serve::MatrixStatsSnapshot{} : *a;
  };
  const std::uint64_t dispatches_before = ctx.dispatches();
  if (calls_until_inline(server, client, x, "A", 200) == 200 &&
      data_plane(server).inline_runs == 1) {
    // Under heavy CPU contention A's pooled plan can keep its mean
    // dispatch time over the inline limit; then nothing may run inline,
    // and there is no inline run to hold.
    ASSERT_GE(matrix_a().dispatch_latency.mean_us(),
              static_cast<double>(serve::Scheduler::kInlineDispatchLimit.count()))
        << "no call of A ran inline";
    GTEST_SKIP() << "mean dispatch time over the inline limit on this host";
  }
  ASSERT_EQ(data_plane(server).inline_runs, 2u);
  ASSERT_GT(ctx.dispatches(), dispatches_before)
      << "A's plan must multiply through ctx's pool for the hold below";
  const int fd_a = raw_session(server.port());
  const int fd_b = raw_session(server.port());
  const auto samples = [&] { return matrix_a().queue_latency.count; };
  const std::uint64_t samples_before = samples();

  std::promise<void> entered;
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::thread holder([&] {
    ctx.parallel_for(2, [&](unsigned t) {
      if (t == 0) entered.set_value();
      released.wait();
    });
  });
  entered.get_future().wait();
  SpmvNetClient::Result held;
  std::thread caller([&] { held = client.multiply("A", x); });
  // The I/O thread is inside the held inline run once it started.
  const bool started =
      wait_until([&] { return samples() == samples_before + 1; });
  if (started) {
    for (const int fd : {fd_a, fd_b}) {
      const auto frame = multiply_frame(2, x, "F");
      EXPECT_EQ(::write(fd, frame.data(), frame.size()),
                static_cast<ssize_t>(frame.size()));
    }
    // Let both frames land in the server's receive queues.
    std::this_thread::sleep_for(5ms);
  }
  release.set_value();
  holder.join();
  caller.join();
  ASSERT_TRUE(started) << "the held call never started";
  EXPECT_EQ(held.status, StatusCode::kOk);
  EXPECT_EQ(held.y, expect_a);
  EXPECT_EQ(data_plane(server).inline_runs, 3u);
  for (const int fd : {fd_a, fd_b}) {
    const auto replies = read_frames(fd, 1);
    ::close(fd);
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(result_y(replies[0]), expect_f);
  }
  EXPECT_EQ(data_plane(server).inline_runs, 3u)
      << "a MULTIPLY ran inline while another connection was readable";
}

// --- concurrency smoke ------------------------------------------------------

// Several clients hammering both I/O threads concurrently with churning
// operands; every reply must be correct.  This is the test TSan earns
// its keep on.
TEST(NetLoopback, MultiClientSmoke) {
  ServerConfig cfg;
  cfg.io_threads = 3;
  Loop loop(cfg, 129);
  constexpr int kClients = 4;
  constexpr int kSteps = 25;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ClientOptions copts;
      copts.port = loop.server.port();
      copts.client_name = "smoke-" + std::to_string(c);
      SpmvNetClient client(copts);
      client.connect();
      auto x = random_x(loop.m.n, 100 + c);
      std::mt19937 rng(200 + c);
      std::uniform_int_distribution<std::uint32_t> idx(0, loop.m.n - 1);
      for (int s = 0; s < kSteps; ++s) {
        const auto r = client.multiply("A", x);
        if (r.status != StatusCode::kOk) {
          // relaxed: test-only tally aggregated after join.
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        const auto want = reference(loop.m, x);
        for (std::size_t i = 0; i < want.size(); ++i) {
          if (std::abs(r.y[i] - want[i]) > 1e-12) {
            failures.fetch_add(1, std::memory_order_relaxed);
            break;
          }
        }
        x[idx(rng)] += 0.5;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(std::memory_order_relaxed), 0);
  EXPECT_GE(loop.server.scheduler().stats().total_completed(),
            static_cast<std::uint64_t>(kClients * kSteps));
}

// A storm of abrupt connection kills — alternating mid-reply cuts and
// idle cuts — with session resume enabled must leak nothing: exactly one
// session serves the whole storm (every reconnect resumes it), every
// multiply executes exactly once, no completion is dropped, and a clean
// GOODBYE releases the session and its replay-cache pins.
TEST(NetLoopback, ReconnectStormLeaksNoSessionsOrCompletions) {
  ServerConfig cfg;
  cfg.resume_timeout = 5000ms;
  SpmvServer server(cfg);
  server.start();
  const TestMatrix m = tridiag(129);

  ChaosProxyConfig pcfg;
  pcfg.upstream_port = server.port();
  ChaosProxy proxy(pcfg);
  proxy.start();

  ClientOptions copts;
  copts.port = proxy.port();
  copts.timeout = 500ms;
  copts.rpc_budget = 10000ms;
  copts.retry.enabled = true;
  copts.retry.backoff_base = 1ms;
  copts.retry.backoff_cap = 10ms;
  auto client = std::make_unique<SpmvNetClient>(copts);
  client->connect();
  ASSERT_EQ(
      client->upload("A", m.n, m.n, m.row_ptr, m.col_idx, m.values).status,
      StatusCode::kOk);

  int ops = 0;
  const auto checked_multiply = [&](int tag) {
    const auto x = random_x(m.n, 300 + tag);
    const auto r = client->multiply("A", x);
    ASSERT_EQ(r.status, StatusCode::kOk) << "op " << tag << ": " << r.message;
    const auto want = reference(m, x);
    for (std::size_t j = 0; j < want.size(); ++j) {
      ASSERT_NEAR(r.y[j], want[j], 1e-12) << "op " << tag;
    }
    ++ops;
  };

  constexpr int kRounds = 10;
  for (int round = 0; round < kRounds; ++round) {
    // This multiply reconnects first if the previous round cut the
    // connection while it sat idle.
    checked_multiply(round);
    if (testing::Test::HasFatalFailure()) return;
    if (round % 2 == 0) {
      // Even rounds: with the connection now healthy, drop exactly the
      // next RESULT frame — forcing a resume + retransmission answered
      // from the replay window.
      proxy.kill_on_next_downstream();
      checked_multiply(100 + round);
      if (testing::Test::HasFatalFailure()) return;
    } else {
      // Odd rounds: cut the connection while idle instead.
      proxy.kill_all();
      std::this_thread::sleep_for(10ms);
    }
  }
  // Heal the final odd-round kill so close() below can say GOODBYE.
  checked_multiply(999);
  if (testing::Test::HasFatalFailure()) return;

  // Exactly one kill per round, one reconnect per kill, and every
  // reconnect resumed the original session — no session churn.
  EXPECT_GE(client->counters().reconnects, static_cast<std::uint64_t>(kRounds));
  EXPECT_EQ(client->counters().resumes, client->counters().reconnects);
  EXPECT_EQ(server.net_stats().sessions_opened, 1u);
  EXPECT_EQ(server.sessions().active() + server.sessions().parked(), 1u);
  // Exactly-once under the storm: each round's multiply executed once;
  // the even rounds were completed via replay, not re-execution.
  EXPECT_EQ(server.scheduler().stats().total_completed(),
            static_cast<std::uint64_t>(ops));
  EXPECT_GE(server.net_stats().replay_hits, 1u);
  // Exact completion accounting: with resume holding orphans for
  // replay, the storm dropped nothing.
  EXPECT_EQ(server.net_stats().completions_dropped, 0u);

  // A clean exit (the destructor's GOODBYE) is permanent: the session
  // must not linger parked, which would pin its replay cache until the
  // reaper got to it.
  client.reset();
  ASSERT_TRUE(wait_until([&] {
    return server.sessions().active() == 0 && server.sessions().parked() == 0;
  }));
  EXPECT_EQ(server.net_stats().parked_reaped, 0u);
  proxy.stop();
  server.stop();
}

}  // namespace
}  // namespace spmv::net
