#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

#include "matrix/csr.h"
#include "util/fault_point.h"

namespace spmv::net {

namespace {

using Clock = std::chrono::steady_clock;

/// The IoThread whose loop runs on this thread, if any: a multiply's
/// completion hook that runs here, inside Scheduler::submit (an inline
/// run or a door reject), hands its record straight to that thread.
thread_local const void* tl_io_thread = nullptr;

/// Best-effort one-byte write used for doorbells: a full pipe means a
/// wakeup is already pending, which is exactly as good as ours.
void ring(int fd) {
  if (fd < 0) return;
  const char b = 1;
  [[maybe_unused]] ssize_t n = ::write(fd, &b, 1);
}

void drain_pipe(int fd) {
  char buf[256];
  while (::read(fd, buf, sizeof buf) > 0) {
  }
}

/// True once the peer acknowledged our FIN, and so every byte before it
/// (or the connection is gone and there is nothing left to wait for).
bool fin_acknowledged(int fd) {
  tcp_info info{};
  socklen_t len = sizeof info;
  if (::getsockopt(fd, IPPROTO_TCP, TCP_INFO, &info, &len) != 0) return true;
  return info.tcpi_state == TCP_FIN_WAIT2 ||
         info.tcpi_state == TCP_TIME_WAIT || info.tcpi_state == TCP_CLOSE;
}

void make_pipe(int fds[2]) {
  if (::pipe2(fds, O_NONBLOCK | O_CLOEXEC) != 0) {
    throw std::runtime_error("net: pipe2 failed");
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Private aggregates

/// One in-flight multiply: pins the operand snapshot it was
/// submitted with (copy-on-write cache discipline — a later delta can
/// never mutate it), owns the result buffer, and carries the cancel
/// token.  Shared between the connection's in-flight map and the
/// scheduler's on_complete hook, which hands it back in a Completion
/// with the outcome; whichever side finishes last frees it, so a
/// disconnect can never dangle a buffer under the executing batch.
struct SpmvServer::PendingOp {
  std::shared_ptr<ClientSlot> slot;
  std::shared_ptr<const std::vector<double>> x;
  std::vector<double> y;
  serve::CancelToken token;
  Clock::time_point started;
};

struct SpmvServer::UploadJob {
  std::uint64_t conn_id = 0;
  unsigned io_index = 0;
  std::uint64_t request_id = 0;
  UploadMatrixRequest req;
};

/// One connection.  Owned exclusively by its I/O thread — every member
/// here is single-threaded state; anything cross-thread lives in the
/// ClientSlot's atomics or the server counters.
struct SpmvServer::Conn {
  int fd = -1;
  std::uint64_t id = 0;
  std::vector<std::uint8_t> rdbuf;
  std::deque<std::vector<std::uint8_t>> wq;
  std::size_t wq_off = 0;  ///< bytes of wq.front() already written
  std::size_t wq_bytes = 0;  ///< total unsent bytes across wq
  bool closing = false;    ///< flush remaining writes, then close
  bool kill = false;       ///< close without flushing
  bool goodbye = false;    ///< clean GOODBYE exchanged: never park
  std::shared_ptr<ClientSlot> slot;  ///< null until HELLO
  std::map<std::uint64_t, std::shared_ptr<PendingOp>> ops;
  Clock::time_point last_activity;
  /// When the current partial frame started buffering; time_point{} when
  /// rdbuf holds no partial frame.  Anchored at frame start — per-byte
  /// trickling does NOT advance it, which is the whole point.
  Clock::time_point partial_since{};
  /// Last time a send() moved reply bytes (or the backlog was empty).
  Clock::time_point last_write_progress;
};

struct SpmvServer::IoThread {
  unsigned index = 0;
  int doorbell[2] = {-1, -1};
  Mutex mutex;
  std::vector<Completion> inbox SPMV_GUARDED_BY(mutex);
  std::vector<int> new_fds SPMV_GUARDED_BY(mutex);
  /// Owned by the I/O thread; other threads never touch the map.
  std::map<std::uint64_t, std::unique_ptr<Conn>> conns;
  /// I/O-thread-only: completions whose hook ran on this thread inside
  /// Scheduler::submit, answered before handle_multiply returns.
  std::vector<Completion> finished_here;
  /// I/O-thread-only: at most one connection was readable in this poll
  /// round, so an inline run stalls no other connection's frames.
  bool lone_readable = false;
  std::thread thread;
};

// ---------------------------------------------------------------------------
// Lifecycle

SpmvServer::SpmvServer(ServerConfig config)
    : config_(std::move(config)), scheduler_(registry_, config_.scheduler) {}

SpmvServer::~SpmvServer() { stop(); }

void SpmvServer::start() {
  // acq_rel: the exchange both wins the one-shot race and orders this
  // thread's setup after any concurrent starter's observation.
  if (started_.exchange(true, std::memory_order_acq_rel)) return;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) throw std::runtime_error("net: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("net: bad bind address '" +
                             config_.bind_address + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
          0 ||
      ::listen(listen_fd_, 128) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("net: bind/listen on " + config_.bind_address +
                             " failed: " + std::strerror(errno));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  make_pipe(stop_pipe_);

  const unsigned n = config_.io_threads == 0 ? 1 : config_.io_threads;
  io_threads_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    auto io = std::make_unique<IoThread>();
    io->index = i;
    make_pipe(io->doorbell);
    io_threads_.push_back(std::move(io));
  }
  for (unsigned i = 0; i < n; ++i) {
    io_threads_[i]->thread = std::thread([this, i] { io_loop(i); });
  }
  upload_thread_ = std::thread([this] { upload_loop(); });
}

void SpmvServer::wait() {
  MutexLock lock(wait_mutex_);
  while (!stop_requested_) wait_cv_.wait(wait_mutex_);
}

void SpmvServer::request_stop() noexcept {
  // Async-signal-safe by construction: one write(2) on a pre-opened
  // non-blocking pipe, no locks, no allocation.
  ring(stop_pipe_[1]);
}

void SpmvServer::stop() {
  // acq_rel: one thread wins the shutdown; later callers see its effects.
  if (stopped_.exchange(true, std::memory_order_acq_rel)) return;

  {
    MutexLock lock(wait_mutex_);
    stop_requested_ = true;
    wait_cv_.notify_all();
  }
  // acquire: pairs with start()'s exchange so a stop() racing start()
  // observes whether threads were actually spawned.
  if (!started_.load(std::memory_order_acquire)) {
    scheduler_.shutdown(serve::Scheduler::Drain::kDrain);
    return;
  }

  // Phase 1 — stop admitting: thread 0 drops the listener from its poll
  // set and every MULTIPLY/UPLOAD from here on answers SHUTDOWN.
  // release: I/O threads acquire-load this flag; the pairing makes any
  // state written before the drain visible to their shutdown handling.
  draining_.store(true, std::memory_order_release);
  for (auto& io : io_threads_) ring(io->doorbell[1]);

  // Phase 2 — finish queued uploads (their completions need live I/O
  // threads to deliver).
  {
    MutexLock lock(upload_mutex_);
    upload_stop_ = true;
    upload_cv_.notify_all();
  }
  if (upload_thread_.joinable()) upload_thread_.join();

  // Phase 3 — drain the scheduler.  When this returns every in-flight
  // request has finished, and its on_complete hook has run, so every
  // completion record is already in some I/O thread's inbox; the I/O
  // threads keep writing replies out during the whole drain.
  scheduler_.shutdown(serve::Scheduler::Drain::kDrain);

  // Phase 4 — I/O threads run their final pass: drain inboxes, answer
  // the frames still in the sockets, GOODBYE each session, flush,
  // half-close and wait for the FIN's acknowledgement within
  // drain_grace, close, exit.
  // release: pairs with the I/O loops' acquire load.
  io_stopping_.store(true, std::memory_order_release);
  for (auto& io : io_threads_) ring(io->doorbell[1]);
  for (auto& io : io_threads_) {
    if (io->thread.joinable()) io->thread.join();
  }

  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  for (auto& io : io_threads_) {
    if (io->doorbell[0] >= 0) ::close(io->doorbell[0]);
    if (io->doorbell[1] >= 0) ::close(io->doorbell[1]);
    io->doorbell[0] = io->doorbell[1] = -1;
  }
  if (stop_pipe_[0] >= 0) ::close(stop_pipe_[0]);
  if (stop_pipe_[1] >= 0) ::close(stop_pipe_[1]);
  stop_pipe_[0] = stop_pipe_[1] = -1;
}

NetStats SpmvServer::net_stats() const {
  NetStats s = stats_;
  s.sessions_opened = sessions_.opened();
  return s;
}

// ---------------------------------------------------------------------------
// Upload control thread: registry.put() tunes the matrix, which can take
// arbitrarily long — it must never run on an I/O thread.

void SpmvServer::upload_loop() {
  for (;;) {
    UploadJob job;
    {
      MutexLock lock(upload_mutex_);
      while (uploads_.empty() && !upload_stop_) upload_cv_.wait(upload_mutex_);
      if (uploads_.empty()) return;  // stop requested and queue drained
      job = std::move(uploads_.front());
      uploads_.pop_front();
    }
    Completion c;
    c.conn_id = job.conn_id;
    c.request_id = job.request_id;
    try {
      CsrMatrix m(job.req.rows, job.req.cols, std::move(job.req.row_ptr),
                  std::move(job.req.col_idx), std::move(job.req.values));
      registry_.put(job.req.name, m, config_.tuning);
      c.message = "tuned '" + job.req.name + "'";
    } catch (const std::exception& e) {
      c.status = StatusCode::kBadRequest;
      c.message = e.what();
    }
    post_completion(job.io_index, std::move(c));
  }
}

void SpmvServer::post_completion(unsigned io_index, Completion c) {
  IoThread& io = *io_threads_[io_index];
  {
    MutexLock lock(io.mutex);
    io.inbox.push_back(std::move(c));
  }
  ring(io.doorbell[1]);
}

// ---------------------------------------------------------------------------
// I/O loop

void SpmvServer::io_loop(unsigned index) {
  IoThread& io = *io_threads_[index];
  tl_io_thread = &io;
  std::vector<pollfd> pfds;
  std::vector<std::uint64_t> ids;  // 0 for control fds, else conn id

  for (;;) {
    pfds.clear();
    ids.clear();
    pfds.push_back({io.doorbell[0], POLLIN, 0});
    ids.push_back(0);
    int stop_slot = -1;
    int listen_slot = -1;
    if (index == 0) {
      stop_slot = static_cast<int>(pfds.size());
      pfds.push_back({stop_pipe_[0], POLLIN, 0});
      ids.push_back(0);
      // acquire: pairs with stop()'s release store; once draining, the
      // listener leaves the poll set and no connection is ever accepted.
      if (!draining_.load(std::memory_order_acquire) && listen_fd_ >= 0) {
        listen_slot = static_cast<int>(pfds.size());
        pfds.push_back({listen_fd_, POLLIN, 0});
        ids.push_back(0);
      }
    }
    for (const auto& [id, conn] : io.conns) {
      short events = POLLIN;
      if (!conn->wq.empty()) events |= POLLOUT;
      pfds.push_back({conn->fd, events, 0});
      ids.push_back(id);
    }

    const int timeout_ms = needs_sweep_tick() ? 100 : -1;
    const int rc = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;  // unrecoverable poll failure; shutdown will reap
    }

    if (pfds[0].revents != 0) drain_pipe(io.doorbell[0]);
    // acquire: pairs with stop()'s release store after the scheduler
    // drained — everything the drain produced is in our inbox by now.
    // Read only after the doorbell drain: stop() stores the flag, then
    // rings, so a ring consumed above is always followed by a true load
    // here.  Reading it before the drain could see false, swallow the
    // ring, and sleep in poll() forever.  Readable sockets of this round
    // are left to the final pass, which reads and answers them.
    if (io_stopping_.load(std::memory_order_acquire)) break;
    drain_inbox(io);

    if (stop_slot >= 0 && pfds[stop_slot].revents != 0) {
      drain_pipe(stop_pipe_[0]);
      MutexLock lock(wait_mutex_);
      stop_requested_ = true;
      wait_cv_.notify_all();
    }
    if (listen_slot >= 0 && (pfds[listen_slot].revents & POLLIN) != 0) {
      accept_ready(io);
    }

    std::size_t readable = 0;
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if (ids[i] != 0 && (pfds[i].revents & POLLIN) != 0) ++readable;
    }
    io.lone_readable = readable == 1;
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if (ids[i] == 0 || pfds[i].revents == 0) continue;
      auto it = io.conns.find(ids[i]);
      if (it == io.conns.end()) continue;  // closed earlier this round
      Conn& conn = *it->second;
      if ((pfds[i].revents & POLLIN) != 0) handle_readable(io, conn);
      // Re-find: handle_readable may have closed the connection on EOF.
      it = io.conns.find(ids[i]);
      if (it == io.conns.end()) continue;
      if ((pfds[i].revents & POLLOUT) != 0) flush_writes(*it->second);
      // POLLHUP without POLLIN would otherwise make poll() return
      // immediately every iteration with no handler running (a half-
      // closed peer busy-spins the thread); with POLLIN pending the read
      // path drains the data and sees EOF itself.
      if ((pfds[i].revents & (POLLERR | POLLNVAL)) != 0 ||
          ((pfds[i].revents & POLLHUP) != 0 &&
           (pfds[i].revents & POLLIN) == 0)) {
        it->second->kill = true;
      }
      Conn& c2 = *it->second;
      if (c2.kill || (c2.closing && c2.wq.empty())) close_conn(io, ids[i]);
    }

    reap_idle(io);
  }

  // --- final pass: the scheduler already drained, so the inbox holds
  // every outstanding completion.  Answer them, then every frame still
  // buffered in the sockets (MULTIPLY and UPLOAD_MATRIX answer kShutdown:
  // draining_ is set), say GOODBYE, flush, half-close, and wait for the
  // peer to acknowledge the FIN before closing.  close() on a socket
  // holding unread bytes sends a RST instead of a FIN: the frames in it
  // would go unanswered and any reply still in our send buffer would be
  // discarded.
  drain_pipe(io.doorbell[0]);
  drain_inbox(io);
  io.lone_readable = false;
  for (auto& [id, conn] : io.conns) {
    if (conn->kill) continue;
    if (read_socket(*conn) == ReadEnd::kError) {
      conn->kill = true;
    } else {
      handle_frames(io, *conn);
    }
  }
  for (auto& [id, conn] : io.conns) {
    if (conn->slot != nullptr && !conn->kill) {
      send_frame(*conn, FrameType::kGoodbye, 0, {});
    }
  }
  const auto flush_deadline = Clock::now() + config_.drain_grace;
  for (;;) {
    bool pending = false;
    pfds.clear();
    ids.clear();
    for (const auto& [id, conn] : io.conns) {
      if (conn->wq.empty() || conn->kill) continue;
      pending = true;
      pfds.push_back({conn->fd, POLLOUT, 0});
      ids.push_back(id);
    }
    if (!pending || Clock::now() >= flush_deadline) break;
    if (::poll(pfds.data(), pfds.size(), 50) < 0 && errno != EINTR) break;
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      auto it = io.conns.find(ids[i]);
      if (it == io.conns.end()) continue;
      // A peer that died mid-flush cannot take its bytes: give up on it
      // rather than spin on POLLHUP until the grace deadline.
      if ((pfds[i].revents & (POLLERR | POLLNVAL | POLLHUP)) != 0) {
        it->second->kill = true;
        continue;
      }
      if ((pfds[i].revents & POLLOUT) != 0) flush_writes(*it->second);
    }
  }
  // Half-close, then wait (within the same drain_grace) until each peer
  // has acknowledged our FIN: every reply byte is then in its receive
  // queue.  close() still sends a RST if a frame arrived after the pass
  // above, but a RST leaves the peer's receive queue readable.
  for (auto& [id, conn] : io.conns) {
    if (!conn->kill) ::shutdown(conn->fd, SHUT_WR);
  }
  while (Clock::now() < flush_deadline &&
         std::any_of(io.conns.begin(), io.conns.end(), [](const auto& c) {
           return !c.second->kill && !fin_acknowledged(c.second->fd);
         })) {
    // The acknowledgement of our FIN raises no poll event: check again.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  while (!io.conns.empty()) close_conn(io, io.conns.begin()->first);
}

void SpmvServer::accept_ready(IoThread& io0) {
  (void)io0;
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN or transient error: poll will re-arm
    }
    if (SPMV_FAULT_POINT("net.accept_fail")) {
      // Simulated transient accept failure: the connection is dropped
      // before any session state exists — clients see a reset and retry.
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    // Round-robin on the accept count: only this thread (I/O thread 0)
    // adds to it, so the count read is this connection's sequence number.
    IoThread& target = *io_threads_[stats_.accepted % io_threads_.size()];
    stats_.accepted.add();
    {
      MutexLock lock(target.mutex);
      target.new_fds.push_back(fd);
    }
    ring(target.doorbell[1]);
  }
}

void SpmvServer::drain_inbox(IoThread& io) {
  std::vector<Completion> comps;
  std::vector<int> fds;
  {
    MutexLock lock(io.mutex);
    comps.swap(io.inbox);
    fds.swap(io.new_fds);
  }
  for (const int fd : fds) {
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    // relaxed: ids only need uniqueness.
    conn->id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
    conn->last_activity = Clock::now();
    conn->last_write_progress = conn->last_activity;
    stats_.active_connections.add();
    io.conns.emplace(conn->id, std::move(conn));
  }
  for (Completion& c : comps) process_completion(io, std::move(c));
}

// ---------------------------------------------------------------------------
// Read path

void SpmvServer::handle_readable(IoThread& io, Conn& conn) {
  SPMV_FAULT_DELAY("net.slow_client");
  // Peer closed (or the socket failed): cancel in-flight, tear down now.
  if (read_socket(conn) != ReadEnd::kDrained) {
    close_conn(io, conn.id);
    return;
  }
  handle_frames(io, conn);
}

SpmvServer::ReadEnd SpmvServer::read_socket(Conn& conn) {
  std::uint8_t buf[65536];
  for (;;) {
    const ssize_t n = ::read(conn.fd, buf, sizeof buf);
    if (n > 0) {
      conn.rdbuf.insert(conn.rdbuf.end(), buf, buf + n);
      stats_.bytes_in.add(static_cast<std::uint64_t>(n));
      if (conn.slot) {
        conn.slot->stats.bytes_in.add(static_cast<std::uint64_t>(n));
      }
      conn.last_activity = Clock::now();
      // A short read took everything the receive queue held.
      if (static_cast<std::size_t>(n) < sizeof buf) return ReadEnd::kDrained;
      continue;
    }
    if (n == 0) return ReadEnd::kEof;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return ReadEnd::kDrained;
    return ReadEnd::kError;
  }
}

void SpmvServer::handle_frames(IoThread& io, Conn& conn) {
  bool advanced = false;  // a complete frame was consumed this pass
  while (!conn.closing && !conn.kill) {
    FrameHeader header;
    std::span<const std::uint8_t> payload;
    std::size_t consumed = 0;
    const ParseStatus st = parse_frame(conn.rdbuf, config_.max_payload,
                                       header, payload, consumed);
    if (st == ParseStatus::kNeedMore) break;
    if (st == ParseStatus::kFrame) {
      handle_frame(io, conn, header, payload,
                   /*last_buffered=*/consumed == conn.rdbuf.size());
      conn.rdbuf.erase(conn.rdbuf.begin(),
                       conn.rdbuf.begin() +
                           static_cast<std::ptrdiff_t>(consumed));
      advanced = true;
      continue;
    }
    // Wire-level violation: the stream is unrecoverable.  When the
    // header survived its CRC we can still address an error reply;
    // otherwise the bytes are noise and the socket just closes.
    stats_.protocol_errors.add();
    if (st == ParseStatus::kBadPayloadCrc || st == ParseStatus::kOversized ||
        st == ParseStatus::kUnknownType) {
      send_status(conn, header.request_id, StatusCode::kProtocolError,
                  to_string(st));
      conn.closing = true;
    } else {
      conn.kill = true;
    }
    break;
  }

  // Anchor the read-progress clock at the *start* of the partial frame:
  // completing a frame is the only thing that re-arms it, so a trickler
  // feeding one byte per tick cannot keep resetting its own deadline the
  // way it resets last_activity.
  if (conn.rdbuf.empty()) {
    conn.partial_since = Clock::time_point{};
  } else if (advanced || conn.partial_since == Clock::time_point{}) {
    conn.partial_since = Clock::now();
  }
}

void SpmvServer::handle_frame(IoThread& io, Conn& conn,
                              const FrameHeader& header,
                              std::span<const std::uint8_t> payload,
                              bool last_buffered) {
  if (header.flags != 0) {  // reserved through wire version 2
    stats_.protocol_errors.add();
    send_status(conn, header.request_id, StatusCode::kProtocolError,
                "nonzero flags");
    conn.closing = true;
    return;
  }

  if (header.type == FrameType::kHello) {
    HelloRequest req;
    if (conn.slot != nullptr || !decode_hello(payload, req)) {
      stats_.protocol_errors.add();
      send_status(conn, header.request_id, StatusCode::kProtocolError,
                  conn.slot ? "duplicate HELLO" : "malformed HELLO");
      conn.closing = true;
      return;
    }
    std::uint32_t quota = req.requested_quota == 0 ? config_.default_quota
                                                   : req.requested_quota;
    if (quota > config_.max_quota) quota = config_.max_quota;
    if (quota == 0) quota = 1;
    bool resumed = false;
    if (req.resume_session_id != 0 &&
        config_.resume_timeout.count() > 0 &&
        !SPMV_FAULT_POINT("net.resume_reject")) {
      conn.slot = sessions_.resume(req.resume_session_id, req.resume_token,
                                   Clock::now(), conn.id);
      resumed = conn.slot != nullptr;
    }
    if (resumed) {
      stats_.resumes.add();
    } else if (req.resume_session_id != 0) {
      stats_.resume_rejected.add();
    }
    if (conn.slot == nullptr) {
      conn.slot = sessions_.open(quota, conn.id);
      conn.slot->client_name = std::move(req.client_name);
    }
    HelloOk ok;
    ok.session_id = conn.slot->id;
    ok.quota = conn.slot->quota;
    ok.max_payload = config_.max_payload;
    ok.resume_token = conn.slot->resume_token;
    ok.resumed = resumed ? 1 : 0;
    send_frame(conn, FrameType::kHelloOk, header.request_id,
               encode_hello_ok(ok));
    return;
  }

  if (conn.slot == nullptr) {
    stats_.protocol_errors.add();
    send_status(conn, header.request_id, StatusCode::kProtocolError,
                "HELLO required first");
    conn.closing = true;
    return;
  }

  // A resume on another connection may have taken this session over
  // while this (now stale) connection still had frames buffered: the new
  // owner's thread is using the slot, so processing anything more here
  // would put two threads behind one session.  Kill the stale connection
  // without a reply — its close is owner-conditional and leaves the
  // session alone.  The check is advisory (owner_conn is a relaxed read;
  // a stale value only delays the kill by one frame): the slot state
  // both threads can reach in that window — the operand cache and the
  // admission ledger — is mutex-guarded in ClientSlot.
  if (conn.slot->owner_conn() != conn.id) {
    conn.kill = true;
    return;
  }

  switch (header.type) {
    case FrameType::kUploadMatrix: {
      // acquire: pairs with stop()'s release; no new work once draining.
      if (draining_.load(std::memory_order_acquire)) {
        send_status(conn, header.request_id, StatusCode::kShutdown,
                    "server draining");
        return;
      }
      UploadJob job;
      if (!decode_upload(payload, job.req)) {
        send_status(conn, header.request_id, StatusCode::kBadRequest,
                    "malformed UPLOAD_MATRIX");
        return;
      }
      job.conn_id = conn.id;
      job.io_index = io.index;
      job.request_id = header.request_id;
      {
        MutexLock lock(upload_mutex_);
        if (upload_stop_) {
          // Raced shutdown: answer rather than queue into a dead worker.
        } else {
          uploads_.push_back(std::move(job));
          upload_cv_.notify_one();
          return;
        }
      }
      send_status(conn, header.request_id, StatusCode::kShutdown,
                  "server draining");
      return;
    }
    case FrameType::kMultiply:
      handle_multiply(io, conn, header, payload, last_buffered);
      return;
    case FrameType::kCancel:
      handle_cancel(conn, header.request_id, payload);
      return;
    case FrameType::kStats:
      handle_stats(conn, header.request_id);
      return;
    case FrameType::kHealth:
      handle_health(conn, header.request_id);
      return;
    case FrameType::kGoodbye: {
      // Graceful client exit: in-flight work is cancelled (their
      // completions will be dropped), the farewell is acknowledged, and
      // the connection closes once the reply flushed.
      for (auto& [id, op] : conn.ops) (void)op->token.cancel();
      send_frame(conn, FrameType::kGoodbye, header.request_id, {});
      conn.goodbye = true;  // clean exit: the session is never parked
      conn.closing = true;
      return;
    }
    default:
      // Server-to-client frame types arriving at the server.
      stats_.protocol_errors.add();
      send_status(conn, header.request_id, StatusCode::kProtocolError,
                  "unexpected frame type");
      conn.closing = true;
      return;
  }
}

void SpmvServer::handle_multiply(IoThread& io, Conn& conn,
                                 const FrameHeader& header,
                                 std::span<const std::uint8_t> payload,
                                 bool last_buffered) {
  ClientSlot& slot = *conn.slot;

  // Retransmission classification comes before everything else — before
  // decoding, before the cache-sync rule.  A re-used request id is by
  // protocol a retransmission of the same logical request, and
  // retransmissions are cache-neutral on BOTH sides: the server never
  // re-applies their operands, and the client does not advance its delta
  // shadow when re-sending (retries always ship full operands anyway,
  // since delivery of the original was uncertain).
  {
    std::vector<std::uint8_t> replay_frame;
    switch (slot.classify(header.request_id, replay_frame)) {
      case RetryClass::kNew:
        break;
      case RetryClass::kReplay:
        // Exactly-once effect: the multiply already executed (or was
        // terminally rejected); re-send the recorded reply verbatim.
        stats_.replay_hits.add();
        queue_frame(conn, std::move(replay_frame));
        return;
      case RetryClass::kPending:
        // Still executing (in flight from this or a prior connection of
        // the session): not a decision, so it is NOT recorded — the
        // client backs off and retries until the replay window answers.
        stats_.retry_pending.add();
        send_status(conn, header.request_id, StatusCode::kRetryPending,
                    "request still executing; retry");
        return;
      case RetryClass::kUnknown:
        // Decided so long ago the replay entry was evicted.  The server
        // refuses to guess (re-executing could double-apply the effect);
        // the caller decides whether re-issuing under a new id is safe.
        stats_.retry_unknown.add();
        send_status(conn, header.request_id, StatusCode::kRetryUnknown,
                    "outcome evicted from replay window");
        return;
    }
  }

  MultiplyRequest req;
  if (!decode_multiply(payload, req)) {
    decide_status(conn, slot, header.request_id, StatusCode::kBadRequest,
                  "malformed MULTIPLY");
    return;
  }
  OperandSpec& spec = req.operand;
  const std::uint64_t shipped = operand_wire_bytes(spec);

  // Resolve the operand to a pinned snapshot BEFORE submitting or
  // publishing anything: a structurally bad operand rejects the request
  // and leaves the session cache untouched.  A delta patches a copy
  // (copy-on-write), so snapshots pinned by earlier requests are never
  // mutated.
  std::shared_ptr<const std::vector<double>> x = slot.cached_x();
  switch (spec.mode) {
    case OperandMode::kFull:
      x = std::make_shared<const std::vector<double>>(std::move(spec.full));
      break;
    case OperandMode::kDelta: {
      if (x == nullptr || x->size() != spec.n) {
        decide_status(conn, slot, header.request_id, StatusCode::kBadRequest,
                      "delta without a matching cached vector");
        return;
      }
      auto next = std::make_shared<std::vector<double>>(*x);
      if (!spmv::net::apply(spec.delta, *next)) {
        decide_status(conn, slot, header.request_id, StatusCode::kBadRequest,
                      "inconsistent delta");
        return;
      }
      x = std::move(next);
      break;
    }
    case OperandMode::kCached:
      if (x == nullptr || x->size() != spec.n) {
        decide_status(conn, slot, header.request_id, StatusCode::kBadRequest,
                      "no cached vector");
        return;
      }
      break;
  }
  // Publish the evolved cache BEFORE any admission check.  The client's
  // shadow advances unconditionally the moment it ships the frame, so the
  // cache rule must be identical on both sides: a structurally valid
  // operand always applies, even when the request is then rejected
  // (draining, quota, unknown matrix, wrong length) — otherwise a
  // pipelined client whose request was refused would have every later
  // delta silently patch a stale base.  The client mirrors the
  // structural-failure case by dropping its shadow on
  // kBadRequest/kProtocolError replies.  (Retransmissions never reach
  // this point — they were answered by the classification above.)
  slot.set_cached_x(x);

  // acquire: pairs with stop()'s release; draining admits nothing new.
  if (draining_.load(std::memory_order_acquire)) {
    decide_status(conn, slot, header.request_id, StatusCode::kShutdown,
                  "server draining");
    return;
  }
  // Quota check and reservation are one critical section (try_admit), so
  // admission stays exact even if a takeover briefly leaves two threads
  // behind this slot.  Every rejection path below releases the
  // reservation via decide_status -> ClientSlot::decide.
  if (!slot.try_admit(header.request_id)) {
    decide_status(conn, slot, header.request_id,
                  StatusCode::kQuotaExceeded, "session quota exhausted");
    return;
  }
  const auto entry = registry_.find(req.name);
  if (entry == nullptr) {
    decide_status(conn, slot, header.request_id,
                  StatusCode::kUnknownMatrix,
                  "no matrix '" + req.name + "'");
    return;
  }
  const std::uint32_t cols = entry->plan.cols();
  if (x->size() != cols) {
    decide_status(conn, slot, header.request_id, StatusCode::kBadRequest,
                  "operand length mismatch");
    return;
  }
  if (spec.mode == OperandMode::kFull) {
    slot.stats.full_operands.add();
  } else {
    const std::uint64_t dense_bytes =
        static_cast<std::uint64_t>(cols) * sizeof(double);
    const std::uint64_t saved =
        dense_bytes > shipped ? dense_bytes - shipped : 0;
    if (spec.mode == OperandMode::kDelta) {
      slot.stats.delta_operands.add();
    } else {
      slot.stats.cached_operands.add();
    }
    slot.stats.delta_bytes_saved.add(saved);
  }
  slot.stats.requests.add();
  stats_.requests.add();

  const auto now = Clock::now();
  auto op = std::make_shared<PendingOp>();
  op->slot = conn.slot;
  op->x = std::move(x);
  op->y.assign(entry->plan.rows(), 0.0);  // engine semantics are y += A·x
  op->started = now;
  conn.ops.emplace(header.request_id, op);

  serve::SubmitOptions opts;
  if (req.deadline_us != 0) {
    opts.deadline = now + std::chrono::microseconds(req.deadline_us);
  }
  opts.priority = req.priority;
  // Run to completion on this thread only while nothing else waits on
  // it: no other connection was readable this round, so one multiply
  // stalls nobody, and no byte of a further frame is buffered behind
  // this one, so a pipelined burst keeps coalescing through the
  // dispatcher.
  opts.allow_inline = io.lone_readable && last_buffered;
  opts.on_complete = [this, io_ptr = &io, conn_id = conn.id,
                      request_id = header.request_id,
                      op](const serve::ServeError* error) {
    Completion c;
    c.conn_id = conn_id;
    c.request_id = request_id;
    c.op = op;
    if (error != nullptr) {
      c.status = status_of(error->code());
      c.message = error->what();
    }
    if (tl_io_thread == io_ptr) {
      io_ptr->finished_here.push_back(std::move(c));
    } else {
      post_completion(io_ptr->index, std::move(c));
    }
  };
  op->token = scheduler_.submit(entry, std::span<const double>(*op->x),
                                std::span<double>(op->y), std::move(opts))
                  .token;
  // Finished inside submit (run inline, or refused at the scheduler's
  // door): reply on this pass — replay record, encode, immediate send —
  // instead of through the inbox, its doorbell and another poll round.
  for (Completion& c : io.finished_here) process_completion(io, std::move(c));
  io.finished_here.clear();
}

void SpmvServer::handle_cancel(Conn& conn, std::uint64_t request_id,
                               std::span<const std::uint8_t> payload) {
  CancelRequest req;
  if (!decode_cancel(payload, req)) {
    send_status(conn, request_id, StatusCode::kBadRequest,
                "malformed CANCEL");
    return;
  }
  const auto it = conn.ops.find(req.target_id);
  const bool known = it != conn.ops.end();
  if (known) (void)it->second->token.cancel();
  // kOk acknowledges delivery, not outcome: the multiply itself answers
  // kCancelled or its result, whichever won the race.
  send_status(conn, request_id, known ? StatusCode::kOk : StatusCode::kNotFound,
              known ? "cancel delivered" : "no such in-flight request");
}

void SpmvServer::handle_stats(Conn& conn, std::uint64_t request_id) {
  StatsResult s;
  const SessionStats ss = conn.slot->snapshot();
  s.requests = ss.requests;
  s.completed = ss.completed;
  s.failed = ss.failed;
  s.bytes_in = ss.bytes_in;
  s.bytes_out = ss.bytes_out;
  s.full_operands = ss.full_operands;
  s.delta_operands = ss.delta_operands;
  s.cached_operands = ss.cached_operands;
  s.delta_bytes_saved = ss.delta_bytes_saved;
  s.rpc_p50_us =
      static_cast<std::uint64_t>(ss.rpc_latency.quantile_us(0.5));
  s.rpc_p99_us =
      static_cast<std::uint64_t>(ss.rpc_latency.quantile_us(0.99));
  const serve::ServeStatsSnapshot sched = scheduler_.stats();
  s.server_completed = sched.total_completed();
  s.server_shed = sched.data_plane.requests_shed;
  s.server_expired = sched.data_plane.requests_expired;
  s.server_cancelled = sched.data_plane.requests_cancelled;
  s.active_sessions = static_cast<std::uint32_t>(sessions_.active());
  s.health_state = static_cast<std::uint8_t>(scheduler_.health());
  s.ewma_queue_latency_us = scheduler_.overload_detector().ewma_latency_us();
  send_frame(conn, FrameType::kStatsResult, request_id,
             encode_stats_result(s));
}

void SpmvServer::handle_health(Conn& conn, std::uint64_t request_id) {
  HealthResult h;
  const serve::HealthState hs = scheduler_.health();
  // acquire: pairs with stop()'s release store.
  const bool draining = draining_.load(std::memory_order_acquire);
  h.ready = (!draining && hs != serve::HealthState::kShedding) ? 1 : 0;
  h.health_state = static_cast<std::uint8_t>(hs);
  h.draining = draining ? 1 : 0;
  send_frame(conn, FrameType::kHealthResult, request_id,
             encode_health_result(h));
}

// ---------------------------------------------------------------------------
// Completion path (I/O thread: fed by dispatcher hooks and the control
// thread through the inbox, and by its own inline runs in place)

StatusCode SpmvServer::status_of(serve::ServeErrorCode code) const {
  switch (code) {
    case serve::ServeErrorCode::kUnknownMatrix:
      return StatusCode::kUnknownMatrix;
    case serve::ServeErrorCode::kInvalidOperand:
      return StatusCode::kBadRequest;
    case serve::ServeErrorCode::kQueueFull:
      // Under kShed the scheduler's door reject IS admission control:
      // surface it as SHED so clients can back off distinctly from a
      // merely-full queue.
      return config_.scheduler.overflow ==
                     serve::SchedulerConfig::OverflowPolicy::kShed
                 ? StatusCode::kShed
                 : StatusCode::kBusy;
    case serve::ServeErrorCode::kShutdown:
      return StatusCode::kShutdown;
    case serve::ServeErrorCode::kDeadlineExceeded:
      return StatusCode::kDeadlineExceeded;
    case serve::ServeErrorCode::kCancelled:
      return StatusCode::kCancelled;
    case serve::ServeErrorCode::kInternal:
      return StatusCode::kInternal;
  }
  return StatusCode::kInternal;
}

void SpmvServer::process_completion(IoThread& io, Completion&& c) {
  auto it = io.conns.find(c.conn_id);
  Conn* conn = it == io.conns.end() ? nullptr : it->second.get();

  if (c.op == nullptr) {  // upload result: answered once, never replayed
    if (conn == nullptr) {
      stats_.completions_dropped.add();
      return;
    }
    send_status(*conn, c.request_id, c.status, c.message);
    return;
  }

  PendingOp& op = *c.op;
  ClientSlot& slot = *op.slot;
  const std::uint64_t request_id = c.request_id;
  const bool ok = c.status == StatusCode::kOk;
  const auto ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           op.started)
          .count());
  if (c.status == StatusCode::kShed) {
    stats_.shed_replies.add();
  }
  std::vector<std::uint8_t> frame;
  try {
    if (ok) {
      MultiplyResult res;
      res.y = std::move(op.y);
      frame = encode_frame(FrameType::kMultiplyResult, request_id,
                           encode_multiply_result(res));
    } else {
      StatusMsg m;
      m.code = c.status;
      m.message = std::move(c.message);
      frame = encode_frame(FrameType::kStatus, request_id, encode_status(m));
    }
  } catch (const std::length_error&) {
    stats_.protocol_errors.add();
    if (conn != nullptr) conn->kill = true;
    return;
  }
  if (conn == nullptr) {
    // The connection died while the request was in flight.  If the
    // session is parked (or already re-attached elsewhere), record the
    // decision into its replay window so the retransmission gets the
    // same reply; if the session closed with it, drop exactly once.
    if (slot.record_orphan(request_id, ok, ns, std::move(frame),
                           config_.replay_window)) {
      stats_.completions_parked.add();
    } else {
      stats_.completions_dropped.add();
    }
    return;
  }
  conn->ops.erase(request_id);
  slot.stats.record_outcome(ok, ns);
  decide_and_send(*conn, slot, request_id, std::move(frame));
}

// ---------------------------------------------------------------------------
// Write path

void SpmvServer::send_frame(Conn& conn, FrameType type,
                            std::uint64_t request_id,
                            std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> frame;
  try {
    frame = encode_frame(type, request_id, payload);
  } catch (const std::length_error&) {
    // A reply too large for the wire format cannot be represented; drop
    // the connection rather than let the exception escape the I/O loop.
    stats_.protocol_errors.add();
    conn.kill = true;
    return;
  }
  queue_frame(conn, std::move(frame));
}

void SpmvServer::send_status(Conn& conn, std::uint64_t request_id,
                             StatusCode code, const std::string& message) {
  StatusMsg msg;
  msg.code = code;
  msg.message = message;
  send_frame(conn, FrameType::kStatus, request_id, encode_status(msg));
}

void SpmvServer::queue_frame(Conn& conn, std::vector<std::uint8_t> frame) {
  // An empty backlog means the write-stall clock was idle: re-arm it now
  // so the grace period is measured from when the backlog began.
  if (conn.wq.empty()) conn.last_write_progress = Clock::now();
  conn.wq_bytes += frame.size();
  conn.wq.push_back(std::move(frame));
  stats_.responses.add();
  flush_writes(conn);
}

void SpmvServer::decide_and_send(Conn& conn, ClientSlot& slot,
                                 std::uint64_t request_id,
                                 std::vector<std::uint8_t> frame,
                                 bool executed) {
  slot.decide(request_id, frame, config_.replay_window, executed);
  if (SPMV_FAULT_POINT("net.replay_evict")) {
    // Simulated premature eviction: a retry of this id now answers
    // kRetryUnknown instead of replaying — the client-visible worst case.
    slot.drop_replay(request_id);
  }
  queue_frame(conn, std::move(frame));
}

void SpmvServer::decide_status(Conn& conn, ClientSlot& slot,
                               std::uint64_t request_id, StatusCode code,
                               const std::string& message) {
  StatusMsg msg;
  msg.code = code;
  msg.message = message;
  std::vector<std::uint8_t> frame;
  try {
    frame = encode_frame(FrameType::kStatus, request_id,
                         encode_status(msg));
  } catch (const std::length_error&) {
    stats_.protocol_errors.add();
    conn.kill = true;
    return;
  }
  // Rejections never executed: they are windowed separately so a burst
  // of them cannot evict executed results from the replay window.
  decide_and_send(conn, slot, request_id, std::move(frame),
                  /*executed=*/false);
}

void SpmvServer::flush_writes(Conn& conn) {
  while (!conn.wq.empty()) {
    const std::vector<std::uint8_t>& front = conn.wq.front();
    std::size_t chunk = front.size() - conn.wq_off;
    if (SPMV_FAULT_POINT("net.partial_write")) {
      chunk = 1;  // force the partial-write resume path
    }
    // MSG_NOSIGNAL: a peer that disconnected mid-reply must surface as
    // EPIPE (-> kill + reap), not a process-wide SIGPIPE.
    const ssize_t n =
        ::send(conn.fd, front.data() + conn.wq_off, chunk, MSG_NOSIGNAL);
    if (n > 0) {
      conn.wq_off += static_cast<std::size_t>(n);
      conn.wq_bytes -= std::min(conn.wq_bytes, static_cast<std::size_t>(n));
      conn.last_write_progress = Clock::now();
      stats_.bytes_out.add(static_cast<std::uint64_t>(n));
      if (conn.slot) {
        conn.slot->stats.bytes_out.add(static_cast<std::uint64_t>(n));
      }
      if (conn.wq_off == front.size()) {
        conn.wq.pop_front();
        conn.wq_off = 0;
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    conn.kill = true;  // broken pipe etc.: reap on the next loop pass
    return;
  }
}

void SpmvServer::close_conn(IoThread& io, std::uint64_t conn_id) {
  auto it = io.conns.find(conn_id);
  if (it == io.conns.end()) return;
  Conn& conn = *it->second;
  // An abrupt disconnect parks the session when resumption is enabled:
  // in-flight work keeps running (its completions land in the replay
  // window via record_orphan) and a resuming HELLO within the deadline
  // re-attaches.  A clean GOODBYE, resumption disabled, or server
  // shutdown closes permanently — then disconnect cancels everything in
  // flight, and whatever the cancel loses the race to still resolves
  // with its completion dropped (counted) because the connection is no
  // longer in the map.
  // acquire: pairs with stop()'s release — during the final pass every
  // close is permanent.
  const bool park = conn.slot != nullptr && !conn.goodbye &&
                    config_.resume_timeout.count() > 0 &&
                    !io_stopping_.load(std::memory_order_acquire) &&
                    !draining_.load(std::memory_order_acquire);
  if (park) {
    switch (sessions_.park(conn.slot, Clock::now() + config_.resume_timeout,
                           conn.id)) {
      case SessionManager::ParkResult::kParked:
        break;
      case SessionManager::ParkResult::kTakenOver:
        // A resume HELLO on another connection beat this close (a proxy
        // cutting both ends races the two I/O threads).  The session —
        // and its in-flight work — belong to the new connection now;
        // completions for this dead one land in the replay window via
        // record_orphan.  Touch nothing.
        break;
      case SessionManager::ParkResult::kGone:
        sessions_.close(conn.slot->id);
        break;
    }
  } else {
    for (auto& [id, op] : conn.ops) (void)op->token.cancel();
    // Owner-conditional: if a resume raced this permanent close and took
    // the session over, its death here must not retire it.
    if (conn.slot != nullptr) sessions_.close(conn.slot->id, conn.id);
  }
  ::close(conn.fd);
  stats_.active_connections.sub();
  io.conns.erase(it);
}

void SpmvServer::reap_idle(IoThread& io) {
  if (!needs_sweep_tick()) return;
  const auto now = Clock::now();

  // Parked-session expiry runs on thread 0 only (the manager's mutex
  // makes it safe anywhere; one sweeper avoids double counting).
  if (io.index == 0 && config_.resume_timeout.count() > 0) {
    const std::size_t reaped = sessions_.reap_parked(now);
    if (reaped > 0) {
      stats_.parked_reaped.add(reaped);
    }
  }

  // Read-progress deadline: a partial frame must complete within
  // frame_timeout of its first byte.  Unset, it falls back to
  // idle_timeout so a half-delivered frame can never evade the idle
  // reaper by trickling or stalling mid-payload.
  const auto frame_limit = config_.frame_timeout.count() > 0
                               ? config_.frame_timeout
                               : config_.idle_timeout;

  std::vector<std::uint64_t> doomed;
  for (const auto& [id, conn] : io.conns) {
    if (conn->closing || conn->kill) continue;
    if (conn->partial_since != Clock::time_point{}) {
      if (frame_limit.count() > 0 &&
          now - conn->partial_since >= frame_limit) {
        stats_.progress_killed.add();
        conn->kill = true;  // no farewell: the stream is mid-frame anyway
        doomed.push_back(id);
        continue;
      }
    }
    if (config_.write_stall_bytes > 0 &&
        conn->wq_bytes > config_.write_stall_bytes &&
        now - conn->last_write_progress >= config_.write_stall_timeout) {
      stats_.write_stall_killed.add();
      conn->kill = true;  // flushing is exactly what the peer refuses
      doomed.push_back(id);
      continue;
    }
    if (config_.idle_timeout.count() <= 0) continue;
    if (!conn->ops.empty()) continue;
    if (now - conn->last_activity >= config_.idle_timeout) {
      doomed.push_back(id);
    }
  }
  for (const std::uint64_t id : doomed) {
    auto it = io.conns.find(id);
    if (it == io.conns.end()) continue;
    if (!it->second->kill) {
      // Plain idle reap: still a polite goodbye, and a server-initiated
      // farewell is a permanent close — never a park.
      stats_.idle_reaped.add();
      send_frame(*it->second, FrameType::kGoodbye, 0, {});
      it->second->goodbye = true;
    }
    close_conn(io, id);
  }
}

bool SpmvServer::needs_sweep_tick() const {
  return config_.idle_timeout.count() > 0 ||
         config_.frame_timeout.count() > 0 ||
         config_.write_stall_bytes > 0 ||
         config_.resume_timeout.count() > 0;
}

}  // namespace spmv::net
