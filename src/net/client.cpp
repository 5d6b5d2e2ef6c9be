#include "net/client.h"

#include <arpa/inet.h>
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

namespace spmv::net {

SpmvNetClient::SpmvNetClient(ClientOptions options)
    : options_(std::move(options)),
      backoff_(options_.retry.backoff_base, options_.retry.backoff_cap,
               options_.retry.seed),
      breaker_(options_.retry.breaker_threshold,
               options_.retry.breaker_cooldown) {}

SpmvNetClient::~SpmvNetClient() {
  if (fd_ >= 0) {
    try {
      io_deadline_ = Clock::now() + options_.timeout;
      send_frame(FrameType::kGoodbye, next_request_id_++, {});
    } catch (...) {
      // Best-effort farewell; the socket close below is what matters.
    }
    close();
  }
}

void SpmvNetClient::connect() {
  connect_internal(Clock::now() + options_.timeout);
}

void SpmvNetClient::connect_internal(Clock::time_point deadline) {
  if (fd_ >= 0) throw std::logic_error("client already connected");
  server_goodbye_ = false;
  last_resumed_ = false;
  io_deadline_ = deadline;
  // Non-blocking from birth: every wait below goes through wait_io(), so
  // the whole connect + handshake shares one cumulative deadline.
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd_ < 0) throw std::runtime_error("client: socket() failed");

  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    close();
    throw std::runtime_error("client: bad host '" + options_.host + "'");
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    if (errno != EINPROGRESS) {
      const std::string err = std::strerror(errno);
      close();
      throw std::runtime_error("client: connect failed: " + err);
    }
    wait_io(POLLOUT);
    int soerr = 0;
    socklen_t len = sizeof soerr;
    if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &soerr, &len) != 0 ||
        soerr != 0) {
      const std::string err = std::strerror(soerr != 0 ? soerr : errno);
      close();
      throw std::runtime_error("client: connect failed: " + err);
    }
  }

  HelloRequest hello;
  hello.requested_quota = options_.requested_quota;
  hello.client_name = options_.client_name;
  // Offer the previous session for resumption; the server either restores
  // it (quota, replay window, in-flight work) or opens a fresh one.
  hello.resume_session_id = resume_session_id_;
  hello.resume_token = resume_token_;
  const bool offered_resume = resume_session_id_ != 0;
  const std::uint64_t id = next_request_id_++;
  send_frame(FrameType::kHello, id, encode_hello(hello));
  auto [type, payload] = await_frame(id);
  if (type == FrameType::kHelloOk) {
    HelloOk ok;
    if (!decode_hello_ok(payload, ok)) {
      close();
      throw std::runtime_error("client: malformed HELLO_OK");
    }
    session_id_ = ok.session_id;
    quota_ = ok.quota;
    resume_session_id_ = ok.session_id;
    resume_token_ = ok.resume_token;
    last_resumed_ = ok.resumed != 0;
    if (ever_connected_) ++counters_.reconnects;
    ever_connected_ = true;
    if (offered_resume) {
      if (last_resumed_) {
        ++counters_.resumes;
      } else {
        ++counters_.resume_rejected;
      }
    }
    return;
  }
  StatusMsg status;
  const bool decoded =
      type == FrameType::kStatus && decode_status(payload, status);
  close();
  throw std::runtime_error("client: handshake rejected: " +
                           (decoded ? status.message
                                    : std::string("protocol error")));
}

void SpmvNetClient::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  rdbuf_.clear();
  pending_.clear();
  // The session cache the shadow mirrors is not carried across a
  // reconnect — resumption restores the session but deliberately clears
  // its cached vector — so a reconnected client must ship a full operand
  // first, not a delta against a base the new connection never had.
  shadow_x_.clear();
  have_shadow_ = false;
  session_id_ = 0;
  quota_ = 0;
  // resume_session_id_/resume_token_ survive on purpose: they are the
  // identity connect() offers to get the session back.
}

// ---------------------------------------------------------------------------
// Operand encoding: the full/delta/cached crossover

OperandSpec SpmvNetClient::make_operand(std::span<const double> x) {
  OperandSpec spec;
  spec.n = static_cast<std::uint32_t>(x.size());
  const std::uint64_t dense = static_cast<std::uint64_t>(x.size()) * 8;

  bool pick_full = options_.delta_mode == ClientOptions::DeltaMode::kAlwaysFull;
  if (!pick_full && have_shadow_ && shadow_x_.size() == x.size()) {
    // Bridge gaps of fewer than 8 unchanged elements: re-sending them
    // costs less than a fresh 8-byte run header per isolated change.
    DeltaVec d = diff(shadow_x_, x, /*merge_gap=*/8);
    if (d.runs.empty()) {
      spec.mode = OperandMode::kCached;
    } else if (wire_bytes(d) < dense) {
      spec.mode = OperandMode::kDelta;
      spec.delta = std::move(d);
    } else {
      pick_full = true;
    }
  } else {
    pick_full = true;
  }
  if (pick_full) {
    spec.mode = OperandMode::kFull;
    spec.full.assign(x.begin(), x.end());
  }

  shadow_x_.assign(x.begin(), x.end());
  have_shadow_ = true;

  const std::uint64_t shipped = operand_wire_bytes(spec);
  counters_.operand_bytes_sent += shipped;
  counters_.operand_bytes_dense += dense;
  switch (spec.mode) {
    case OperandMode::kFull:
      ++counters_.full_operands;
      break;
    case OperandMode::kDelta:
      ++counters_.delta_operands;
      break;
    case OperandMode::kCached:
      ++counters_.cached_operands;
      break;
  }
  return spec;
}

OperandSpec SpmvNetClient::full_operand(std::span<const double> x) {
  // Retransmissions ship dense and leave the shadow untouched — they are
  // cache-neutral on both sides by the protocol's retransmission rule
  // (the server never re-applies a replayed id's operands either).
  OperandSpec spec;
  spec.mode = OperandMode::kFull;
  spec.n = static_cast<std::uint32_t>(x.size());
  spec.full.assign(x.begin(), x.end());
  counters_.operand_bytes_sent += operand_wire_bytes(spec);
  counters_.operand_bytes_dense += static_cast<std::uint64_t>(x.size()) * 8;
  ++counters_.full_operands;
  return spec;
}

// ---------------------------------------------------------------------------
// Request/response

SpmvNetClient::Result SpmvNetClient::upload(
    const std::string& name, std::uint32_t rows, std::uint32_t cols,
    std::vector<std::uint64_t> row_ptr, std::vector<std::uint32_t> col_idx,
    std::vector<double> values) {
  UploadMatrixRequest req;
  req.name = name;
  req.rows = rows;
  req.cols = cols;
  req.row_ptr = std::move(row_ptr);
  req.col_idx = std::move(col_idx);
  req.values = std::move(values);
  const std::uint64_t id = next_request_id_++;
  io_deadline_ = ladder_deadline();
  send_frame(FrameType::kUploadMatrix, id, encode_upload(req));
  auto [type, payload] = await_frame(id);
  return to_result(type, payload);
}

std::uint64_t SpmvNetClient::begin_multiply(const std::string& name,
                                            std::span<const double> x,
                                            std::uint64_t deadline_us,
                                            std::int32_t priority) {
  MultiplyRequest req;
  req.name = name;
  req.deadline_us = deadline_us;
  req.priority = priority;
  req.operand = make_operand(x);
  const std::uint64_t id = next_request_id_++;
  io_deadline_ = Clock::now() + options_.timeout;
  send_frame(FrameType::kMultiply, id, encode_multiply(req));
  return id;
}

SpmvNetClient::Result SpmvNetClient::multiply(const std::string& name,
                                              std::span<const double> x,
                                              std::uint64_t deadline_us,
                                              std::int32_t priority) {
  if (!options_.retry.enabled) {
    return await(begin_multiply(name, x, deadline_us, priority));
  }
  const std::uint64_t id = next_request_id_++;
  auto encode = [&](bool first) {
    MultiplyRequest req;
    req.name = name;
    req.deadline_us = deadline_us;
    req.priority = priority;
    req.operand = first ? make_operand(x) : full_operand(x);
    return encode_multiply(req);
  };
  try {
    auto [type, payload] = retry_call(id, encode, ladder_deadline());
    Result r = to_result(type, payload);
    note_reply_status(r.status);
    return r;
  } catch (const std::exception& e) {
    Result r;
    r.status = StatusCode::kConnectionLost;
    r.message = e.what();
    return r;
  }
}

void SpmvNetClient::note_reply_status(StatusCode code) {
  // kBadRequest and kProtocolError are the rejections the server issues
  // WITHOUT applying the request's operand to its session cache (every
  // other outcome — quota, unknown matrix, shed, deadline, shutdown —
  // applies it first, mirroring this shadow's unconditional update at
  // send time).  Drop the shadow so the next operand ships full instead
  // of a delta against a base the server no longer agrees on; resync
  // costs one dense send.
  if (code == StatusCode::kBadRequest || code == StatusCode::kProtocolError) {
    have_shadow_ = false;
  }
}

SpmvNetClient::Result SpmvNetClient::await(std::uint64_t request_id) {
  io_deadline_ = ladder_deadline();
  try {
    auto [type, payload] = await_frame(request_id);
    Result r = to_result(type, payload);
    note_reply_status(r.status);
    return r;
  } catch (const std::exception& e) {
    Result r;
    r.status = StatusCode::kConnectionLost;
    r.message = e.what();
    return r;
  }
}

SpmvNetClient::Result SpmvNetClient::cancel(std::uint64_t target_id) {
  CancelRequest req;
  req.target_id = target_id;
  const std::uint64_t id = next_request_id_++;
  io_deadline_ = Clock::now() + options_.timeout;
  send_frame(FrameType::kCancel, id, encode_cancel(req));
  return await(id);
}

bool SpmvNetClient::stats(StatsResult& out) {
  const std::uint64_t id = next_request_id_++;
  io_deadline_ = Clock::now() + options_.timeout;
  send_frame(FrameType::kStats, id, {});
  try {
    auto [type, payload] = await_frame(id);
    return type == FrameType::kStatsResult && decode_stats_result(payload, out);
  } catch (const std::exception&) {
    return false;
  }
}

bool SpmvNetClient::health(HealthResult& out) {
  const std::uint64_t id = next_request_id_++;
  io_deadline_ = Clock::now() + options_.timeout;
  send_frame(FrameType::kHealth, id, {});
  try {
    auto [type, payload] = await_frame(id);
    return type == FrameType::kHealthResult &&
           decode_health_result(payload, out);
  } catch (const std::exception&) {
    return false;
  }
}

// ---------------------------------------------------------------------------
// Retry ladder

SpmvNetClient::Clock::time_point SpmvNetClient::ladder_deadline() const {
  const auto budget = options_.rpc_budget.count() > 0 ? options_.rpc_budget
                                                      : options_.timeout;
  return Clock::now() + budget;
}

void SpmvNetClient::sleep_backoff(Clock::time_point deadline) {
  auto delay = backoff_.next();
  const auto now = Clock::now();
  if (now >= deadline) return;
  delay = std::min(
      delay, std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                   now));
  if (delay.count() > 0) std::this_thread::sleep_for(delay);
}

std::pair<FrameType, std::vector<std::uint8_t>> SpmvNetClient::retry_call(
    std::uint64_t request_id,
    const std::function<std::vector<std::uint8_t>(bool first)>& encode_attempt,
    Clock::time_point deadline) {
  const auto& policy = options_.retry;
  bool first = true;       // first wire transmission (governs delta encoding)
  bool first_try = true;   // first ladder iteration (governs retry counting)
  int attempts = 0;
  std::string last_error = "no attempt made";
  for (;;) {
    const auto now = Clock::now();
    if (!breaker_.allow(now)) {
      ++counters_.breaker_fast_fails;
      throw std::runtime_error("client: circuit breaker open (" + last_error +
                               ")");
    }
    if (attempts >= policy.max_attempts || now >= deadline) {
      throw std::runtime_error("client: retries exhausted (" + last_error +
                               ")");
    }
    // Every iteration after the first is a retry, whether it fails during
    // reconnect or during the exchange itself.
    if (!first_try) ++counters_.retries;
    first_try = false;
    ++attempts;
    try {
      if (fd_ < 0) {
        const bool had_session = resume_session_id_ != 0;
        connect_internal(std::min(deadline, Clock::now() + options_.timeout));
        if (had_session && !last_resumed_ && !first) {
          // This request was already transmitted at least once, and the
          // server refused to resume the session whose replay window
          // would hold its outcome (reaped, or net.resume_reject):
          // retransmitting on the fresh session would blindly re-execute
          // a multiply that may have run.  HELLO_OK with resumed == 0
          // means unacknowledged work is UNKNOWN — surface exactly that,
          // terminally; re-issuing under a NEW id is the caller's
          // decision.  The fresh connection itself is healthy and stays
          // usable.
          ++counters_.retry_abandoned;
          breaker_.record_success();
          backoff_.reset();
          StatusMsg m;
          m.code = StatusCode::kRetryUnknown;
          m.message =
              "session resume rejected on reconnect; outcome of the "
              "retransmitted request is unknown";
          return {FrameType::kStatus, encode_status(m)};
        }
      }
      // Each attempt gets one transport-level `timeout`, all of it inside
      // the ladder's cumulative budget.
      io_deadline_ = std::min(deadline, Clock::now() + options_.timeout);
      const std::vector<std::uint8_t> payload = encode_attempt(first);
      first = false;
      send_frame(FrameType::kMultiply, request_id, payload);
      auto reply = await_frame(request_id);
      StatusMsg status;
      if (reply.first == FrameType::kStatus &&
          decode_status(reply.second, status) &&
          status.code == StatusCode::kRetryPending) {
        // The original is still executing server-side.  The transport is
        // healthy (we just completed an exchange), so this poll does not
        // count against the breaker or the attempt cap — only the
        // deadline bounds it.
        ++counters_.retry_pending;
        breaker_.record_success();
        --attempts;
        sleep_backoff(deadline);
        continue;
      }
      breaker_.record_success();
      backoff_.reset();
      return reply;
    } catch (const std::exception& e) {
      last_error = e.what();
      if (breaker_.record_failure()) ++counters_.breaker_open_events;
      if (Clock::now() >= deadline || attempts >= policy.max_attempts) {
        throw std::runtime_error("client: retries exhausted (" + last_error +
                                 ")");
      }
      sleep_backoff(deadline);
    }
  }
}

// ---------------------------------------------------------------------------
// Transport

void SpmvNetClient::wait_io(short events) {
  for (;;) {
    if (fd_ < 0) throw std::runtime_error("client: not connected");
    const auto now = Clock::now();
    if (now >= io_deadline_) {
      close();
      throw std::runtime_error("client: rpc deadline exceeded");
    }
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(io_deadline_ -
                                                              now)
            .count();
    pollfd p{};
    p.fd = fd_;
    p.events = events;
    const int rc =
        ::poll(&p, 1, static_cast<int>(std::min<long long>(left + 1, 60000)));
    if (rc < 0) {
      if (errno == EINTR) continue;
      const std::string err = std::strerror(errno);
      close();
      throw std::runtime_error("client: poll failed: " + err);
    }
    // Ready (or error/EOF — the following syscall reports it); rc == 0
    // loops to re-check the deadline.
    if (rc > 0) return;
  }
}

void SpmvNetClient::send_frame(FrameType type, std::uint64_t request_id,
                               std::span<const std::uint8_t> payload) {
  const std::vector<std::uint8_t> frame =
      encode_frame(type, request_id, payload);
  send_all(frame.data(), frame.size());
}

void SpmvNetClient::send_all(const std::uint8_t* data, std::size_t n) {
  if (fd_ < 0) throw std::runtime_error("client: not connected");
  std::size_t off = 0;
  while (off < n) {
    // MSG_NOSIGNAL: a dropped server connection must throw, not SIGPIPE.
    const ssize_t w = ::send(fd_, data + off, n - off, MSG_NOSIGNAL);
    if (w > 0) {
      off += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      wait_io(POLLOUT);
      continue;
    }
    const std::string err =
        w < 0 ? std::strerror(errno) : std::string("short write");
    close();
    throw std::runtime_error("client: send failed: " + err);
  }
  counters_.bytes_sent += n;
}

void SpmvNetClient::recv_frame(FrameHeader& header,
                               std::vector<std::uint8_t>& payload) {
  std::uint8_t buf[65536];
  for (;;) {
    std::span<const std::uint8_t> view;
    std::size_t consumed = 0;
    const ParseStatus st =
        parse_frame(rdbuf_, options_.max_payload, header, view, consumed);
    if (st == ParseStatus::kFrame) {
      payload.assign(view.begin(), view.end());
      rdbuf_.erase(rdbuf_.begin(),
                   rdbuf_.begin() + static_cast<std::ptrdiff_t>(consumed));
      return;
    }
    if (st != ParseStatus::kNeedMore) {
      close();
      throw std::runtime_error(std::string("client: wire error: ") +
                               to_string(st));
    }
    if (fd_ < 0) throw std::runtime_error("client: not connected");
    const ssize_t n = ::read(fd_, buf, sizeof buf);
    if (n > 0) {
      rdbuf_.insert(rdbuf_.end(), buf, buf + n);
      counters_.bytes_received += static_cast<std::uint64_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      wait_io(POLLIN);
      continue;
    }
    const std::string err = n == 0 ? std::string("connection closed")
                                   : std::string(std::strerror(errno));
    close();
    throw std::runtime_error("client: " + err);
  }
}

std::pair<FrameType, std::vector<std::uint8_t>> SpmvNetClient::await_frame(
    std::uint64_t request_id) {
  if (auto it = pending_.find(request_id); it != pending_.end()) {
    auto reply = std::move(it->second);
    pending_.erase(it);
    return reply;
  }
  for (;;) {
    FrameHeader header;
    std::vector<std::uint8_t> payload;
    recv_frame(header, payload);
    if (header.request_id == request_id) {
      return {header.type, std::move(payload)};
    }
    if (header.type == FrameType::kGoodbye && header.request_id == 0) {
      server_goodbye_ = true;  // drain announcement, not a reply
      continue;
    }
    pending_.emplace(header.request_id,
                     std::make_pair(header.type, std::move(payload)));
  }
}

SpmvNetClient::Result SpmvNetClient::to_result(
    FrameType type, std::span<const std::uint8_t> payload) {
  Result r;
  switch (type) {
    case FrameType::kMultiplyResult: {
      MultiplyResult res;
      if (!decode_multiply_result(payload, res)) break;
      r.y = std::move(res.y);
      return r;
    }
    case FrameType::kStatus: {
      StatusMsg status;
      if (!decode_status(payload, status)) break;
      r.status = status.code;
      r.message = std::move(status.message);
      return r;
    }
    case FrameType::kGoodbye:  // echoed farewell
      return r;
    default:
      break;
  }
  r.status = StatusCode::kProtocolError;
  r.message = "unexpected reply frame";
  return r;
}

}  // namespace spmv::net
