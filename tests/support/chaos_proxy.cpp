#include "support/chaos_proxy.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "util/prng.h"

namespace spmv::net {

namespace {

using Clock = std::chrono::steady_clock;

// Per-direction buffer high-water mark: stop reading a side whose peer
// is not draining, so a stalled endpoint cannot balloon proxy memory.
constexpr std::size_t kBufferCap = 256 * 1024;
// Trickle mode: this many bytes per pacing interval.
constexpr std::size_t kTrickleChunk = 8;
constexpr auto kTrickleInterval = std::chrono::milliseconds(10);

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

}  // namespace

// One proxied connection: client <-> proxy <-> upstream server.  Only the
// relay thread ever touches a Relay, so the struct needs no locking.
struct ChaosProxy::Relay {
  int client_fd = -1;
  int up_fd = -1;
  bool up_connected = false;  ///< non-blocking connect still in flight
  bool client_eof = false;
  bool up_eof = false;
  bool downstream_open = true;  ///< false once kHalfClose fired
  bool dead = false;

  std::vector<std::uint8_t> to_up;      ///< client -> server, pending
  std::vector<std::uint8_t> to_client;  ///< server -> client, pending

  Prng rng;                ///< per-connection fault stream
  bool chaotic = false;    ///< on the scheduled-fault rotation?
  Fault fault = Fault::kNone;     ///< next scheduled fault (kNone = none)
  std::uint64_t fault_after = 0;  ///< relayed-byte threshold
  std::uint64_t relayed = 0;
  std::chrono::milliseconds stall_len{0};
  Clock::time_point stall_until{};
  bool trickling = false;
  Clock::time_point next_trickle_at{};
};

ChaosProxy::ChaosProxy(ChaosProxyConfig config) : config_(std::move(config)) {}

ChaosProxy::~ChaosProxy() { stop(); }

void ChaosProxy::start() {
  if (listen_fd_ >= 0) throw std::logic_error("chaos proxy already started");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) throw std::runtime_error("chaos proxy: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;  // ephemeral
  if (::inet_pton(AF_INET, config_.listen_host.c_str(), &addr.sin_addr) != 1 ||
      ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
          0 ||
      ::listen(listen_fd_, 64) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("chaos proxy: bind/listen failed: " + err);
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { run(); });
}

void ChaosProxy::stop() {
  if (!thread_.joinable()) return;
  stop_.store(true, std::memory_order_release);
  thread_.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
}

void ChaosProxy::kill_all() {
  kill_all_.store(true, std::memory_order_release);
}

void ChaosProxy::kill_on_next_downstream() {
  kill_next_downstream_.store(true, std::memory_order_release);
}

std::uint64_t ChaosProxy::accepted() const { return accepted_; }
std::uint64_t ChaosProxy::killed() const { return killed_; }
std::uint64_t ChaosProxy::faults() const { return faults_; }
std::uint64_t ChaosProxy::bytes_relayed() const { return bytes_relayed_; }

void ChaosProxy::open_relay(int client_fd, std::uint64_t index) {
  set_nodelay(client_fd);
  auto* r = new Relay;
  r->client_fd = client_fd;
  r->up_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (r->up_fd < 0) {
    ::close(client_fd);
    delete r;
    return;
  }
  set_nodelay(r->up_fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.upstream_port);
  if (::inet_pton(AF_INET, config_.upstream_host.c_str(), &addr.sin_addr) !=
      1) {
    ::close(client_fd);
    ::close(r->up_fd);
    delete r;
    return;
  }
  if (::connect(r->up_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) ==
      0) {
    r->up_connected = true;
  } else if (errno != EINPROGRESS) {
    ::close(client_fd);
    ::close(r->up_fd);
    delete r;
    return;
  }

  // Draw this connection's fate from the seeded stream.  The stream
  // depends only on (seed, index), never on timing, so a seed replays
  // exactly.
  if (config_.kill_every > 0 && (index + 1) % config_.kill_every == 0) {
    r->rng = Prng(config_.seed * 0x9e3779b97f4a7c15ULL + index + 1);
    r->chaotic = true;
    draw_fault(*r);
  }
  relays_.push_back(r);
}

void ChaosProxy::draw_fault(Relay& r) {
  switch (r.rng.next_below(4)) {
    case 0: r.fault = Fault::kKill; break;
    case 1: r.fault = Fault::kHalfClose; break;
    case 2: r.fault = Fault::kStall; break;
    default: r.fault = Fault::kTrickle; break;
  }
  const std::uint64_t lo = config_.fault_after_min;
  const std::uint64_t hi = std::max(config_.fault_after_max, lo);
  // Threshold is relative to bytes already relayed, so redraws after a
  // stall arm a fresh window rather than firing immediately.
  r.fault_after = r.relayed + lo + r.rng.next_below(hi - lo + 1);
  const std::uint32_t slo = config_.stall_ms_min;
  const std::uint32_t shi = std::max(config_.stall_ms_max, slo);
  r.stall_len =
      std::chrono::milliseconds(slo + r.rng.next_below(shi - slo + 1));
}

void ChaosProxy::run() {
  std::vector<pollfd> pfds;
  std::vector<Relay*> owners;  // parallel to pfds (nullptr = listener)

  const auto kill = [this](Relay& r) {
    if (r.dead) return;
    ::close(r.client_fd);
    ::close(r.up_fd);
    r.dead = true;
    killed_.add();
  };
  // Clean teardown after both sides drained: not counted as a kill.
  const auto retire = [](Relay& r) {
    if (r.dead) return;
    ::close(r.client_fd);
    ::close(r.up_fd);
    r.dead = true;
  };

  const auto fire_fault = [&](Relay& r, Clock::time_point now) {
    const Fault fault = r.fault;
    // Terminal by default; a recoverable fault (stall) redraws below.
    r.fault = Fault::kNone;
    faults_.add();
    switch (fault) {
      case Fault::kKill:
        kill(r);
        break;
      case Fault::kHalfClose:
        // The client-facing half goes silent: EOF toward the client, all
        // further downstream bytes discarded.  Upstream keeps flowing, so
        // a request already on the wire still executes — the
        // executed-but-unacknowledged case the replay cache exists for.
        ::shutdown(r.client_fd, SHUT_WR);
        r.downstream_open = false;
        r.to_client.clear();
        break;
      case Fault::kStall:
        r.stall_until = now + r.stall_len;
        // A brown-out recovers, so the connection stays on the chaos
        // rotation: draw the next fault instead of going clean forever.
        draw_fault(r);
        break;
      case Fault::kTrickle:
        r.trickling = true;
        break;
      case Fault::kNone:
        break;
    }
  };

  std::uint64_t next_index = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    if (kill_all_.exchange(false, std::memory_order_acq_rel)) {
      for (Relay* r : relays_) kill(*r);
    }

    const auto now = Clock::now();
    pfds.clear();
    owners.clear();
    pfds.push_back({listen_fd_, POLLIN, 0});
    owners.push_back(nullptr);
    for (Relay* r : relays_) {
      if (r->dead) continue;
      if (now < r->stall_until) continue;  // browned out: ignore this tick
      short cev = 0;
      if (!r->client_eof && r->to_up.size() < kBufferCap) cev |= POLLIN;
      if (!r->to_client.empty() && r->downstream_open &&
          (!r->trickling || now >= r->next_trickle_at)) {
        cev |= POLLOUT;
      }
      if (cev != 0) {
        pfds.push_back({r->client_fd, cev, 0});
        owners.push_back(r);
      }
      short uev = 0;
      if (!r->up_connected) {
        uev |= POLLOUT;  // awaiting non-blocking connect completion
      } else {
        if (!r->up_eof && r->to_client.size() < kBufferCap) uev |= POLLIN;
        if (!r->to_up.empty()) uev |= POLLOUT;
      }
      if (uev != 0) {
        pfds.push_back({r->up_fd, uev, 0});
        owners.push_back(r);
      }
    }

    const int rc = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 5);
    if (rc < 0 && errno != EINTR) break;

    // Accept new connections.
    if (rc > 0 && (pfds[0].revents & POLLIN) != 0) {
      for (;;) {
        const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) break;
        accepted_.add();
        open_relay(fd, next_index++);
      }
    }

    std::uint8_t buf[16384];
    for (std::size_t i = 1; i < pfds.size(); ++i) {
      Relay& r = *owners[i];
      if (r.dead || pfds[i].revents == 0) continue;
      const int fd = pfds[i].fd;
      const auto tick = Clock::now();

      if (fd == r.up_fd && !r.up_connected) {
        int soerr = 0;
        socklen_t slen = sizeof soerr;
        if (::getsockopt(r.up_fd, SOL_SOCKET, SO_ERROR, &soerr, &slen) != 0 ||
            soerr != 0) {
          kill(r);
        } else {
          r.up_connected = true;
        }
        continue;
      }

      if ((pfds[i].revents & (POLLERR | POLLNVAL)) != 0) {
        kill(r);
        continue;
      }

      if ((pfds[i].revents & (POLLIN | POLLHUP)) != 0) {
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n > 0) {
          if (fd == r.client_fd) {
            r.to_up.insert(r.to_up.end(), buf, buf + n);
          } else {
            // The one-shot downstream trap: consume the arm and cut the
            // connection instead of relaying what the server just sent.
            if (kill_next_downstream_.load(std::memory_order_acquire) &&
                kill_next_downstream_.exchange(false,
                                               std::memory_order_acq_rel)) {
              kill(r);
              continue;
            }
            if (r.downstream_open) {
              r.to_client.insert(r.to_client.end(), buf, buf + n);
            }
          }
        } else if (n == 0) {
          (fd == r.client_fd ? r.client_eof : r.up_eof) = true;
        } else if (errno != EAGAIN && errno != EWOULDBLOCK &&
                   errno != EINTR) {
          kill(r);
          continue;
        }
      }

      if ((pfds[i].revents & POLLOUT) != 0) {
        std::vector<std::uint8_t>& out =
            fd == r.client_fd ? r.to_client : r.to_up;
        std::size_t want = out.size();
        if (fd == r.client_fd && r.trickling) {
          want = std::min(want, kTrickleChunk);
          r.next_trickle_at = tick + kTrickleInterval;
        }
        if (want > 0) {
          const ssize_t w = ::send(fd, out.data(), want, MSG_NOSIGNAL);
          if (w > 0) {
            out.erase(out.begin(), out.begin() + w);
            r.relayed += static_cast<std::uint64_t>(w);
            bytes_relayed_.add(static_cast<std::uint64_t>(w));
            if (r.fault != Fault::kNone && r.relayed >= r.fault_after) {
              fire_fault(r, tick);
              continue;
            }
          } else if (w < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                     errno != EINTR) {
            kill(r);
            continue;
          }
        }
      }

      // Propagate EOFs once the corresponding buffer drained; retire the
      // relay when both directions are done.
      if (r.client_eof && r.to_up.empty()) ::shutdown(r.up_fd, SHUT_WR);
      if (r.up_eof && r.to_client.empty() && r.downstream_open) {
        ::shutdown(r.client_fd, SHUT_WR);
      }
      if (r.client_eof && r.up_eof && r.to_up.empty() &&
          (r.to_client.empty() || !r.downstream_open)) {
        retire(r);
      }
    }

    relays_.erase(std::remove_if(relays_.begin(), relays_.end(),
                                 [](Relay* r) {
                                   if (!r->dead) return false;
                                   delete r;
                                   return true;
                                 }),
                  relays_.end());
  }

  for (Relay* r : relays_) {
    if (!r->dead) {
      ::close(r->client_fd);
      ::close(r->up_fd);
    }
    delete r;
  }
  relays_.clear();
}

}  // namespace spmv::net
