#include "rt/tcp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <ctime>

#include "net/wire.h"
#include "util/check.h"
#include "util/log.h"

namespace vlease::rt {

namespace {

/// Per-recv() chunk; large enough that one drain pass under load moves
/// dozens of frames per syscall.
constexpr std::size_t kReadChunk = 64 * 1024;
/// Parsed-prefix bytes worth an erase-from-front compaction.
constexpr std::size_t kCompactThreshold = 64 * 1024;
/// Frames gathered per writev (IOV_MAX is >= 1024 everywhere; 64 keeps
/// the stack frame small and one syscall already amortizes fine).
constexpr int kMaxIov = 64;
/// Back-pressure bound: a connection whose pending queue would exceed
/// this is treated as wedged. A single frame is always admitted.
constexpr std::size_t kMaxPendingWriteBytes = 16u << 20;
/// First retry backoff (see Options::retryBackoffCapMs).
constexpr std::int64_t kRetryBackoffBaseMs = 2;

void setNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void setNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

TcpTransport::TcpTransport(RealTimeDriver& driver, stats::Metrics& metrics,
                           std::uint16_t port)
    : TcpTransport(driver, metrics, port, Options{}) {}

TcpTransport::TcpTransport(RealTimeDriver& driver, stats::Metrics& metrics,
                           std::uint16_t port, const Options& options)
    : driver_(driver),
      metrics_(metrics),
      options_(options),
      jitterState_(options.jitterSeed | 1) {
  listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  VL_CHECK_MSG(listenFd_ >= 0, "socket() failed");
  int one = 1;
  ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  VL_CHECK_MSG(::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) == 0,
               "bind() failed");
  // Full backlog: a flash crowd's connect storm queues instead of
  // eating RSTs (refusals that do happen are counted and healed by the
  // sender's bounded retry).
  VL_CHECK_MSG(::listen(listenFd_, SOMAXCONN) == 0, "listen() failed");
  setNonBlocking(listenFd_);

  socklen_t len = sizeof(addr);
  VL_CHECK(::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&addr),
                         &len) == 0);
  listenPort_ = ntohs(addr.sin_port);

  driver_.watchFd(listenFd_, [this]() { acceptReady(); });
  driver_.addBeforeWaitHook([this]() { flushDirty(); });
}

TcpTransport::~TcpTransport() {
  // Frames still queued -- sent after the last step, or left by a short
  // write -- get one bounded, nonblocking drain: every connection
  // shares a deadline of writeStallTimeoutMs. Frames a peer does not
  // take by then are dropped with a warning.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.writeStallTimeoutMs);
  std::vector<int> fds;
  std::size_t dropped = 0;
  for (auto& [fd, conn] : connections_) {
    fds.push_back(fd);
    while (flushOnce(conn) == FlushResult::kBlocked) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      pollfd p{fd, POLLOUT, 0};
      if (left.count() <= 0 ||
          ::poll(&p, 1, static_cast<int>(left.count())) <= 0) {
        break;
      }
    }
    dropped += conn.pending.size();
  }
  if (dropped > 0) {
    VL_LOG_WARN << "tcp: " << dropped
                << " queued frame(s) dropped at transport teardown";
  }
  // Every peer fd is a connection (connectPeer registers it), so this
  // closes them all.
  for (const int fd : fds) closeConnection(fd);
  if (listenFd_ >= 0) {
    driver_.unwatchFd(listenFd_);
    ::close(listenFd_);
  }
}

void TcpTransport::addPeer(NodeId node, const std::string& host,
                           std::uint16_t port) {
  peers_[node] = Peer{host, port, -1, false};
}

void TcpTransport::attach(NodeId node, net::MessageSink* sink) {
  VL_CHECK(sink != nullptr);
  sinks_[node] = sink;
}

void TcpTransport::detach(NodeId node) { sinks_.erase(node); }

void TcpTransport::acceptReady() {
  for (;;) {
    int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN etc.: drained (listen fd is nonblocking)
    setNoDelay(fd);
    setNonBlocking(fd);
    Connection conn;
    conn.fd = fd;
    connections_.emplace(fd, std::move(conn));
    driver_.watchFd(fd, [this, fd]() { readReady(fd); });
  }
}

void TcpTransport::closeConnection(int fd) {
  auto it = connections_.find(fd);
  if (it != connections_.end()) {
    Connection& conn = it->second;
    // Frames still queued die with the connection (at teardown; every
    // other path salvages them first); account them so every admitted
    // frame ends up in framesSent or sendFailures.
    if (conn.pendingHead > 0) ++partialFrameAborts_;
    sendFailures_ += static_cast<std::int64_t>(conn.pending.size());
    connections_.erase(it);
  }
  driver_.unwatchFd(fd);
  for (auto& [node, peer] : peers_) {
    if (peer.fd == fd) peer.fd = -1;
  }
  ::close(fd);
}

std::deque<std::vector<std::uint8_t>> TcpTransport::abortConnection(int fd) {
  std::deque<std::vector<std::uint8_t>> salvaged;
  auto it = connections_.find(fd);
  if (it != connections_.end()) {
    Connection& conn = it->second;
    if (conn.pendingHead > 0) ++partialFrameAborts_;
    salvaged = std::move(conn.pending);
    conn.pending.clear();
    conn.pendingHead = 0;
    conn.pendingBytes = 0;
  }
  closeConnection(fd);
  return salvaged;
}

void TcpTransport::readReady(int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  Connection& conn = it->second;

  // Drain until EAGAIN (level-triggered backends report again if the
  // peer keeps writing; a short read means the socket is empty now).
  bool dead = false;
  std::uint8_t chunk[kReadChunk];
  for (;;) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n > 0) {
      conn.buffer.insert(conn.buffer.end(), chunk, chunk + n);
      if (static_cast<std::size_t>(n) == sizeof(chunk)) continue;
      break;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    dead = true;  // EOF or hard error
    break;
  }

  // Peel every complete frame into a batch. Delivery is deferred until
  // the connection bookkeeping is done: a delivered handler may re-enter
  // the transport (send, injected truncation) and tear this very
  // connection down, so nothing below the batch loop may touch `conn`.
  std::vector<net::Message> batch;
  std::size_t offset = conn.head;
  bool corrupt = false;
  while (conn.buffer.size() - offset >= 4) {
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<std::uint32_t>(conn.buffer[offset + i]) << (8 * i);
    }
    if (len > (1u << 24)) {  // corrupt length: drop the connection
      corrupt = true;
      break;
    }
    if (conn.buffer.size() - offset - 4 < len) break;  // incomplete
    auto msg = net::decodeMessage(conn.buffer.data() + offset + 4, len);
    offset += 4 + len;
    if (!msg.has_value()) {
      ++framesRejected_;
      VL_LOG_WARN << "tcp: undecodable frame dropped";
      continue;
    }
    batch.push_back(std::move(*msg));
  }

  if (corrupt || dead) {
    // Unconsumed bytes are a frame that can now never complete -- the
    // sender aborted mid-write (or was killed), or the length prefix is
    // garbage: reject the prefix so the loss is visible.
    if (conn.buffer.size() - offset > 0) {
      ++framesRejected_;
      if (dead) {
        VL_LOG_WARN << "tcp: connection died mid-frame, "
                    << (conn.buffer.size() - offset)
                    << " byte prefix rejected";
      }
    }
    if (conn.pending.empty()) {
      closeConnection(fd);
    } else {
      // An outbound connection died with frames queued (a peer that
      // reset it mid-backlog): resend them whole on a fresh connection.
      const NodeId node = conn.peerNode;
      retryFrames(node, abortConnection(fd));
    }
  } else if (offset == conn.buffer.size()) {
    conn.buffer.clear();
    conn.head = 0;
  } else if (offset >= kCompactThreshold) {
    conn.buffer.erase(
        conn.buffer.begin(),
        conn.buffer.begin() + static_cast<std::ptrdiff_t>(offset));
    conn.head = 0;
  } else {
    conn.head = offset;
  }

  for (net::Message& msg : batch) {
    if (faultHook_ != nullptr && faultHook_->dropInbound(msg.from, msg.to)) {
      ++injectedDrops_;
      continue;
    }
    ++framesReceived_;
    deliverLocal(msg);
  }
}

void TcpTransport::deliverLocal(const net::Message& msg) {
  auto it = sinks_.find(msg.to);
  if (it == sinks_.end()) {
    VL_LOG_WARN << "tcp: frame for unknown node " << raw(msg.to);
    return;
  }
  metrics_.onMessage(msg.from, msg.to, net::payloadTypeIndex(msg.payload),
                     net::wireBytes(msg.payload), driver_.elapsed(),
                     /*delivered=*/true);
  it->second->deliver(msg);
}

int TcpTransport::connectPeer(NodeId node, Peer& peer) {
  if (peer.fd >= 0) return peer.fd;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(peer.port);
  if (::inet_pton(AF_INET, peer.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return -1;
  }
  // Nonblocking connect with a bounded deadline: a blocked-off or
  // blackholed peer must not stall the event loop for the kernel's
  // default SYN-retry minutes.
  setNonBlocking(fd);
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno == EINPROGRESS) {
    pollfd p{fd, POLLOUT, 0};
    if (::poll(&p, 1, options_.connectTimeoutMs) <= 0) {
      ::close(fd);
      return -1;
    }
    int soerr = 0;
    socklen_t slen = sizeof(soerr);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &slen) != 0 ||
        soerr != 0) {
      if (soerr == ECONNREFUSED) ++connectRefusals_;
      ::close(fd);
      return -1;
    }
  } else if (rc != 0) {
    if (errno == ECONNREFUSED) ++connectRefusals_;
    ::close(fd);
    return -1;
  }
  setNoDelay(fd);
  if (peer.everConnected) ++reconnects_;
  peer.everConnected = true;
  peer.fd = fd;
  // Watch for replies arriving on the outbound connection too, and
  // install the flush continuation for EPOLLOUT re-arms.
  Connection conn;
  conn.fd = fd;
  conn.outbound = true;
  conn.peerNode = node;
  connections_.emplace(fd, std::move(conn));
  driver_.watchFd(fd, [this, fd]() { readReady(fd); });
  driver_.setWriteHandler(fd, [this, fd]() { onWritable(fd); });
  return fd;
}

void TcpTransport::armWrite(Connection& conn, bool enabled) {
  if (conn.writeArmed == enabled) return;
  conn.writeArmed = enabled;
  driver_.setWriteInterest(conn.fd, enabled);
}

void TcpTransport::markDirty(Connection& conn) {
  if (conn.dirty) return;
  conn.dirty = true;
  dirty_.push_back(conn.fd);
}

TcpTransport::FlushResult TcpTransport::flushOnce(Connection& conn) {
  while (!conn.pending.empty()) {
    iovec iov[kMaxIov];
    int iovCount = 0;
    std::size_t head = conn.pendingHead;
    for (const auto& f : conn.pending) {
      if (iovCount == kMaxIov) break;
      iov[iovCount].iov_base = const_cast<std::uint8_t*>(f.data() + head);
      iov[iovCount].iov_len = f.size() - head;
      head = 0;
      ++iovCount;
    }
    msghdr mh{};
    mh.msg_iov = iov;
    mh.msg_iovlen = static_cast<std::size_t>(iovCount);
    ssize_t n = ::sendmsg(conn.fd, &mh, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return FlushResult::kBlocked;
      return FlushResult::kDead;
    }
    std::size_t left = static_cast<std::size_t>(n);
    while (left > 0) {
      std::vector<std::uint8_t>& front = conn.pending.front();
      const std::size_t avail = front.size() - conn.pendingHead;
      if (left >= avail) {
        left -= avail;
        conn.pendingBytes -= front.size();
        conn.pendingHead = 0;
        conn.pending.pop_front();
        ++framesSent_;
      } else {
        conn.pendingHead += left;
        left = 0;
      }
    }
  }
  return FlushResult::kDrained;
}

void TcpTransport::flush(Connection& conn) {
  const FlushResult r = flushOnce(conn);
  if (r == FlushResult::kDrained) {
    armWrite(conn, false);
    return;
  }
  if (r == FlushResult::kBlocked) {
    armWrite(conn, true);  // EPOLLOUT re-arm: the remainder flushes when
    return;                // the socket drains
  }
  // The peer vanished with frames queued: salvage whole frames and
  // resend them on a fresh connection.
  const int fd = conn.fd;
  const NodeId node = conn.peerNode;
  retryFrames(node, abortConnection(fd));
}

void TcpTransport::flushDirty() {
  if (dirty_.empty()) return;
  std::vector<int> batch;
  batch.swap(dirty_);  // flushing may re-dirty (retry path re-queues)
  for (const int fd : batch) {
    auto it = connections_.find(fd);
    if (it == connections_.end()) continue;
    it->second.dirty = false;
    if (it->second.pending.empty() || it->second.writeArmed) continue;
    flush(it->second);
  }
}

void TcpTransport::onWritable(int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  flush(it->second);
}

void TcpTransport::retryFrames(NodeId node,
                               std::deque<std::vector<std::uint8_t>> frames) {
  auto peerIt = peers_.find(node);
  if (frames.empty()) return;
  if (peerIt == peers_.end()) {
    sendFailures_ += static_cast<std::int64_t>(frames.size());
    return;
  }
  Peer& peer = peerIt->second;
  for (int attempt = 1; attempt <= options_.maxRetries; ++attempt) {
    ++sendRetries_;
    backoffSleep(attempt);
    const int fd = connectPeer(node, peer);
    if (fd < 0) continue;
    Connection& conn = connections_.at(fd);
    for (auto& f : frames) {
      conn.pendingBytes += f.size();
      conn.pending.push_back(std::move(f));
    }
    frames.clear();
    const FlushResult r = flushOnce(conn);
    if (r == FlushResult::kDrained) {
      armWrite(conn, false);
      return;
    }
    if (r == FlushResult::kBlocked) {
      armWrite(conn, true);  // queued on a live connection: in flight
      return;
    }
    frames = abortConnection(fd);  // died again; next attempt
  }
  sendFailures_ += static_cast<std::int64_t>(frames.size());
}

void TcpTransport::enqueue(NodeId node, Peer& peer,
                           std::vector<std::uint8_t> frame) {
  const int fd = connectPeer(node, peer);
  if (fd >= 0) {
    Connection& conn = connections_.at(fd);
    if (conn.pending.empty() ||
        conn.pendingBytes + frame.size() <= kMaxPendingWriteBytes) {
      // The frame leaves at the driver's next before-wait flush,
      // gathered with everything else queued by then. If EPOLLOUT is
      // armed the socket is full; the flush continuation picks the
      // frame up instead.
      conn.pendingBytes += frame.size();
      conn.pending.push_back(std::move(frame));
      if (!conn.writeArmed) markDirty(conn);
      return;
    }
    // Back-pressure wedge: the peer stopped draining and the queue hit
    // its bound. Abort the connection (the prefix dies with it), charge
    // the backlog as failures, and resend just the new frame fresh.
    sendFailures_ += static_cast<std::int64_t>(abortConnection(fd).size());
  }
  // A connect racing the peer's listen() heals on reconnect.
  std::deque<std::vector<std::uint8_t>> frames;
  frames.push_back(std::move(frame));
  retryFrames(node, std::move(frames));
}

void TcpTransport::backoffSleep(int attempt) {
  std::int64_t delayMs = kRetryBackoffBaseMs;
  for (int i = 1; i < attempt && delayMs < options_.retryBackoffCapMs; ++i) {
    delayMs *= 2;
  }
  delayMs = std::min<std::int64_t>(delayMs, options_.retryBackoffCapMs);
  // xorshift jitter in [0.5, 1.5): decorrelates retry storms when many
  // senders lose the same peer at once.
  jitterState_ ^= jitterState_ << 13;
  jitterState_ ^= jitterState_ >> 7;
  jitterState_ ^= jitterState_ << 17;
  const double jitter =
      0.5 + static_cast<double>(jitterState_ >> 11) /
                static_cast<double>(1ull << 53);
  delayMs = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(static_cast<double>(delayMs) * jitter));
  // Absolute-deadline sleep: an injected signal gets EINTR and re-enters
  // for the remainder instead of silently shortening the backoff (the
  // old ::poll(nullptr, 0, ms) idiom returned early on any signal).
  timespec deadline;
  ::clock_gettime(CLOCK_MONOTONIC, &deadline);
  deadline.tv_sec += delayMs / 1000;
  deadline.tv_nsec += (delayMs % 1000) * 1000000L;
  if (deadline.tv_nsec >= 1000000000L) {
    deadline.tv_nsec -= 1000000000L;
    ++deadline.tv_sec;
  }
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &deadline,
                           nullptr) == EINTR) {
  }
}

void TcpTransport::injectTruncation(NodeId node, Peer& peer,
                                    const std::vector<std::uint8_t>& frame,
                                    const SendFault& fault) {
  const int fd = connectPeer(node, peer);
  if (fd < 0) return;  // peer unreachable anyway; the frame is lost
  Connection& conn = connections_.at(fd);
  // Flush the backlog once first so the injected prefix lands at a frame
  // boundary; if it does not drain the connection dies here, which is a
  // blunter version of the same injected fault.
  if (!conn.pending.empty() && flushOnce(conn) != FlushResult::kDrained) {
    sendFailures_ += static_cast<std::int64_t>(abortConnection(fd).size());
    return;
  }
  const std::size_t prefix = std::min(fault.truncateAt, frame.size());
  ssize_t written = 0;
  if (prefix > 0) {
    do {
      written = ::send(fd, frame.data(), prefix, MSG_NOSIGNAL | MSG_DONTWAIT);
    } while (written < 0 && errno == EINTR);
  }
  if (written > 0 && static_cast<std::size_t>(written) < frame.size()) {
    ++partialFrameAborts_;
  }
  if (fault.halfClose) ::shutdown(fd, SHUT_WR);
  closeConnection(fd);
}

void TcpTransport::send(net::Message msg) {
  driver_.checkNoOtherStep();
  // Local recipient: bypass the socket but keep asynchrony (scheduler
  // hop) so delivery order matches the simulator's semantics.
  if (sinks_.count(msg.to) > 0) {
    driver_.scheduler().scheduleAfter(0, [this, m = std::move(msg)]() {
      deliverLocal(m);
    });
    return;
  }
  auto peerIt = peers_.find(msg.to);
  if (peerIt == peers_.end()) {
    ++sendFailures_;
    VL_LOG_WARN << "tcp: no route to node " << raw(msg.to);
    return;
  }
  std::vector<std::uint8_t> frame = net::encodeFrame(msg);

  if (faultHook_ != nullptr) {
    const SendFault fault = faultHook_->onSend(msg.from, msg.to, frame.size());
    if (fault.kind == SendFault::Kind::kDrop) {
      ++injectedDrops_;
      metrics_.onMessage(msg.from, msg.to, net::payloadTypeIndex(msg.payload),
                         net::wireBytes(msg.payload), driver_.elapsed(),
                         /*delivered=*/false);
      return;
    }
    if (fault.kind == SendFault::Kind::kTruncate) {
      ++injectedTruncations_;
      metrics_.onMessage(msg.from, msg.to, net::payloadTypeIndex(msg.payload),
                         net::wireBytes(msg.payload), driver_.elapsed(),
                         /*delivered=*/false);
      // Injected mid-write death. No retry: the injected fault IS the
      // loss, and the protocols must recover from it.
      injectTruncation(msg.to, peerIt->second, frame, fault);
      return;
    }
  }

  metrics_.onMessage(msg.from, msg.to, net::payloadTypeIndex(msg.payload),
                     net::wireBytes(msg.payload), driver_.elapsed(),
                     /*delivered=*/true);
  enqueue(msg.to, peerIt->second, std::move(frame));
}

}  // namespace vlease::rt
