// Distributed deployment test: the SAME volume-lease state machines the
// simulator runs are deployed across two real event-loop threads talking
// TCP over localhost -- a server node in one thread, a client node in the
// other. Verifies lease acquisition, cache hits, server-driven
// invalidation, write commit, and lease timing against the wall clock.
//
// Lease durations are milliseconds so the test completes quickly; the
// protocol code is identical to the simulated one (time is just wall
// time here).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "core/volume_client.h"
#include "core/volume_server.h"
#include "net/wire.h"
#include "rt/tcp_transport.h"
#include "trace/catalog.h"

namespace vlease::rt {
namespace {

/// Bounded future wait: a protocol bug must fail the test, not hang CI.
template <typename T>
T getWithin(std::future<T>& future, int seconds = 20) {
  if (future.wait_for(std::chrono::seconds(seconds)) !=
      std::future_status::ready) {
    ADD_FAILURE() << "future not ready within " << seconds << "s";
    std::abort();
  }
  return future.get();
}

struct NodeHost {
  explicit NodeHost(const trace::Catalog& catalog)
      : catalog(catalog), transport(driver, metrics, /*port=*/0) {}

  void start() {
    thread = std::thread([this]() { driver.run(); });
  }
  void stopAndJoin() {
    driver.stop();
    if (thread.joinable()) thread.join();
  }

  /// Run `fn` on the loop thread and wait for its result.
  template <typename Fn>
  auto call(Fn fn) -> decltype(fn()) {
    using R = decltype(fn());
    std::promise<R> promise;
    auto future = promise.get_future();
    driver.post([&promise, fn = std::move(fn)]() mutable {
      promise.set_value(fn());
    });
    return getWithin(future);
  }

  const trace::Catalog& catalog;
  RealTimeDriver driver;
  stats::Metrics metrics;
  TcpTransport transport;
  std::thread thread;
};

struct CountingSink : net::MessageSink {
  std::atomic<int> received{0};
  void deliver(const net::Message&) override { ++received; }
};

TEST(TcpDeployment, EndToEndLeaseProtocolOverSockets) {
  trace::Catalog catalog(1, 1);
  const VolumeId vol = catalog.addVolume(catalog.serverNode(0));
  const ObjectId objA = catalog.addObject(vol, 2048);
  const ObjectId objB = catalog.addObject(vol, 1024);
  const NodeId serverId = catalog.serverNode(0);
  const NodeId clientId = catalog.clientNode(0);

  proto::ProtocolConfig config;
  config.algorithm = proto::Algorithm::kVolumeLease;
  config.objectTimeout = msec(2000);
  config.volumeTimeout = msec(400);
  config.msgTimeout = msec(200);
  config.readTimeout = msec(1000);

  NodeHost serverHost(catalog);
  NodeHost clientHost(catalog);
  serverHost.transport.addPeer(clientId, "127.0.0.1",
                               clientHost.transport.listenPort());
  clientHost.transport.addPeer(serverId, "127.0.0.1",
                               serverHost.transport.listenPort());

  proto::ProtocolContext serverCtx{serverHost.driver.scheduler(),
                                   serverHost.transport, serverHost.metrics,
                                   catalog};
  proto::ProtocolContext clientCtx{clientHost.driver.scheduler(),
                                   clientHost.transport, clientHost.metrics,
                                   catalog};
  core::VolumeServer server(serverCtx, serverId, config,
                            core::InvalidationMode::kImmediate);
  core::VolumeClient client(clientCtx, clientId, config);

  serverHost.start();
  clientHost.start();

  auto readBlocking = [&](ObjectId obj) {
    std::promise<proto::ReadResult> promise;
    auto future = promise.get_future();
    clientHost.driver.post([&]() {
      client.read(obj, [&promise](const proto::ReadResult& r) {
        promise.set_value(r);
      });
    });
    return getWithin(future);
  };

  // 1. Cold read: volume + object leases + data over real sockets.
  proto::ReadResult first = readBlocking(objA);
  EXPECT_TRUE(first.ok);
  EXPECT_TRUE(first.usedNetwork);
  EXPECT_TRUE(first.fetchedData);
  EXPECT_EQ(first.version, 1);

  // 2. Immediate re-read: pure cache hit, zero frames. Counters are
  //    loop-thread-owned, so read them via call() while the loop runs.
  const std::int64_t framesBefore =
      clientHost.call([&]() { return clientHost.transport.framesSent(); });
  proto::ReadResult second = readBlocking(objA);
  EXPECT_TRUE(second.ok);
  EXPECT_FALSE(second.usedNetwork);
  EXPECT_EQ(clientHost.call([&]() { return clientHost.transport.framesSent(); }),
            framesBefore);

  // 3. Second object in the same volume: object lease only.
  proto::ReadResult third = readBlocking(objB);
  EXPECT_TRUE(third.ok);
  EXPECT_TRUE(third.fetchedData);

  // 4. Server writes objA: the client is invalidated (over TCP) before
  //    the write commits, and commits fast (client reachable).
  std::promise<proto::WriteResult> writePromise;
  auto writeFuture = writePromise.get_future();
  serverHost.driver.post([&]() {
    server.write(objA, [&writePromise](const proto::WriteResult& w) {
      writePromise.set_value(w);
    });
  });
  proto::WriteResult write = getWithin(writeFuture);
  EXPECT_EQ(write.newVersion, 2);
  EXPECT_FALSE(write.blocked);
  EXPECT_LT(toSeconds(write.delay), 0.25);  // round trip, not lease expiry

  // 5. Re-read objA: fetches version 2 (never version 1 again).
  proto::ReadResult fourth = readBlocking(objA);
  EXPECT_TRUE(fourth.ok);
  EXPECT_TRUE(fourth.fetchedData);
  EXPECT_EQ(fourth.version, 2);

  // 6. Let the volume lease (400 ms) expire; the next read renews it
  //    over the wire but keeps the cached object data.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  proto::ReadResult fifth = readBlocking(objA);
  EXPECT_TRUE(fifth.ok);
  EXPECT_TRUE(fifth.usedNetwork);
  EXPECT_FALSE(fifth.fetchedData);

  // Sanity on the transport counters: real frames moved in both
  // directions and nothing was undeliverable. Joining first gives the
  // main thread a synchronized view of the loop-thread-owned counters.
  clientHost.stopAndJoin();
  serverHost.stopAndJoin();
  EXPECT_GT(clientHost.transport.framesSent(), 0);
  EXPECT_GT(clientHost.transport.framesReceived(), 0);
  EXPECT_GT(serverHost.transport.framesSent(), 0);
  EXPECT_EQ(clientHost.transport.sendFailures(), 0);
  EXPECT_EQ(serverHost.transport.sendFailures(), 0);
}

TEST(TcpDeployment, InvalidationFanOutToTwoClientLoops) {
  // Three event loops: one server, two clients. A write must invalidate
  // both caches over their separate sockets before committing.
  trace::Catalog catalog(1, 2);
  const VolumeId vol = catalog.addVolume(catalog.serverNode(0));
  const ObjectId obj = catalog.addObject(vol, 1024);
  (void)vol;

  proto::ProtocolConfig config;
  config.algorithm = proto::Algorithm::kVolumeLease;
  config.objectTimeout = sec(30);
  config.volumeTimeout = sec(30);
  config.msgTimeout = msec(500);
  config.readTimeout = sec(2);

  NodeHost serverHost(catalog);
  NodeHost clientHostA(catalog);
  NodeHost clientHostB(catalog);
  serverHost.transport.addPeer(catalog.clientNode(0), "127.0.0.1",
                               clientHostA.transport.listenPort());
  serverHost.transport.addPeer(catalog.clientNode(1), "127.0.0.1",
                               clientHostB.transport.listenPort());
  clientHostA.transport.addPeer(catalog.serverNode(0), "127.0.0.1",
                                serverHost.transport.listenPort());
  clientHostB.transport.addPeer(catalog.serverNode(0), "127.0.0.1",
                                serverHost.transport.listenPort());

  proto::ProtocolContext serverCtx{serverHost.driver.scheduler(),
                                   serverHost.transport, serverHost.metrics,
                                   catalog};
  proto::ProtocolContext ctxA{clientHostA.driver.scheduler(),
                              clientHostA.transport, clientHostA.metrics,
                              catalog};
  proto::ProtocolContext ctxB{clientHostB.driver.scheduler(),
                              clientHostB.transport, clientHostB.metrics,
                              catalog};
  core::VolumeServer server(serverCtx, catalog.serverNode(0), config,
                            core::InvalidationMode::kImmediate);
  core::VolumeClient clientA(ctxA, catalog.clientNode(0), config);
  core::VolumeClient clientB(ctxB, catalog.clientNode(1), config);

  serverHost.start();
  clientHostA.start();
  clientHostB.start();

  auto readOn = [&](NodeHost& host, core::VolumeClient& client) {
    std::promise<proto::ReadResult> p;
    auto f = p.get_future();
    host.driver.post([&]() {
      client.read(obj, [&p](const proto::ReadResult& r) { p.set_value(r); });
    });
    return getWithin(f);
  };

  ASSERT_TRUE(readOn(clientHostA, clientA).ok);
  ASSERT_TRUE(readOn(clientHostB, clientB).ok);

  std::promise<proto::WriteResult> wp;
  auto wf = wp.get_future();
  serverHost.driver.post([&]() {
    server.write(obj, [&wp](const proto::WriteResult& w) { wp.set_value(w); });
  });
  proto::WriteResult write = getWithin(wf);
  EXPECT_EQ(write.newVersion, 2);
  EXPECT_FALSE(write.blocked);
  EXPECT_LT(toSeconds(write.delay), 0.4);  // both acks, not lease expiry

  // Both clients refetch version 2.
  auto ra = readOn(clientHostA, clientA);
  auto rb = readOn(clientHostB, clientB);
  EXPECT_EQ(ra.version, 2);
  EXPECT_EQ(rb.version, 2);
  EXPECT_TRUE(ra.fetchedData);
  EXPECT_TRUE(rb.fetchedData);

  clientHostA.stopAndJoin();
  clientHostB.stopAndJoin();
  serverHost.stopAndJoin();
}

TEST(TcpDeployment, WriteBoundedByVolumeLeaseWhenClientDies) {
  // The paper's fault-tolerance bound, on real sockets and a real
  // clock: kill the client's event loop; a write then commits within
  // ~the volume lease, not the long object lease.
  trace::Catalog catalog(1, 1);
  const VolumeId vol = catalog.addVolume(catalog.serverNode(0));
  const ObjectId obj = catalog.addObject(vol, 512);
  const NodeId serverId = catalog.serverNode(0);
  const NodeId clientId = catalog.clientNode(0);

  proto::ProtocolConfig config;
  config.algorithm = proto::Algorithm::kVolumeLease;
  config.objectTimeout = sec(60);     // long
  config.volumeTimeout = msec(600);   // short
  config.msgTimeout = msec(300);
  config.readTimeout = msec(1000);

  NodeHost serverHost(catalog);
  NodeHost clientHost(catalog);
  serverHost.transport.addPeer(clientId, "127.0.0.1",
                               clientHost.transport.listenPort());
  clientHost.transport.addPeer(serverId, "127.0.0.1",
                               serverHost.transport.listenPort());

  proto::ProtocolContext serverCtx{serverHost.driver.scheduler(),
                                   serverHost.transport, serverHost.metrics,
                                   catalog};
  proto::ProtocolContext clientCtx{clientHost.driver.scheduler(),
                                   clientHost.transport, clientHost.metrics,
                                   catalog};
  core::VolumeServer server(serverCtx, serverId, config,
                            core::InvalidationMode::kImmediate);
  core::VolumeClient client(clientCtx, clientId, config);

  serverHost.start();
  clientHost.start();

  std::promise<proto::ReadResult> readPromise;
  auto readFuture = readPromise.get_future();
  clientHost.driver.post([&]() {
    client.read(obj, [&readPromise](const proto::ReadResult& r) {
      readPromise.set_value(r);
    });
  });
  ASSERT_TRUE(getWithin(readFuture).ok);

  // Kill the client loop: invalidations will go unanswered. (The TCP
  // connection stays open -- like a partitioned-but-not-closed peer.)
  clientHost.stopAndJoin();

  std::promise<proto::WriteResult> writePromise;
  auto writeFuture = writePromise.get_future();
  const auto t0 = std::chrono::steady_clock::now();
  serverHost.driver.post([&]() {
    server.write(obj, [&writePromise](const proto::WriteResult& w) {
      writePromise.set_value(w);
    });
  });
  proto::WriteResult write = getWithin(writeFuture);
  const double elapsedSec =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0)
          .count() /
      1000.0;
  EXPECT_FALSE(write.blocked);
  EXPECT_LT(elapsedSec, 5.0);  // bounded by ~volume lease, NOT 60 s
  EXPECT_TRUE(server.isUnreachable(clientId, vol));

  serverHost.stopAndJoin();
}

TEST(TcpTransportRetry, DeadPortRetriesOnceAndCountsOneFailure) {
  // A peer port with nothing listening: the first connect fails, the
  // single backoff-retry fails too, and the message counts as ONE send
  // failure (not one per attempt).
  trace::Catalog catalog(1, 1);
  const VolumeId vol = catalog.addVolume(catalog.serverNode(0));
  const ObjectId obj = catalog.addObject(vol, 256);
  (void)vol;

  // Grab a port the OS considers free, then free it again.
  std::uint16_t deadPort = 0;
  {
    RealTimeDriver tmpDriver;
    stats::Metrics tmpMetrics;
    TcpTransport tmp(tmpDriver, tmpMetrics, /*port=*/0);
    deadPort = tmp.listenPort();
  }

  RealTimeDriver driver;
  stats::Metrics metrics;
  TcpTransport transport(driver, metrics, /*port=*/0);
  transport.addPeer(catalog.serverNode(0), "127.0.0.1", deadPort);

  transport.send(net::Message{catalog.clientNode(0), catalog.serverNode(0),
                              net::Invalidate{obj}});
  EXPECT_EQ(transport.sendRetries(), 1);
  EXPECT_EQ(transport.sendFailures(), 1);
  EXPECT_EQ(transport.framesSent(), 0);
}

TEST(TcpTransportRetry, ReconnectsToRestartedPeerWithoutLosingTheSend) {
  // Peer restart: the sender holds a connection that the old peer reset
  // before a new peer came up on the same port. The next flush fails on
  // the dead fd; the retry must close it, reconnect, and deliver the
  // SAME message -- zero send failures.
  const NodeId serverId = makeNodeId(0);
  const NodeId clientId = makeNodeId(1);
  const net::Message msg{clientId, serverId, net::Invalidate{makeObjectId(3)}};

  // The old peer: a bare listener that resets its one connection once
  // the first frame is in.
  int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  int one = 1;
  ::setsockopt(lfd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(lfd, 4), 0);
  socklen_t alen = sizeof(addr);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen), 0);
  const std::uint16_t peerPort = ntohs(addr.sin_port);

  RealTimeDriver senderDriver;
  stats::Metrics senderMetrics;
  TcpTransport sender(senderDriver, senderMetrics, /*port=*/0);
  sender.addPeer(serverId, "127.0.0.1", peerPort);
  sender.send(msg);
  senderDriver.step(0);
  ASSERT_EQ(sender.framesSent(), 1);

  {
    const int c = ::accept(lfd, nullptr, nullptr);
    ASSERT_GE(c, 0);
    const linger abortive{1, 0};  // close with RST, not FIN
    ::setsockopt(c, SOL_SOCKET, SO_LINGER, &abortive, sizeof(abortive));
    ::close(c);
    ::close(lfd);
  }
  // Let the RST land. The sender does not step meanwhile, so the dead
  // connection is still its route to the peer.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Same port, fresh transport -- "the server restarted".
  RealTimeDriver peerDriver;
  stats::Metrics peerMetrics;
  TcpTransport peer(peerDriver, peerMetrics, peerPort);
  ASSERT_EQ(peer.listenPort(), peerPort);
  CountingSink sink;
  peer.attach(serverId, &sink);
  std::thread loop([&]() { peerDriver.run(); });

  sender.send(msg);
  for (int i = 0; i < 2000 && sink.received.load() < 1; ++i) {
    senderDriver.step(1);
  }
  EXPECT_EQ(sink.received.load(), 1);
  EXPECT_EQ(sender.sendFailures(), 0);
  EXPECT_EQ(sender.sendRetries(), 1);
  EXPECT_EQ(sender.reconnects(), 1);
  EXPECT_EQ(sender.framesSent(), 2);

  peerDriver.stop();
  loop.join();
}

// ---- queued sends ----

/// Records the object of every PollRequest delivered, in arrival order.
struct OrderSink : net::MessageSink {
  void deliver(const net::Message& msg) override {
    std::lock_guard<std::mutex> lock(mu);
    objs.push_back(raw(std::get<net::PollRequest>(msg.payload).obj));
  }
  std::vector<std::uint64_t> arrived() {
    std::lock_guard<std::mutex> lock(mu);
    return objs;
  }
  std::mutex mu;
  std::vector<std::uint64_t> objs;
};

/// A receiving peer on its own loop thread.
struct PeerLoop {
  PeerLoop() : transport(driver, metrics, /*port=*/0) {
    transport.attach(node, &sink);
    thread = std::thread([this]() { driver.run(); });
  }
  ~PeerLoop() {
    driver.stop();
    thread.join();
  }
  /// Wait (bounded) until `n` frames arrived; returns what arrived.
  std::vector<std::uint64_t> waitFor(std::size_t n) {
    for (int i = 0; i < 4000 && sink.arrived().size() < n; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return sink.arrived();
  }

  const NodeId node = makeNodeId(1);
  RealTimeDriver driver;
  stats::Metrics metrics;
  TcpTransport transport;
  OrderSink sink;
  std::thread thread;
};

net::Message pollFor(std::uint64_t obj) {
  return net::Message{makeNodeId(0), makeNodeId(1),
                      net::PollRequest{makeObjectId(obj), 1}};
}

std::vector<std::uint64_t> iota(std::size_t n) {
  std::vector<std::uint64_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = i;
  return v;
}

constexpr std::size_t kBurst = 32;

TEST(TcpTransportOwner, SendsBetweenStepsLeaveInTheNextStep) {
  // Sends between two steps queue like a handler's and leave, in order,
  // in the next step's flush.
  PeerLoop peer;
  RealTimeDriver driver;
  stats::Metrics metrics;
  TcpTransport sender(driver, metrics, /*port=*/0);
  sender.addPeer(peer.node, "127.0.0.1", peer.transport.listenPort());
  driver.step(0);

  for (std::size_t i = 0; i < kBurst; ++i) sender.send(pollFor(i));
  EXPECT_EQ(sender.framesSent(), 0);
  driver.step(0);
  EXPECT_EQ(sender.framesSent(), static_cast<std::int64_t>(kBurst));
  EXPECT_EQ(peer.waitFor(kBurst), iota(kBurst));
  EXPECT_EQ(sender.sendFailures(), 0);
}

/// Sends every frame back to where it came from.
struct EchoSink : net::MessageSink {
  explicit EchoSink(net::Transport& transport) : transport(transport) {}
  void deliver(const net::Message& msg) override {
    transport.send(net::Message{msg.to, msg.from, msg.payload});
  }
  net::Transport& transport;
};

/// Counts frames delivered on the thread that steps its driver.
struct CountSink : net::MessageSink {
  void deliver(const net::Message&) override { ++received; }
  std::int64_t received = 0;
};

TEST(TcpTransportOwner, QueuedSendsLeaveBeforeTheStepWaits) {
  // Sends between steps leave before the next step's readiness wait, not after it, so the echoed replies wake that wait.
  // Were they flushed only after the wait, the step would sleep out its
  // whole timeout with the requests still queued.
  const NodeId self = makeNodeId(0);
  const NodeId echo = makeNodeId(1);
  RealTimeDriver peerDriver;
  stats::Metrics peerMetrics;
  TcpTransport peer(peerDriver, peerMetrics, /*port=*/0);
  EchoSink echoSink(peer);
  peer.attach(echo, &echoSink);

  RealTimeDriver driver;
  stats::Metrics metrics;
  TcpTransport sender(driver, metrics, /*port=*/0);
  CountSink replies;
  sender.attach(self, &replies);
  sender.addPeer(echo, "127.0.0.1", peer.listenPort());
  peer.addPeer(self, "127.0.0.1", sender.listenPort());
  std::thread peerThread([&peerDriver]() { peerDriver.run(); });
  driver.step(0);

  for (std::size_t i = 0; i < kBurst; ++i) sender.send(pollFor(i));
  const auto t0 = std::chrono::steady_clock::now();
  driver.step(5000);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(2));
  EXPECT_EQ(sender.framesSent(), static_cast<std::int64_t>(kBurst));
  for (int i = 0; i < 200 && replies.received < std::int64_t{kBurst}; ++i) {
    driver.step(10);
  }
  EXPECT_EQ(replies.received, static_cast<std::int64_t>(kBurst));

  peerDriver.stop();
  peerThread.join();
}

TEST(TcpTransportOwner, DestroyingTheTransportFlushesQueuedFrames) {
  // Frames sent by a transport that is destroyed before its driver
  // ever steps: the destructor's drain still puts every one on the wire.
  PeerLoop peer;
  {
    RealTimeDriver driver;
    stats::Metrics metrics;
    TcpTransport sender(driver, metrics, /*port=*/0);
    sender.addPeer(peer.node, "127.0.0.1", peer.transport.listenPort());
    for (std::size_t i = 0; i < kBurst; ++i) sender.send(pollFor(i));
    EXPECT_EQ(sender.framesSent(), 0);
  }
  EXPECT_EQ(peer.waitFor(kBurst), iota(kBurst));
}

// ---- raw-socket framing tests: the test plays a malfunctioning peer ----

namespace raw {

int connectTo(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

void writeAll(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    ssize_t n = ::send(fd, data + off, size - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
}

/// Read exactly `want` bytes (blocking) into `out`; false on EOF/error.
bool readExact(int fd, std::vector<std::uint8_t>& out, std::size_t want) {
  std::uint8_t chunk[65536];
  while (want > 0) {
    ssize_t n = ::recv(fd, chunk, std::min(want, sizeof(chunk)), 0);
    if (n <= 0) return false;
    out.insert(out.end(), chunk, chunk + n);
    want -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace raw

TEST(TcpTransportFraming, PeerDyingMidFrameDeliversNothingCorruptionCounted) {
  // The receive path against a misbehaving peer, at the raw byte level:
  //  1. a connection that dies mid-frame (length prefix + partial
  //     payload, then close) delivers nothing;
  //  2. a complete frame whose payload has one flipped bit is dropped
  //     AND counted in framesRejected(), never delivered;
  //  3. a well-formed frame right behind it on the same connection is
  //     delivered exactly once.
  const NodeId from = makeNodeId(1);
  const NodeId to = makeNodeId(7);

  RealTimeDriver driver;
  stats::Metrics metrics;
  TcpTransport transport(driver, metrics, /*port=*/0);
  CountingSink sink;
  transport.attach(to, &sink);
  std::thread loop([&]() { driver.run(); });

  const auto frame =
      net::encodeFrame(net::Message{from, to, net::Invalidate{makeObjectId(5)}});

  // 1. Peer killed mid-frame: strictly fewer bytes than the frame.
  {
    int fd = raw::connectTo(transport.listenPort());
    raw::writeAll(fd, frame.data(), frame.size() / 2);
    ::close(fd);
  }

  // 2 + 3. One corrupted frame, then the valid one, in a single write.
  {
    auto corrupted = frame;
    corrupted[corrupted.size() / 2] ^= 0x01;  // payload bit, length intact
    std::vector<std::uint8_t> both = corrupted;
    both.insert(both.end(), frame.begin(), frame.end());
    int fd = raw::connectTo(transport.listenPort());
    raw::writeAll(fd, both.data(), both.size());
    for (int i = 0; i < 2000 && sink.received.load() < 1; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ::close(fd);
  }

  driver.stop();
  loop.join();
  EXPECT_EQ(sink.received.load(), 1);
  EXPECT_EQ(transport.framesReceived(), 1);
  // Two rejections: the connection that died mid-frame (EOF with a
  // partial frame buffered) and the corrupted frame.
  EXPECT_EQ(transport.framesRejected(), 2);
}

TEST(TcpTransportRetry, PartialWriteRetryDeliversFrameExactlyOnce) {
  // The queued path's salvage: the peer (a raw socket) accepts, reads
  // part of a frame far larger than the socket buffers, and resets the
  // connection. The partially-written head frame must then arrive
  // EXACTLY once, whole, on a fresh connection, resent from the frame
  // boundary -- the peer sees a strict prefix on the dead connection and
  // one whole frame on the new one, never a duplicate or a spliced parse.
  const NodeId self = makeNodeId(0);
  const NodeId peerNode = makeNodeId(1);

  int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  int rcvbuf = 4096;  // keep the first connection's window tiny
  ::setsockopt(lfd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(lfd, 4), 0);
  socklen_t alen = sizeof(addr);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen), 0);
  const std::uint16_t port = ntohs(addr.sin_port);

  RealTimeDriver driver;
  stats::Metrics metrics;
  TcpTransport sender(driver, metrics, /*port=*/0);
  sender.addPeer(peerNode, "127.0.0.1", port);

  // ~16 MB frame: above tcp_wmem's max send buffer plus any receive
  // buffering, so it is still mid-write when the peer resets.
  net::RenewObjLeases renew;
  renew.vol = makeVolumeId(0);
  renew.leases.reserve(1u << 20);
  for (std::uint32_t i = 0; i < (1u << 20); ++i) {
    renew.leases.push_back({makeObjectId(i), 1});
  }
  const net::Message msg{self, peerNode, std::move(renew)};
  const auto expectedFrame = net::encodeFrame(msg);
  constexpr std::size_t kPrefix = 64 * 1024;  // read before the reset

  std::vector<std::uint8_t> aborted;  // bytes of the reset connection
  std::vector<std::uint8_t> retried;  // bytes of the retry connection
  bool sawRetryConnection = false;
  bool extraBytes = false;
  std::atomic<bool> peerDone{false};
  std::thread peer([&]() {
    // Receive timeouts turn a sender that never sends (or sends short)
    // into a failed read instead of a hang.
    const timeval timeout{10, 0};
    int c1 = ::accept(lfd, nullptr, nullptr);
    if (c1 >= 0) {
      ::setsockopt(c1, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
      // The retry connection gets a big buffer (set on the listener
      // before its handshake) so it drains quickly.
      int bigBuf = 8 << 20;
      ::setsockopt(lfd, SOL_SOCKET, SO_RCVBUF, &bigBuf, sizeof(bigBuf));
      raw::readExact(c1, aborted, kPrefix);
      const linger abortive{1, 0};  // close with RST
      ::setsockopt(c1, SOL_SOCKET, SO_LINGER, &abortive, sizeof(abortive));
      ::close(c1);
      pollfd p{lfd, POLLIN, 0};
      sawRetryConnection = ::poll(&p, 1, /*timeout_ms=*/30000) > 0;
    }
    if (sawRetryConnection) {
      int c2 = ::accept(lfd, nullptr, nullptr);
      ::setsockopt(c2, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
      raw::readExact(c2, retried, expectedFrame.size());
      // Nothing may follow the one frame.
      pollfd q{c2, POLLIN, 0};
      extraBytes = ::poll(&q, 1, /*timeout_ms=*/200) > 0;
      ::close(c2);
    }
    peerDone.store(true);
  });

  sender.send(msg);
  for (int i = 0; i < 60000 && !peerDone.load(); ++i) driver.step(1);
  peer.join();
  ::close(lfd);

  ASSERT_TRUE(sawRetryConnection);
  EXPECT_EQ(sender.sendRetries(), 1);
  EXPECT_EQ(sender.sendFailures(), 0);
  EXPECT_EQ(sender.framesSent(), 1);
  EXPECT_EQ(sender.partialFrameAborts(), 1);

  // Exactly one complete frame, byte-identical to the encoding.
  EXPECT_EQ(retried, expectedFrame);
  EXPECT_FALSE(extraBytes);
  // The dead connection carried a strict prefix: no complete frame, so
  // nothing a peer could ever have parsed and delivered.
  ASSERT_EQ(aborted.size(), kPrefix);
  ASSERT_LT(aborted.size(), expectedFrame.size());
  EXPECT_TRUE(std::equal(aborted.begin(), aborted.end(),
                         expectedFrame.begin()));
}

}  // namespace
}  // namespace vlease::rt
