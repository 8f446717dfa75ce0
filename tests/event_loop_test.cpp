// The EventLoop contract: level-triggered readiness, mod() switching
// interest, del() as a harmless no-op, and write interest behaving like
// EPOLLOUT re-arm -- no writable events while the socket buffer is full,
// events as soon as the peer drains. A driver test checks that a
// cross-thread post() wakes a blocked wait. The tail tests drive the
// TcpTransport's batched read path: many frames written in one burst
// must all be parsed and delivered inside a single loop iteration.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "net/message.h"
#include "rt/event_loop.h"
#include "rt/real_time.h"
#include "rt/tcp_transport.h"
#include "stats/metrics.h"

namespace vlease::rt {
namespace {

struct SocketPair {
  int a = -1;
  int b = -1;
  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
    ::fcntl(a, F_SETFL, O_NONBLOCK);
    ::fcntl(b, F_SETFL, O_NONBLOCK);
  }
  ~SocketPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
};

/// Fill `fd`'s send buffer until the kernel pushes back.
void fillSendBuffer(int fd) {
  char junk[4096];
  std::memset(junk, 'x', sizeof(junk));
  while (true) {
    const ssize_t n = ::send(fd, junk, sizeof(junk), MSG_NOSIGNAL);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    ASSERT_GT(n, 0);
  }
}

/// Drain everything currently readable on `fd`.
void drainAll(int fd) {
  char junk[65536];
  while (::recv(fd, junk, sizeof(junk), 0) > 0) {
  }
}

TEST(EventLoopContract, ReadReadinessIsLevelTriggeredAndDelStopsIt) {
  EventLoop loop;
  SocketPair sp;
  loop.add(sp.a, /*read=*/true, /*write=*/false);

  std::vector<EventLoop::Event> events;
  EXPECT_EQ(loop.wait(events, 0), 0);  // nothing pending yet

  ASSERT_EQ(::send(sp.b, "hi", 2, 0), 2);
  ASSERT_EQ(loop.wait(events, 1000), 1);
  EXPECT_EQ(events[0].fd, sp.a);
  EXPECT_TRUE(events[0].readable);

  // Level-triggered: not consuming the bytes re-reports readiness.
  ASSERT_EQ(loop.wait(events, 1000), 1);
  EXPECT_EQ(events[0].fd, sp.a);

  loop.del(sp.a);
  EXPECT_EQ(loop.wait(events, 0), 0);
  loop.del(sp.a);  // double-del: harmless no-op
}

TEST(EventLoopContract, WriteInterestRearmsLikeEpollout) {
  // The transport's short-write path: socket buffer full -> arm write
  // interest -> no spurious events while the peer is slow -> a writable
  // event exactly when space opens -> disarm once drained.
  EventLoop loop;
  SocketPair sp;
  fillSendBuffer(sp.a);

  loop.add(sp.a, /*read=*/false, /*write=*/true);
  std::vector<EventLoop::Event> events;
  EXPECT_EQ(loop.wait(events, 0), 0);  // buffer full: not writable

  drainAll(sp.b);  // the peer catches up
  ASSERT_EQ(loop.wait(events, 1000), 1);
  EXPECT_EQ(events[0].fd, sp.a);
  EXPECT_TRUE(events[0].writable);

  // Disarm (backlog drained): writable events stop even though the
  // socket stays writable -- this is what keeps epoll quiet.
  loop.mod(sp.a, /*read=*/true, /*write=*/false);
  EXPECT_EQ(loop.wait(events, 0), 0);
}

TEST(EventLoopContract, ErrorOrHangupReportsOnPeerClose) {
  EventLoop loop;
  SocketPair sp;
  loop.add(sp.a, /*read=*/true, /*write=*/false);
  ::close(sp.b);
  sp.b = -1;
  std::vector<EventLoop::Event> events;
  ASSERT_EQ(loop.wait(events, 1000), 1);
  EXPECT_EQ(events[0].fd, sp.a);
  // EOF shows as readable, error, or both; the driver treats either
  // as "call the read handler".
  EXPECT_TRUE(events[0].readable || events[0].error);
}

// A post() from another thread must interrupt a step blocked in the
// readiness wait through the wake eventfd, not wait out its timeout.
TEST(RealTimeDriverTest, PostFromAnotherThreadWakesBlockedStep) {
  RealTimeDriver driver;
  std::atomic<bool> ran{false};
  std::thread poster([&driver, &ran]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    driver.post([&ran]() { ran = true; });
  });
  const auto t0 = std::chrono::steady_clock::now();
  driver.step(5000);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  poster.join();
  EXPECT_LT(elapsed, std::chrono::seconds(2));
  driver.step(0);
  EXPECT_TRUE(ran);
}

// ---------------------------------------------------------------------
// Batched frame parse: many frames per wakeup
// ---------------------------------------------------------------------

class CountingSink final : public net::MessageSink {
 public:
  explicit CountingSink(const std::int64_t& iteration)
      : iteration_(iteration) {}
  void deliver(const net::Message&) override {
    arrivals_.push_back(iteration_);
  }
  const std::vector<std::int64_t>& arrivals() const { return arrivals_; }

 private:
  const std::int64_t& iteration_;  // the driver's step counter
  std::vector<std::int64_t> arrivals_;
};

TEST(BatchedReads, CoalescedSendParsesAllFramesInOneIteration) {
  RealTimeDriver driver;
  stats::Metrics metrics;
  TcpTransport a(driver, metrics, 0);
  TcpTransport b(driver, metrics, 0);
  const NodeId nodeA = makeNodeId(0);
  const NodeId nodeB = makeNodeId(1);
  a.addPeer(nodeB, "127.0.0.1", b.listenPort());
  b.addPeer(nodeA, "127.0.0.1", a.listenPort());

  std::int64_t iteration = 0;
  driver.setStepHook([&iteration](SimTime) { ++iteration; });
  CountingSink sink(iteration);
  b.attach(nodeB, &sink);

  // Send from ON the loop thread: the transport's asynchronous path
  // queues all five frames and flushes them as one writev burst, so
  // the receiver sees them in one readable chunk.
  constexpr int kFrames = 5;
  driver.post([&]() {
    for (int i = 0; i < kFrames; ++i) {
      net::Message msg;
      msg.from = nodeA;
      msg.to = nodeB;
      msg.payload =
          net::PollRequest{makeObjectId(static_cast<std::uint64_t>(i)), 1};
      a.send(std::move(msg));
    }
  });

  for (int step = 0;
       step < 2000 &&
       sink.arrivals().size() < static_cast<std::size_t>(kFrames);
       ++step) {
    driver.step();
  }
  ASSERT_EQ(sink.arrivals().size(), static_cast<std::size_t>(kFrames));
  // All five frames were parsed out of the same loop iteration: one
  // wakeup, one recv drain, five deliveries.
  for (int i = 1; i < kFrames; ++i) {
    EXPECT_EQ(sink.arrivals()[static_cast<std::size_t>(i)],
              sink.arrivals()[0]);
  }
  EXPECT_EQ(b.framesReceived(), kFrames);
}

}  // namespace
}  // namespace vlease::rt
