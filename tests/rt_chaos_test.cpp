// Chaos plumbing for the rt layer: FaultPlan interpretation against real
// sockets and processes-in-miniature, the RealTimeDriver stop/post drain
// barrier, mid-frame socket death at every interesting byte offset, the
// crashed-server cold-restart rule, and the sim-vs-real parity checker's
// verdicts on synthetic run logs. The single-process loopback chaos test
// at the end is the suite CI also runs under ASan.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "core/volume_client.h"
#include "core/volume_server.h"
#include "net/fault_plan.h"
#include "net/wire.h"
#include "rt/fault_injector.h"
#include "rt/parity.h"
#include "rt/real_time.h"
#include "rt/tcp_transport.h"
#include "sim/local_clock.h"
#include "trace/catalog.h"

namespace vlease::rt {
namespace {

// ---------------------------------------------------------------------
// RealTimeDriver drain barrier
// ---------------------------------------------------------------------

TEST(RealTimeDriverDrain, StopMidBatchHoldsRemainderUntilNextRun) {
  // stop() observed while draining a post batch must hold the REST of
  // the batch (and anything queued later) until the next run() -- the
  // "post teardown, then more work" pattern must never run the work
  // against a half-torn-down node.
  RealTimeDriver driver;
  std::vector<int> order;
  driver.post([&]() {
    order.push_back(1);
    driver.stop();
  });
  driver.post([&]() { order.push_back(2); });
  driver.run();
  EXPECT_EQ(order, (std::vector<int>{1}));

  // The held callback runs at the next run(), in order.
  driver.post([&]() {
    order.push_back(3);
    driver.stop();
  });
  driver.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(RealTimeDriverDrain, PostStopRaceNeverRunsWorkAfterTeardown) {
  // Hammer post() and stop() from a second thread: once the teardown
  // callback (which flips `torndown` and stops the loop) has run, no
  // other posted callback may run in the same run() -- with or without
  // the barrier this is a genuine cross-thread race, so iterate.
  for (int round = 0; round < 200; ++round) {
    RealTimeDriver driver;
    std::atomic<bool> torndown{false};
    std::atomic<int> lateRuns{0};
    std::atomic<int> executed{0};
    std::thread poster([&]() {
      for (int i = 0; i < 50; ++i) {
        driver.post([&]() {
          if (torndown.load()) ++lateRuns;
          ++executed;
        });
      }
      driver.post([&]() {
        torndown.store(true);
        driver.stop();
      });
      for (int i = 0; i < 50; ++i) {
        driver.post([&]() {
          if (torndown.load()) ++lateRuns;
          ++executed;
        });
      }
    });
    driver.run();
    poster.join();
    ASSERT_EQ(lateRuns.load(), 0) << "round " << round << " executed "
                                  << executed.load();
  }
}

// ---------------------------------------------------------------------
// mid-frame socket death, receiver side, at every boundary of interest
// ---------------------------------------------------------------------

namespace rawsock {

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

}  // namespace rawsock

struct CountingSink : net::MessageSink {
  std::atomic<int> received{0};
  void deliver(const net::Message&) override { ++received; }
};

TEST(MidFrameDeath, EveryTruncationOffsetRejectsAndDeliversNothing) {
  // A connection that dies after delivering N bytes of a frame must
  // deliver nothing and count one rejected frame, for N at each
  // structural boundary: inside the length header, exactly at the
  // header boundary, one byte into the payload, mid-payload, and one
  // byte short of the end (i.e. inside the CRC seal at the tail).
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
  ASSERT_GT(frame.size(), 8u);
  const std::vector<std::size_t> offsets = {
      2,                 // inside the length header
      4,                 // header complete, zero payload bytes
      5,                 // first payload byte
      frame.size() / 2,  // mid-payload
      frame.size() - 1,  // inside the trailing CRC seal
  };

  // The loop thread owns the counters; read them there (a raw read
  // from this thread would race the transport's bookkeeping).
  const auto rejectedOnLoop = [&]() {
    std::promise<std::int64_t> promise;
    auto future = promise.get_future();
    driver.post([&]() { promise.set_value(transport.framesRejected()); });
    return future.get();
  };

  std::int64_t expectRejected = 0;
  for (const std::size_t offset : offsets) {
    int fd = rawsock::connectTo(transport.listenPort());
    rawsock::writeAll(fd, frame.data(), offset);
    ::close(fd);
    ++expectRejected;
    for (int i = 0; i < 2000 && rejectedOnLoop() < expectRejected; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(rejectedOnLoop(), expectRejected) << "offset " << offset;
  }

  driver.stop();
  loop.join();
  EXPECT_EQ(sink.received.load(), 0);
  EXPECT_EQ(transport.framesReceived(), 0);
}

// ---------------------------------------------------------------------
// injected truncation (FaultHook) and the no-retry rule for it
// ---------------------------------------------------------------------

/// Hook that truncates the first send at a fixed offset, then delivers.
class TruncateOnceHook final : public FaultHook {
 public:
  explicit TruncateOnceHook(std::size_t at) : at_(at) {}
  SendFault onSend(NodeId, NodeId, std::size_t) override {
    SendFault fault;
    if (!fired_) {
      fired_ = true;
      fault.kind = SendFault::Kind::kTruncate;
      fault.truncateAt = at_;
      fault.halfClose = true;
    }
    return fault;
  }
  bool dropInbound(NodeId, NodeId) override { return false; }

 private:
  std::size_t at_;
  bool fired_ = false;
};

TEST(InjectedFaults, TruncatedSendIsChargedAsLostAndNeverRetried) {
  // An injected kTruncate models a frame dying on the wire: the receiver
  // rejects the partial frame, and the sender must NOT retry (the loss
  // is the point of the injection). A follow-up clean send then proves
  // the connection recovers.
  const NodeId a = makeNodeId(0);
  const NodeId b = makeNodeId(1);

  RealTimeDriver senderDriver;
  RealTimeDriver receiverDriver;
  stats::Metrics senderMetrics;
  stats::Metrics receiverMetrics;
  TcpTransport sender(senderDriver, senderMetrics, 0);
  TcpTransport receiver(receiverDriver, receiverMetrics, 0);
  sender.addPeer(b, "127.0.0.1", receiver.listenPort());
  CountingSink sink;
  receiver.attach(b, &sink);

  TruncateOnceHook hook(/*at=*/6);  // header + 2 payload bytes
  sender.setFaultHook(&hook);

  std::thread receiverLoop([&]() { receiverDriver.run(); });
  std::thread senderLoop([&]() { senderDriver.run(); });

  senderDriver.post([&]() {
    sender.send(net::Message{a, b, net::Invalidate{makeObjectId(1)}});
    sender.send(net::Message{a, b, net::Invalidate{makeObjectId(2)}});
  });
  for (int i = 0; i < 4000 && sink.received.load() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  senderDriver.stop();
  receiverDriver.stop();
  senderLoop.join();
  receiverLoop.join();

  EXPECT_EQ(sink.received.load(), 1);       // only the clean second send
  EXPECT_EQ(sender.injectedTruncations(), 1);
  EXPECT_EQ(sender.sendRetries(), 0);       // injected loss is not retried
  for (int i = 0; i < 2000 && receiver.framesRejected() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(receiver.framesRejected(), 1);  // the truncated prefix
}

// ---------------------------------------------------------------------
// FaultShim: window events -> socket verdicts and clock offsets
// ---------------------------------------------------------------------

TEST(FaultShim, IsolationAndPartitionWindowsGateSends) {
  const NodeId a = makeNodeId(0);
  const NodeId b = makeNodeId(1);
  const NodeId c = makeNodeId(2);

  net::FaultPlan plan;
  plan.isolateAt(msec(10), c);
  plan.deisolateAt(msec(30), c);
  plan.partitionWindow(msec(20), msec(40), a, b);

  FaultShim shim(plan, a, /*driver=*/nullptr, /*seed=*/1);

  shim.advance(msec(15));
  EXPECT_TRUE(shim.failures().isIsolated(c));
  EXPECT_EQ(shim.onSend(a, c, 64).kind, SendFault::Kind::kDrop);
  EXPECT_TRUE(shim.dropInbound(c, a));
  EXPECT_EQ(shim.onSend(a, b, 64).kind, SendFault::Kind::kDeliver);

  shim.advance(msec(25));
  EXPECT_TRUE(shim.failures().isPartitioned(a, b));
  EXPECT_TRUE(shim.failures().isPartitioned(b, a));  // unordered
  EXPECT_EQ(shim.onSend(a, b, 64).kind, SendFault::Kind::kDrop);

  shim.advance(msec(45));
  EXPECT_FALSE(shim.failures().isIsolated(c));
  EXPECT_FALSE(shim.failures().isPartitioned(a, b));
  EXPECT_EQ(shim.onSend(a, b, 64).kind, SendFault::Kind::kDeliver);
  EXPECT_EQ(shim.onSend(a, c, 64).kind, SendFault::Kind::kDeliver);
}

TEST(FaultShim, OverlappingPartitionsOfOneLinkHealAtTheFirstHeal) {
  // Two partition windows of one link overlap: [10, 40) and [20, 60).
  // The simulator's FailureModel keeps cut links in a set, so the first
  // heal (at 40) restores the link; the shim must read the plan the
  // same way, or a real run and its simulated replay disagree on
  // reachability between the two heals.
  const NodeId a = makeNodeId(0);
  const NodeId b = makeNodeId(1);

  net::FaultPlan plan;
  plan.partitionWindow(msec(10), msec(40), a, b);
  plan.partitionWindow(msec(20), msec(60), a, b);

  FaultShim shim(plan, a, /*driver=*/nullptr, /*seed=*/1);
  for (const SimTime at : {msec(15), msec(30), msec(50), msec(70)}) {
    shim.advance(at);
    const bool cut = at < msec(40);
    EXPECT_EQ(shim.onSend(a, b, 64).kind,
              cut ? SendFault::Kind::kDrop : SendFault::Kind::kDeliver)
        << "t=" << at;
    EXPECT_EQ(shim.dropInbound(b, a), cut) << "t=" << at;
  }
}

TEST(FaultShim, CertainLossDropsOrTruncatesEveryFrame) {
  net::FaultPlan plan;
  plan.setLossAt(0, 1.0);
  FaultShim shim(plan, makeNodeId(0), nullptr, /*seed=*/7);
  shim.advance(msec(1));
  EXPECT_DOUBLE_EQ(shim.failures().lossProbability(), 1.0);

  int truncations = 0;
  for (int i = 0; i < 200; ++i) {
    const SendFault fault = shim.onSend(makeNodeId(0), makeNodeId(1), 100);
    ASSERT_NE(fault.kind, SendFault::Kind::kDeliver);
    if (fault.kind == SendFault::Kind::kTruncate) {
      ++truncations;
      EXPECT_LT(fault.truncateAt, 100u);
    }
  }
  // ~30% of losses die mid-write instead of vanishing.
  EXPECT_GT(truncations, 20);
  EXPECT_LT(truncations, 120);
}

TEST(FaultShim, SkewEventsOffsetOnlyThisNodesClock) {
  const NodeId self = makeNodeId(1);
  const NodeId other = makeNodeId(2);

  net::FaultPlan plan;
  plan.skewAt(msec(10), self, msec(150));
  plan.skewAt(msec(10), other, msec(-300));  // someone else's clock

  RealTimeDriver driver;
  FaultShim shim(plan, self, &driver, /*seed=*/3);
  EXPECT_EQ(driver.clockOffset(), 0);
  shim.advance(msec(20));
  EXPECT_EQ(driver.clockOffset(), msec(150));
}

TEST(FaultShim, DriftChangeKeepsAccruedSkewLikeTheSimClock) {
  // 1000 ppm for 10 s accrues 10 ms of skew; stopping the drift then
  // must keep those 10 ms, as sim::ClockMap does, not step back to 0.
  const NodeId self = makeNodeId(1);
  net::FaultPlan plan;
  plan.driftAt(0, self, 1000.0);
  plan.driftAt(sec(10), self, 0.0);

  RealTimeDriver driver;
  FaultShim shim(plan, self, &driver, /*seed=*/3);
  sim::ClockMap simClock;  // fed the plan the way driver::Simulation is
  std::size_t applied = 0;
  for (const SimTime at : {sec(5), sec(10), sec(20)}) {
    for (; applied < plan.events().size() &&
           plan.events()[applied].at <= at;
         ++applied) {
      const net::FaultEvent& e = plan.events()[applied];
      simClock.setDrift(self, e.at, e.ppm);
    }
    shim.advance(at);
    EXPECT_EQ(driver.clockOffset(), simClock.skewOf(self, at)) << at;
  }
  EXPECT_EQ(driver.clockOffset(), msec(10));
}

TEST(RealTimeDriverClock, NegativeOffsetStepNeverRunsTimeBackwards) {
  RealTimeDriver driver;
  const SimTime before = driver.elapsed();
  driver.setClockOffset(-sec(10));
  const SimTime after = driver.elapsed();
  EXPECT_GE(after, before);  // clamped, not reversed
}

// ---------------------------------------------------------------------
// FaultInjector: crash lane -> kill/respawn callbacks, in order, once
// ---------------------------------------------------------------------

TEST(FaultInjector, CrashLaneFiresKillThenRespawnExactlyOnce) {
  const NodeId server = makeNodeId(0);
  net::FaultPlan plan;
  plan.crashWindow(msec(100), msec(400), server);

  std::vector<std::string> actions;
  FaultInjector::Callbacks callbacks;
  callbacks.kill = [&](NodeId node, SimTime at) {
    actions.push_back("kill " + std::to_string(raw(node)) + " @" +
                      std::to_string(at));
  };
  callbacks.respawn = [&](NodeId node, SimTime at) {
    actions.push_back("respawn " + std::to_string(raw(node)) + " @" +
                      std::to_string(at));
  };
  FaultInjector injector(plan, callbacks);

  injector.advance(msec(50));
  EXPECT_TRUE(actions.empty());
  injector.advance(msec(150));
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0], "kill 0 @" + std::to_string(msec(100)));
  injector.advance(msec(150));  // idempotent: nothing re-fires
  EXPECT_EQ(actions.size(), 1u);
  injector.advance(msec(500));
  ASSERT_EQ(actions.size(), 2u);
  EXPECT_EQ(actions[1], "respawn 0 @" + std::to_string(msec(400)));
  EXPECT_TRUE(injector.done());
}

// ---------------------------------------------------------------------
// cold-restart recovery rule (paper section 3.1.2) on restored state
// ---------------------------------------------------------------------

struct NullTransport : net::Transport {
  void attach(NodeId, net::MessageSink*) override {}
  void detach(NodeId) override {}
  void send(net::Message) override {}
};

TEST(ColdRestart, RestoredServerRefusesWritesUntilSilenceElapses) {
  trace::Catalog catalog(1, 1);
  const VolumeId vol = catalog.addVolume(catalog.serverNode(0));
  const ObjectId obj = catalog.addObject(vol, 1024);

  proto::ProtocolConfig config;
  config.algorithm = proto::Algorithm::kVolumeLease;
  config.objectTimeout = sec(30);
  config.volumeTimeout = sec(2);
  config.clockEpsilon = msec(500);

  sim::Scheduler scheduler;
  NullTransport transport;
  stats::Metrics metrics;
  proto::ProtocolContext ctx{scheduler, transport, metrics, catalog};
  core::VolumeServer server(ctx, catalog.serverNode(0), config,
                            core::InvalidationMode::kImmediate);

  // Restored stable storage: the pre-crash log said v5 / epoch 3.
  server.restoreAfterRestart({{obj, 5}}, {{vol, 4}},
                             /*recoverUntil=*/sec(3));
  EXPECT_GE(server.currentVersion(obj), 5);
  EXPECT_GE(server.volumeEpoch(vol), 4);

  // A ratchet, not an overwrite: stale restore data cannot regress.
  server.restoreAfterRestart({{obj, 2}}, {{vol, 1}}, /*recoverUntil=*/0);
  EXPECT_GE(server.currentVersion(obj), 5);
  EXPECT_GE(server.volumeEpoch(vol), 4);

  // A write issued during the silence window commits only once the
  // window ends, and its delay accounts for the wait.
  SimTime committedAt = kNever;
  Version committedVersion = kNoVersion;
  server.write(obj, [&](const proto::WriteResult& r) {
    committedAt = scheduler.now();
    committedVersion = r.newVersion;
  });
  scheduler.runUntil(sec(1));
  EXPECT_EQ(committedAt, kNever) << "write committed inside silence window";
  scheduler.runUntil(sec(10));
  ASSERT_NE(committedAt, kNever);
  EXPECT_GE(committedAt, sec(3));
  EXPECT_GT(committedVersion, 5);
}

// ---------------------------------------------------------------------
// parity checker verdicts on synthetic run logs
// ---------------------------------------------------------------------

CheckerOptions basicChecker() {
  CheckerOptions o;
  o.writeWaitBase = msec(800);
  o.volumeTimeout = msec(800);
  o.clockEpsilon = msec(100);
  o.msgTimeout = msec(400);
  o.slack = msec(500);
  o.skewBudget = 0;
  o.horizon = sec(30);
  return o;
}

WriteRecord makeWrite(std::uint64_t obj, Version v, SimTime issuedAt,
                      SimTime completedAt) {
  WriteRecord w;
  w.obj = makeObjectId(obj);
  w.version = v;
  w.issuedAt = issuedAt;
  w.completedAt = completedAt;
  w.delay = completedAt - issuedAt;
  return w;
}

ReadRecord makeRead(std::uint32_t client, std::uint64_t obj, SimTime issuedAt,
                    Version v) {
  ReadRecord r;
  r.client = makeNodeId(client);
  r.obj = makeObjectId(obj);
  r.issuedAt = issuedAt;
  r.completedAt = issuedAt + msec(1);
  r.ok = true;
  r.version = v;
  return r;
}

TEST(ParityChecker, FlagsStaleReadOnlyBeyondTheAllowance) {
  RunLog log;
  log.writes.push_back(makeWrite(1, 2, sec(1), sec(1) + msec(10)));
  // Issued well after v2 committed, saw v1: stale.
  log.reads.push_back(makeRead(5, 1, sec(5), 1));
  // Issued inside the allowance after the commit: boundary race, clean.
  log.reads.push_back(makeRead(5, 1, sec(1) + msec(200), 1));
  // Saw the committed version: clean.
  log.reads.push_back(makeRead(6, 1, sec(10), 2));

  const ParityCounts counts = checkRealRun(log, basicChecker());
  EXPECT_EQ(counts.staleReads, 1);
  EXPECT_EQ(counts.total(), 1);
}

TEST(ParityChecker, FlagsLostWriteUnlessCrashOrHorizonExplainsIt) {
  CheckerOptions options = basicChecker();
  RunLog log;
  log.issues.push_back({makeObjectId(1), sec(2)});   // vanished: lost
  log.issues.push_back({makeObjectId(2), sec(3)});   // committed below
  log.writes.push_back(makeWrite(2, 1, sec(3), sec(3) + msec(50)));
  log.issues.push_back({makeObjectId(3), sec(29)});  // too near horizon
  log.issues.push_back({makeObjectId(4), sec(10)});  // crash-explained

  options.servers.push_back(makeNodeId(0));
  options.plan.crashWindow(sec(9), sec(12), makeNodeId(0));

  const ParityCounts counts = checkRealRun(log, options);
  EXPECT_EQ(counts.lostWrites, 1);
}

TEST(ParityChecker, FlagsWriteDelayBeyondBoundUnlessCrashExplains) {
  CheckerOptions options = basicChecker();
  options.servers.push_back(makeNodeId(0));
  options.plan.crashWindow(sec(20), sec(22), makeNodeId(0));

  RunLog log;
  // bound = 800 + 100 + 400 + 500 = 1800ms; 5s blows it.
  log.writes.push_back(makeWrite(1, 1, sec(2), sec(7)));
  // Same delay overlapping the crash window: exempt.
  log.writes.push_back(makeWrite(2, 1, sec(19), sec(24)));
  // Inside the bound: clean.
  log.writes.push_back(makeWrite(3, 1, sec(2), sec(2) + msec(900)));

  const ParityCounts counts = checkRealRun(log, options);
  EXPECT_EQ(counts.writeDelays, 1);
}

TEST(ParityChecker, FlagsEarlyRecoveryWritesAndEpochRegressions) {
  CheckerOptions options = basicChecker();
  options.servers.push_back(makeNodeId(0));
  options.plan.crashWindow(sec(5), sec(8), makeNodeId(0));
  // silence = volumeTimeout + epsilon = 900ms, minus slack 500 -> writes
  // completing in [8.0s, 8.4s) break the recovery rule.
  RunLog log;
  log.writes.push_back(makeWrite(1, 3, sec(8), sec(8) + msec(200)));
  log.writes.push_back(makeWrite(1, 4, sec(9), sec(9) + msec(100)));  // fine
  // Volume 0's third incarnation failed to ratchet; volume 1's counter
  // interleaves lower values legally (independent per-volume sequences).
  log.epochs = {{makeVolumeId(0), 2}, {makeVolumeId(1), 1},
                {makeVolumeId(0), 3}, {makeVolumeId(1), 2},
                {makeVolumeId(0), 3}};

  const ParityCounts counts = checkRealRun(log, options);
  EXPECT_EQ(counts.earlyRecoveryWrites, 1);
  EXPECT_EQ(counts.epochRegressions, 1);
}

TEST(ParityChecker, EpochRatchetIsPerVolume) {
  // A volume that migrates away and returns resumes from ITS OWN last
  // epoch. A flat cross-volume sequence would flag the interleaving
  // below as regressions (3,1,4,2 non-monotonic) -- per-volume it is
  // clean -- and, conversely, a true regression on one volume must be
  // caught even when a busier volume keeps the flat sequence rising.
  CheckerOptions options = basicChecker();
  RunLog clean;
  clean.epochs = {{makeVolumeId(0), 3}, {makeVolumeId(1), 1},
                  {makeVolumeId(0), 4}, {makeVolumeId(1), 2}};
  EXPECT_EQ(checkRealRun(clean, options).epochRegressions, 0);

  RunLog regressed;
  regressed.epochs = {{makeVolumeId(0), 1}, {makeVolumeId(1), 5},
                      {makeVolumeId(0), 1}, {makeVolumeId(1), 6}};
  EXPECT_EQ(checkRealRun(regressed, options).epochRegressions, 1);
}

TEST(ParityChecker, RunLogRoundTripsAndToleratesTruncatedTail) {
  RunLog log;
  log.epochs.push_back({makeVolumeId(2), 7});
  log.issues.push_back({makeObjectId(3), msec(1500)});
  log.writes.push_back(makeWrite(3, 9, msec(1500), msec(1700)));
  log.reads.push_back(makeRead(4, 3, msec(2000), 9));

  std::string text = formatEpochLine(log.epochs[0].vol, log.epochs[0].epoch);
  text += formatWriteIssueLine(log.issues[0].obj, log.issues[0].issuedAt);
  text += formatWriteLine(log.writes[0]);
  text += formatReadLine(log.reads[0]);
  // A SIGKILL mid-write leaves a partial last line; it must be skipped.
  text += "W 3 10 180";

  const RunLog parsed = parseRunLog(text);
  ASSERT_EQ(parsed.epochs.size(), 1u);
  EXPECT_EQ(raw(parsed.epochs[0].vol), 2u);
  EXPECT_EQ(parsed.epochs[0].epoch, 7);
  ASSERT_EQ(parsed.issues.size(), 1u);
  EXPECT_EQ(parsed.issues[0].issuedAt, msec(1500));
  ASSERT_EQ(parsed.writes.size(), 1u);
  EXPECT_EQ(parsed.writes[0].version, 9);
  EXPECT_EQ(parsed.writes[0].completedAt, msec(1700));
  ASSERT_EQ(parsed.reads.size(), 1u);
  EXPECT_EQ(parsed.reads[0].version, 9);
  EXPECT_TRUE(parsed.reads[0].ok);
}

// ---------------------------------------------------------------------
// single-process loopback chaos: protocol over real sockets with an
// adversarial FaultShim (this is the test CI runs under ASan)
// ---------------------------------------------------------------------

template <typename T>
T getWithin(std::future<T>& future, int seconds = 20) {
  if (future.wait_for(std::chrono::seconds(seconds)) !=
      std::future_status::ready) {
    ADD_FAILURE() << "future not ready within " << seconds << "s";
    std::abort();
  }
  return future.get();
}

/// Delegates to a FaultShim but guarantees the first sizable frame is
/// truncated mid-write. Server replies are sent from the loop thread,
/// so they leave through the coalesced writev path and the kill hits a
/// frame sitting in the pending queue, not a lucky loss roll.
class TruncateFirstThenShim final : public FaultHook {
 public:
  explicit TruncateFirstThenShim(FaultShim& inner) : inner_(inner) {}
  SendFault onSend(NodeId from, NodeId to, std::size_t frameBytes) override {
    if (!truncated_ && frameBytes > 8) {
      truncated_ = true;
      SendFault fault;
      fault.kind = SendFault::Kind::kTruncate;
      fault.truncateAt = frameBytes / 2;
      fault.halfClose = true;
      return fault;
    }
    return inner_.onSend(from, to, frameBytes);
  }
  bool dropInbound(NodeId from, NodeId to) override {
    return inner_.dropInbound(from, to);
  }
  /// True once the forced truncation was handed to the transport. Read
  /// after the loop thread is joined.
  bool forced() const { return truncated_; }

 private:
  FaultShim& inner_;
  bool truncated_ = false;  // loop thread only
};

TEST(LoopbackChaos, ProtocolSurvivesLossWindowAndReadsFreshAfterHeal) {
  trace::Catalog catalog(1, 1);
  const VolumeId vol = catalog.addVolume(catalog.serverNode(0));
  const ObjectId obj = catalog.addObject(vol, 1024);
  (void)vol;
  const NodeId serverId = catalog.serverNode(0);
  const NodeId clientId = catalog.clientNode(0);

  proto::ProtocolConfig config;
  config.algorithm = proto::Algorithm::kVolumeLease;
  config.objectTimeout = msec(2000);
  config.volumeTimeout = msec(300);
  config.msgTimeout = msec(150);
  config.readTimeout = msec(800);

  // Loss window over the first 1.2s of the run, 40% per frame, with
  // mid-write truncations included. Both shims see the same plan.
  net::FaultPlan plan;
  plan.setLossAt(0, 0.4);
  plan.setLossAt(msec(1200), 0.0);

  RealTimeDriver serverDriver;
  RealTimeDriver clientDriver;
  stats::Metrics serverMetrics;
  stats::Metrics clientMetrics;
  TcpTransport serverTransport(serverDriver, serverMetrics, 0);
  TcpTransport clientTransport(clientDriver, clientMetrics, 0);
  serverTransport.addPeer(clientId, "127.0.0.1",
                          clientTransport.listenPort());
  clientTransport.addPeer(serverId, "127.0.0.1",
                          serverTransport.listenPort());

  FaultShim serverShim(plan, serverId, &serverDriver, /*seed=*/11);
  FaultShim clientShim(plan, clientId, &clientDriver, /*seed=*/22);
  TruncateFirstThenShim serverHook(serverShim);
  serverTransport.setFaultHook(&serverHook);
  clientTransport.setFaultHook(&clientShim);
  serverDriver.setStepHook([&](SimTime now) { serverShim.advance(now); });
  clientDriver.setStepHook([&](SimTime now) { clientShim.advance(now); });

  proto::ProtocolContext serverCtx{serverDriver.scheduler(), serverTransport,
                                   serverMetrics, catalog};
  proto::ProtocolContext clientCtx{clientDriver.scheduler(), clientTransport,
                                   clientMetrics, catalog};
  core::VolumeServer server(serverCtx, serverId, config,
                            core::InvalidationMode::kImmediate);
  core::VolumeClient client(clientCtx, clientId, config);
  serverTransport.attach(serverId, &server);
  clientTransport.attach(clientId, &client);

  std::thread serverLoop([&]() { serverDriver.run(); });
  std::thread clientLoop([&]() { clientDriver.run(); });

  const auto readOnce = [&]() {
    std::promise<proto::ReadResult> promise;
    auto future = promise.get_future();
    clientDriver.post([&]() {
      client.read(obj, [&promise](const proto::ReadResult& r) {
        promise.set_value(r);
      });
    });
    return getWithin(future);
  };
  const auto writeOnce = [&]() {
    std::promise<proto::WriteResult> promise;
    auto future = promise.get_future();
    serverDriver.post([&]() {
      server.write(obj, [&promise](const proto::WriteResult& r) {
        promise.set_value(r);
      });
    });
    return getWithin(future);
  };

  // Fire reads and writes INTO the loss window (paced so the rounds
  // actually span it); outcomes may be ok or failed, but nothing may
  // hang, crash, or corrupt.
  Version lastWritten = kNoVersion;
  for (int i = 0; i < 8; ++i) {
    const proto::WriteResult w = writeOnce();
    lastWritten = w.newVersion;
    (void)readOnce();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  // Wait out the heal plus one full volume-lease term, then a read MUST
  // succeed and see at least the last committed version.
  std::this_thread::sleep_for(std::chrono::milliseconds(2000));
  proto::ReadResult final{};
  for (int attempt = 0; attempt < 10; ++attempt) {
    final = readOnce();
    if (final.ok && final.version >= lastWritten) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }

  serverDriver.stop();
  clientDriver.stop();
  serverLoop.join();
  clientLoop.join();

  EXPECT_TRUE(final.ok);
  EXPECT_GE(final.version, lastWritten);
  // The loss window must have actually bitten something, or this test
  // exercised nothing: at least one injected drop or truncation across
  // both shims' transports.
  EXPECT_GT(serverTransport.injectedDrops() +
                serverTransport.injectedTruncations() +
                clientTransport.injectedDrops() +
                clientTransport.injectedTruncations(),
            0);
  // The server's first reply is cut mid-writev, whatever the loss rolls:
  // the seeded rolls alone truncate a single server frame, so coverage
  // of that path must not rest on them.
  EXPECT_TRUE(serverHook.forced());
  EXPECT_GE(serverTransport.injectedTruncations(), 1);
}

}  // namespace
}  // namespace vlease::rt
