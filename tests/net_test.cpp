// Tests for the message model, the failure model and the simulated
// network (latency, ordering, loss, partitions, crashes, in-flight edge
// cases).
#include <gtest/gtest.h>

#include <vector>

#include "net/message.h"
#include "net/sim_network.h"
#include "sim/scheduler.h"
#include "stats/metrics.h"

namespace vlease::net {
namespace {

constexpr NodeId kA = makeNodeId(0);
constexpr NodeId kB = makeNodeId(1);

class Recorder : public MessageSink {
 public:
  void deliver(const Message& msg) override { received.push_back(msg); }
  std::vector<Message> received;
};

struct NetFixture : ::testing::Test {
  sim::Scheduler scheduler;
  stats::Metrics metrics;
  SimNetwork network{scheduler, metrics};
  Recorder a, b;

  void SetUp() override {
    network.attach(kA, &a);
    network.attach(kB, &b);
  }

  Message ping(NodeId from, NodeId to) {
    return Message{from, to, Invalidate{makeObjectId(1)}};
  }
};

TEST_F(NetFixture, DeliversWithZeroLatencySameInstant) {
  network.send(ping(kA, kB));
  EXPECT_TRUE(b.received.empty());  // not synchronous...
  scheduler.runUntil(0);            // ...but within the same instant
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].from, kA);
  EXPECT_EQ(scheduler.now(), 0);
}

TEST_F(NetFixture, LatencyDelaysDelivery) {
  network.setLatency(msec(50));
  network.send(ping(kA, kB));
  scheduler.runUntil(msec(49));
  EXPECT_TRUE(b.received.empty());
  scheduler.runUntil(msec(50));
  EXPECT_EQ(b.received.size(), 1u);
}

TEST_F(NetFixture, PerLinkLatencyFunction) {
  network.setLatencyFn([](NodeId from, NodeId) {
    return from == kA ? msec(10) : msec(30);
  });
  network.send(ping(kA, kB));
  network.send(ping(kB, kA));
  scheduler.runUntil(msec(10));
  EXPECT_EQ(b.received.size(), 1u);
  EXPECT_TRUE(a.received.empty());
  scheduler.runUntil(msec(30));
  EXPECT_EQ(a.received.size(), 1u);
}

TEST_F(NetFixture, FifoOrderPreservedSameLink) {
  for (int i = 0; i < 10; ++i) {
    network.send(Message{kA, kB, Invalidate{makeObjectId(
                                     static_cast<std::uint64_t>(i))}});
  }
  scheduler.run();
  ASSERT_EQ(b.received.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(raw(std::get<Invalidate>(b.received[static_cast<size_t>(i)]
                                           .payload).obj),
              static_cast<std::uint64_t>(i));
  }
}

TEST_F(NetFixture, LoweredLatencyOvertakesMessagesInFlight) {
  // The first delivery rides the scheduler's delivery FIFO; the second
  // is due before it, so it must take the heap and still arrive first.
  std::vector<SimTime> arrivals;
  struct Stamp : MessageSink {
    sim::Scheduler* s;
    std::vector<SimTime>* out;
    void deliver(const Message&) override { out->push_back(s->now()); }
  } stamp;
  stamp.s = &scheduler;
  stamp.out = &arrivals;
  network.attach(kB, &stamp);
  network.setLatency(msec(50));
  network.send(ping(kA, kB));
  network.setLatency(msec(10));
  network.send(ping(kA, kB));
  network.setLatency(msec(30));
  network.send(ping(kA, kB));
  scheduler.run();
  EXPECT_EQ(arrivals, (std::vector<SimTime>{msec(10), msec(30), msec(50)}));
}

TEST_F(NetFixture, MetersMessagesAndBytes) {
  network.send(ping(kA, kB));
  scheduler.run();
  EXPECT_EQ(metrics.totalMessages(), 1);
  EXPECT_EQ(metrics.totalBytes(), wireBytes(Payload{Invalidate{makeObjectId(1)}}));
  EXPECT_EQ(network.sentCount(), 1);
  EXPECT_EQ(network.deliveredCount(), 1);
}

TEST_F(NetFixture, PartitionDropsBothDirections) {
  network.failures().partition(kA, kB);
  network.send(ping(kA, kB));
  network.send(ping(kB, kA));
  scheduler.run();
  EXPECT_TRUE(a.received.empty());
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(metrics.droppedMessages(), 2);
  // Sender is still charged for the send.
  EXPECT_EQ(metrics.node(kA).sent, 1);

  network.failures().heal(kA, kB);
  network.send(ping(kA, kB));
  scheduler.run();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST_F(NetFixture, CrashedNodeGetsNothing) {
  network.failures().crash(kB);
  network.send(ping(kA, kB));
  scheduler.run();
  EXPECT_TRUE(b.received.empty());
  network.failures().recover(kB);
  network.send(ping(kA, kB));
  scheduler.run();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST_F(NetFixture, IsolationCutsAllLinks) {
  network.failures().isolate(kA);
  network.send(ping(kA, kB));
  network.send(ping(kB, kA));
  scheduler.run();
  EXPECT_TRUE(a.received.empty());
  EXPECT_TRUE(b.received.empty());
  network.failures().deisolate(kA);
  network.send(ping(kB, kA));
  scheduler.run();
  EXPECT_EQ(a.received.size(), 1u);
}

TEST_F(NetFixture, CrashDuringFlightDropsAtDelivery) {
  network.setLatency(msec(100));
  network.send(ping(kA, kB));
  scheduler.runUntil(msec(10));
  network.failures().crash(kB);  // message already in flight
  scheduler.run();
  EXPECT_TRUE(b.received.empty());
}

TEST_F(NetFixture, DetachedSinkDropsSilently) {
  network.detach(kB);
  network.send(ping(kA, kB));
  scheduler.run();
  EXPECT_TRUE(b.received.empty());
}

TEST_F(NetFixture, RandomLossDropsRoughlyTheConfiguredFraction) {
  network.failures().setLossProbability(0.25);
  const int n = 10'000;
  for (int i = 0; i < n; ++i) network.send(ping(kA, kB));
  scheduler.run();
  const double deliveredFrac = static_cast<double>(b.received.size()) / n;
  EXPECT_NEAR(deliveredFrac, 0.75, 0.02);
}

// ---- message model ----

TEST(FailureModelTest, CutLinksFormASetOfUnorderedPairs) {
  FailureModel f;
  const NodeId n[] = {makeNodeId(0), makeNodeId(1), makeNodeId(2),
                      makeNodeId(7), makeNodeId(40)};
  f.partition(n[3], n[1]);
  f.partition(n[0], n[4]);
  f.partition(n[2], n[0]);
  f.partition(n[1], n[3]);  // the same link, named the other way round
  EXPECT_EQ(f.activeFaultCount(), 3u);
  EXPECT_TRUE(f.isPartitioned(n[1], n[3]));
  EXPECT_TRUE(f.isPartitioned(n[4], n[0]));
  EXPECT_TRUE(f.isPartitioned(n[0], n[2]));
  EXPECT_FALSE(f.isPartitioned(n[0], n[1]));
  EXPECT_FALSE(f.isReachable(n[3], n[1]));
  EXPECT_TRUE(f.isReachable(n[2], n[3]));

  f.heal(n[4], n[0]);
  f.heal(n[1], n[2]);  // never cut: a no-op
  EXPECT_EQ(f.activeFaultCount(), 2u);
  EXPECT_FALSE(f.isPartitioned(n[0], n[4]));
  EXPECT_TRUE(f.isPartitioned(n[3], n[1]));
  EXPECT_TRUE(f.isPartitioned(n[2], n[0]));

  f.clear();
  EXPECT_EQ(f.activeFaultCount(), 0u);
  EXPECT_FALSE(f.isPartitioned(n[1], n[3]));
}

TEST(MessageTest, WireBytesChargeHeaderAndFields) {
  EXPECT_EQ(wireBytes(Payload{Invalidate{makeObjectId(1)}}),
            kHeaderBytes + kFieldBytes);
  EXPECT_EQ(wireBytes(Payload{ReqObjLease{makeObjectId(1), 3}}),
            kHeaderBytes + 2 * kFieldBytes);
  EXPECT_EQ(wireBytes(Payload{ReqObjLease{makeObjectId(1), 3, true, 1}}),
            kHeaderBytes + 3 * kFieldBytes);
}

TEST(MessageTest, GrantChargesDataOnlyWhenCarried) {
  ObjLeaseGrant grant{makeObjectId(1), 2, sec(10), false, 5000};
  EXPECT_EQ(wireBytes(Payload{grant}), kHeaderBytes + 3 * kFieldBytes);
  grant.carriesData = true;
  EXPECT_EQ(wireBytes(Payload{grant}), kHeaderBytes + 3 * kFieldBytes + 5000);
  grant.grantsVolume = true;
  EXPECT_EQ(wireBytes(Payload{grant}),
            kHeaderBytes + 5 * kFieldBytes + 5000);
}

TEST(MessageTest, BatchScalesWithContents) {
  BatchInvalRenew batch;
  batch.vol = makeVolumeId(0);
  const std::int64_t base = wireBytes(Payload{batch});
  batch.invalidate.push_back(makeObjectId(1));
  EXPECT_EQ(wireBytes(Payload{batch}), base + kFieldBytes);
  batch.renew.push_back({makeObjectId(2), 1, sec(5)});
  EXPECT_EQ(wireBytes(Payload{batch}), base + kFieldBytes + 3 * kFieldBytes);
}

TEST(MessageTest, RenewListScalesWithContents) {
  RenewObjLeases renew;
  renew.vol = makeVolumeId(0);
  const std::int64_t base = wireBytes(Payload{renew});
  renew.leases.push_back({makeObjectId(1), 4});
  renew.leases.push_back({makeObjectId(2), 5});
  EXPECT_EQ(wireBytes(Payload{renew}), base + 4 * kFieldBytes);
}

TEST(MessageTest, TypeNamesCoverAllAlternatives) {
  for (std::size_t i = 0; i < kNumPayloadTypes; ++i) {
    EXPECT_STRNE(payloadTypeName(i), "?");
  }
  EXPECT_STREQ(payloadTypeName(kNumPayloadTypes), "?");
  EXPECT_EQ(payloadTypeIndex(Payload{Invalidate{makeObjectId(1)}}),
            static_cast<std::size_t>(8));
  EXPECT_STREQ(payloadTypeName(8), "INVALIDATE");
}

}  // namespace
}  // namespace vlease::net
