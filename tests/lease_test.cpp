// Tests for the server-driven baselines: Callback, Lease(t), and
// BestEffortLease(t).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "proto/lease.h"
#include "proto_fixture.h"

namespace vlease::proto {
namespace {

using testing::ProtoHarness;

ProtocolConfig leaseConfig(Algorithm algorithm, SimDuration t = sec(100)) {
  ProtocolConfig config;
  config.algorithm = algorithm;
  config.objectTimeout = t;
  config.msgTimeout = sec(10);
  return config;
}

// ---- Lease ----

TEST(LeaseTest, CacheHitWithinLease) {
  ProtoHarness h(leaseConfig(Algorithm::kLease));
  EXPECT_TRUE(h.read(0, 0).usedNetwork);
  h.advanceTo(sec(50));
  EXPECT_FALSE(h.read(0, 0).usedNetwork);
  h.advanceTo(sec(101));
  EXPECT_TRUE(h.read(0, 0).usedNetwork);  // lease expired
}

TEST(LeaseTest, RenewalWithoutDataWhenUnchanged) {
  ProtoHarness h(leaseConfig(Algorithm::kLease));
  EXPECT_TRUE(h.read(0, 0).fetchedData);
  h.advanceTo(sec(200));
  auto r = h.read(0, 0);
  EXPECT_TRUE(r.usedNetwork);
  EXPECT_FALSE(r.fetchedData);  // version unchanged: lease-only renewal
}

TEST(LeaseTest, WriteInvalidatesValidHoldersAndWaitsForAcks) {
  ProtoHarness h(leaseConfig(Algorithm::kLease));
  h.read(0, 0);
  h.read(1, 0);
  const std::int64_t before = h.metrics().totalMessages();
  auto w = h.write(0);
  EXPECT_EQ(w.delay, 0);  // both clients acked within the instant
  EXPECT_EQ(w.newVersion, 2);
  // 2 invalidations + 2 acks.
  EXPECT_EQ(h.metrics().totalMessages(), before + 4);
}

TEST(LeaseTest, WriteSkipsExpiredHolders) {
  ProtoHarness h(leaseConfig(Algorithm::kLease));
  h.read(0, 0);
  h.advanceTo(sec(150));  // lease expired
  const std::int64_t before = h.metrics().totalMessages();
  auto w = h.write(0);
  EXPECT_EQ(w.delay, 0);
  EXPECT_EQ(h.metrics().totalMessages(), before);  // nobody to invalidate
}

TEST(LeaseTest, InvalidatedClientRefetches) {
  ProtoHarness h(leaseConfig(Algorithm::kLease));
  h.read(0, 0);
  h.write(0);
  auto r = h.read(0, 0);  // lease still valid in time, but copy was dropped
  EXPECT_TRUE(r.usedNetwork);
  EXPECT_TRUE(r.fetchedData);
  EXPECT_EQ(r.version, 2);
  EXPECT_EQ(h.metrics().staleReads(), 0);
}

TEST(LeaseTest, WriteBlockedByPartitionCommitsAtLeaseExpiry) {
  ProtoHarness h(leaseConfig(Algorithm::kLease, sec(100)));
  h.network().setLatency(msec(10));
  h.read(0, 0);
  h.advanceTo(sec(30));
  h.network().failures().isolate(h.client(0));
  auto w = h.write(0);  // runs the scheduler until commit
  EXPECT_FALSE(w.blocked);
  // Committed exactly when the client's lease drained: lease granted at
  // ~t=0.02 for 100s.
  EXPECT_GE(w.delay, sec(69));
  EXPECT_LE(w.delay, sec(71));
  EXPECT_EQ(h.metrics().delayedWrites(), 1);
}

TEST(LeaseTest, AckUnblocksBeforeExpiry) {
  ProtoHarness h(leaseConfig(Algorithm::kLease, sec(1000)));
  h.network().setLatency(sec(1));
  h.read(0, 0);
  auto w = h.write(0);  // invalidation RTT = 2 s
  EXPECT_NEAR(toSeconds(w.delay), 2.0, 0.1);
}

TEST(LeaseTest, GrantDeferredDuringPendingWrite) {
  // With latency, a lease request arriving mid-write must not be granted
  // until the write commits -- and then must carry the new version.
  ProtoHarness h(leaseConfig(Algorithm::kLease, sec(1000)));
  h.network().setLatency(msec(500));
  h.read(0, 0);
  h.sim->issueWrite(makeObjectId(0), nullptr);  // invalidation in flight
  proto::ReadResult result;
  bool done = false;
  h.sim->issueRead(h.client(1), makeObjectId(0),
                   [&](const proto::ReadResult& r) {
                     result = r;
                     done = true;
                   });
  h.advanceTo(h.scheduler().now() + sec(10));
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.version, 2);  // never saw the doomed version 1
  EXPECT_EQ(h.metrics().staleReads(), 0);
}

TEST(LeaseTest, QueuedWritesSerialize) {
  ProtoHarness h(leaseConfig(Algorithm::kLease, sec(1000)));
  h.network().setLatency(msec(100));
  h.read(0, 0);
  h.sim->issueWrite(makeObjectId(0), nullptr);
  h.sim->issueWrite(makeObjectId(0), nullptr);
  auto w = h.write(0);  // third write
  EXPECT_EQ(w.newVersion, 4);
  EXPECT_EQ(h.metrics().writes(), 3);
}

TEST(LeaseTest, StateAccountingTracksLeaseLifetime) {
  ProtoHarness h(leaseConfig(Algorithm::kLease, sec(100)));
  h.read(0, 0);  // one 16-byte lease record live for 100 s
  h.advanceTo(sec(400));
  h.sim->finish();
  // Average over 400 s horizon: 16 B * 100 s / 400 s = 4 B.
  EXPECT_NEAR(h.metrics().avgStateBytes(h.server()), 4.0, 0.1);
}

// ---- Callback ----

TEST(CallbackTest, RegistrationNeverExpires) {
  ProtoHarness h(leaseConfig(Algorithm::kCallback));
  h.read(0, 0);
  h.advanceTo(days(30));
  EXPECT_FALSE(h.read(0, 0).usedNetwork);  // still registered
}

TEST(CallbackTest, WriteNotifiesAllRegisteredClients) {
  ProtoHarness h(leaseConfig(Algorithm::kCallback));
  h.read(0, 0);
  h.read(1, 0);
  h.advanceTo(days(10));  // leases would long have expired
  const std::int64_t before = h.metrics().totalMessages();
  h.write(0);
  EXPECT_EQ(h.metrics().totalMessages(), before + 4);
}

TEST(CallbackTest, WriteBlockedForeverIsFlagged) {
  ProtoHarness h(leaseConfig(Algorithm::kCallback));
  h.network().setLatency(msec(10));
  h.read(0, 0);
  h.network().failures().isolate(h.client(0));
  auto w = h.write(0);  // force-committed after msgTimeout
  EXPECT_TRUE(w.blocked);
  EXPECT_EQ(h.metrics().blockedWrites(), 1);
}

TEST(CallbackTest, BlockedClientRetriedOnNextWrite) {
  ProtoHarness h(leaseConfig(Algorithm::kCallback));
  h.network().setLatency(msec(10));
  h.read(0, 0);
  h.network().failures().isolate(h.client(0));
  EXPECT_TRUE(h.write(0).blocked);
  h.network().failures().deisolate(h.client(0));
  auto w = h.write(0);  // the registration survived; this one succeeds
  EXPECT_FALSE(w.blocked);
}

// ---- Best Effort Lease ----

TEST(BestEffortTest, WriteNeverWaits) {
  ProtoHarness h(leaseConfig(Algorithm::kBestEffortLease, sec(100)));
  h.network().setLatency(sec(5));
  h.read(0, 0);
  h.advanceTo(sec(20));
  const SimTime before = h.scheduler().now();
  auto w = h.write(0);
  EXPECT_EQ(w.delay, 0);
  EXPECT_EQ(h.scheduler().now(), before);
}

TEST(BestEffortTest, ClientsDoNotAck) {
  ProtoHarness h(leaseConfig(Algorithm::kBestEffortLease, sec(100)));
  h.read(0, 0);
  const std::int64_t before = h.metrics().totalMessages();
  h.write(0);
  h.advanceTo(h.scheduler().now() + sec(1));
  EXPECT_EQ(h.metrics().totalMessages(), before + 1);  // invalidation only
}

TEST(BestEffortTest, LostInvalidationYieldsBoundedStaleness) {
  ProtoHarness h(leaseConfig(Algorithm::kBestEffortLease, sec(100)));
  h.read(0, 0);
  h.network().failures().isolate(h.client(0));
  h.write(0);  // invalidation dropped; write proceeded anyway
  h.network().failures().deisolate(h.client(0));
  auto r = h.read(0, 0);  // lease still valid -> stale local read
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.version, 1);
  EXPECT_EQ(h.metrics().staleReads(), 1);

  // ...but bounded: after the lease expires the client revalidates.
  h.advanceTo(sec(101));
  EXPECT_EQ(h.read(0, 0).version, 2);
}

TEST(BestEffortTest, DeliveredInvalidationPreventsStaleness) {
  ProtoHarness h(leaseConfig(Algorithm::kBestEffortLease, sec(100)));
  h.read(0, 0);
  h.write(0);
  auto r = h.read(0, 0);
  EXPECT_EQ(r.version, 2);
  EXPECT_EQ(h.metrics().staleReads(), 0);
}

// ---- invalidation fan-out order ----

/// Stands in front of a client's sink: logs each Invalidate's recipient
/// node in arrival order, then delivers the message as usual.
struct InvalidateLog final : net::MessageSink {
  InvalidateLog(net::MessageSink& inner, std::vector<std::uint32_t>& log)
      : inner(inner), log(log) {}
  void deliver(const net::Message& msg) override {
    if (std::holds_alternative<net::Invalidate>(msg.payload)) {
      log.push_back(raw(msg.to));
    }
    inner.deliver(msg);
  }
  net::MessageSink& inner;
  std::vector<std::uint32_t>& log;
};

/// 16 clients lease object 0 one after another, then it is written:
/// the clients its Invalidates reach, in order. Sixteen holders are past
/// the first rehash of a libstdc++ hash table, whose iteration order
/// stops being newest-first there.
std::vector<std::uint32_t> invalidationOrder(Algorithm algorithm) {
  constexpr std::uint32_t kClients = 16;
  ProtoHarness h(leaseConfig(algorithm), /*numServers=*/1, kClients);
  for (std::uint32_t c = 0; c < kClients; ++c) h.read(c, 0);
  std::vector<std::uint32_t> log;
  std::vector<std::unique_ptr<InvalidateLog>> sinks;
  for (std::uint32_t c = 0; c < kClients; ++c) {
    sinks.push_back(std::make_unique<InvalidateLog>(h.clientNode(c), log));
    h.network().attach(h.client(c), sinks.back().get());
  }
  h.write(0);
  return log;
}

/// Client c is node 1 + c behind the one server.
std::vector<std::uint32_t> newestGrantFirst() {
  std::vector<std::uint32_t> order;
  for (std::uint32_t c = 16; c-- > 0;) order.push_back(1 + c);
  return order;
}

TEST(FanOutOrderTest, VolumeServerInvalidatesNewestGrantFirst) {
  EXPECT_EQ(invalidationOrder(Algorithm::kVolumeLease), newestGrantFirst());
}

TEST(FanOutOrderTest, LeaseMatchesVolumeServer) {
  EXPECT_EQ(invalidationOrder(Algorithm::kLease), newestGrantFirst());
}

TEST(FanOutOrderTest, CallbackMatchesVolumeServer) {
  EXPECT_EQ(invalidationOrder(Algorithm::kCallback), newestGrantFirst());
}

TEST(FanOutOrderTest, BestEffortMatchesVolumeServer) {
  EXPECT_EQ(invalidationOrder(Algorithm::kBestEffortLease),
            newestGrantFirst());
}

// ---- cross-algorithm sanity ----

TEST(LeaseFamilyTest, CallbackEqualsInfiniteLeaseFailureFree) {
  for (std::uint64_t obj : {0ull, 1ull}) {
    ProtoHarness callback(leaseConfig(Algorithm::kCallback));
    ProtoHarness infinite(leaseConfig(Algorithm::kLease, days(365 * 100)));
    for (ProtoHarness* h : {&callback, &infinite}) {
      h->read(0, obj);
      h->read(1, obj);
      h->advanceTo(days(3));
      h->write(obj);
      h->read(0, obj);
      h->advanceTo(days(40));
      h->read(1, obj);
      h->sim->finish();
    }
    EXPECT_EQ(callback.metrics().totalMessages(),
              infinite.metrics().totalMessages());
    EXPECT_EQ(callback.metrics().staleReads(), 0);
    EXPECT_EQ(infinite.metrics().staleReads(), 0);
  }
}

}  // namespace
}  // namespace vlease::proto
