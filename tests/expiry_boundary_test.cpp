// Exact-instant expiry boundary + clock-skew safety margin tests.
//
// Boundary contract (uniform across client and server, DESIGN.md §8):
// a lease whose expiry is E is valid only while now < E. A read landing
// exactly at now == E is a client-side miss, and a write issued exactly
// at now == E treats the holder as expired (no invalidation needed).
// With a nonzero epsilon the cutoffs shift conservatively: the client
// stops serving at E - epsilon (on its own clock), the server keeps
// waiting until E + epsilon (on the global clock).
//
// Also regression-tests the reconnection-session race found by skew
// chaos: a RenewObjLeases that sat on the volume's deferred queue
// behind a pending write must not be matched to a reconnect session
// that started after the reply arrived (it describes a stale cache
// snapshot, so objects acquired since would dodge invalidation).
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/volume_client.h"
#include "core/volume_server.h"
#include "driver/simulation.h"
#include "proto/client_cache.h"
#include "net/fault_plan.h"
#include "proto_fixture.h"

namespace vlease::core {
namespace {

using testing::ProtoHarness;

proto::ProtocolConfig volumeConfig(proto::Algorithm algorithm) {
  proto::ProtocolConfig config;
  config.algorithm = algorithm;
  config.objectTimeout = sec(120);
  config.volumeTimeout = sec(30);
  config.msgTimeout = sec(5);
  config.readTimeout = sec(15);
  return config;
}

TEST(ExpiryBoundary, ClientLeaseIsInvalidExactlyAtExpiry) {
  ProtoHarness h(volumeConfig(proto::Algorithm::kVolumeLease));
  const auto first = h.read(0, 0);
  ASSERT_TRUE(first.ok);
  EXPECT_TRUE(first.usedNetwork);  // cold cache
  auto& client = dynamic_cast<VolumeClient&>(h.clientNode(0));
  const VolumeId vol = h.catalog.object(makeObjectId(0)).volume;

  // One microsecond before volume expiry: still a cache hit.
  h.advanceTo(sec(30) - 1);
  EXPECT_TRUE(client.hasValidVolumeLease(vol));
  EXPECT_FALSE(h.read(0, 0).usedNetwork);

  // Exactly at the volume-lease expiry instant: invalid; the read must
  // renew over the network.
  h.advanceTo(sec(30));
  EXPECT_FALSE(client.hasValidVolumeLease(vol));
  EXPECT_TRUE(h.read(0, 0).usedNetwork);

  // Exactly at the object-lease expiry instant (granted at t=0, never
  // renewed by the volume-only refreshes above): invalid.
  h.advanceTo(sec(120));
  EXPECT_FALSE(client.hasValidObjectLease(makeObjectId(0)));
  EXPECT_TRUE(h.read(0, 0).usedNetwork);
}

TEST(ExpiryBoundary, ServerTreatsHolderAsExpiredExactlyAtExpiry) {
  ProtoHarness h(volumeConfig(proto::Algorithm::kVolumeLease));
  ASSERT_TRUE(h.read(0, 0).ok);  // object lease expires at exactly 120s
  auto& server = dynamic_cast<VolumeServer&>(h.serverNode(0));

  // Exactly at the expiry instant the holder no longer counts: the
  // write commits instantly and sends no invalidation.
  h.advanceTo(sec(120));
  EXPECT_EQ(server.validObjectHolders(makeObjectId(0)), 0u);
  const std::int64_t messagesBefore = h.metrics().totalMessages();
  const auto w = h.write(0);
  EXPECT_EQ(w.delay, 0);
  EXPECT_EQ(h.metrics().totalMessages(), messagesBefore);
}

TEST(ExpiryBoundary, ServerInvalidatesHolderOneTickBeforeExpiry) {
  ProtoHarness h(volumeConfig(proto::Algorithm::kVolumeLease));
  ASSERT_TRUE(h.read(0, 0).ok);
  auto& server = dynamic_cast<VolumeServer&>(h.serverNode(0));

  // One microsecond earlier the lease is still live: the write must
  // contact the holder (invalidate + ack round trip at zero latency).
  h.advanceTo(sec(120) - 1);
  EXPECT_EQ(server.validObjectHolders(makeObjectId(0)), 1u);
  const std::int64_t messagesBefore = h.metrics().totalMessages();
  ASSERT_TRUE(h.write(0).delay == 0);  // zero latency: ack is immediate
  EXPECT_GT(h.metrics().totalMessages(), messagesBefore);
}

TEST(ExpiryBoundary, PlainLeaseBoundaryMatches) {
  proto::ProtocolConfig config = volumeConfig(proto::Algorithm::kLease);
  ProtoHarness h(config);
  ASSERT_TRUE(h.read(0, 0).ok);

  h.advanceTo(sec(120) - 1);
  EXPECT_FALSE(h.read(0, 0).usedNetwork);
  h.advanceTo(sec(120));
  // Client side: exact-instant read misses. Server side: the write at
  // the same instant commits without contacting the (expired) holder.
  const std::int64_t messagesBefore = h.metrics().totalMessages();
  const auto w = h.write(1);  // object 1 has no holders at all
  EXPECT_EQ(w.delay, 0);
  EXPECT_EQ(h.metrics().totalMessages(), messagesBefore);
  EXPECT_TRUE(h.read(0, 0).usedNetwork);
}

TEST(ExpiryBoundary, CacheEntryInvalidExactlyAtValidUntil) {
  proto::LeaseCache::Entry entry;
  entry.hasData = true;
  entry.setVersion(3);
  entry.validUntil = sec(10);
  EXPECT_TRUE(entry.valid(sec(10) - 1));
  EXPECT_FALSE(entry.valid(sec(10)));
  EXPECT_FALSE(entry.valid(sec(10) + 1));
}

// ---------------------------------------------------------------------
// Deterministic skew-safety check: one client 5 seconds slow, isolated
// so invalidations cannot reach it. With epsilon = 0 the server commits
// while the slow client still believes its volume lease is valid ->
// provable stale read. With epsilon = |skew| the server's extra wait
// outlasts the client's (conservatively shortened) serving window.
// ---------------------------------------------------------------------

struct SkewRig {
  explicit SkewRig(SimDuration epsilon) : catalog(1, 2) {
    const VolumeId vol = catalog.addVolume(catalog.serverNode(0));
    catalog.addObject(vol, 1000);
    proto::ProtocolConfig config = volumeConfig(proto::Algorithm::kVolumeLease);
    config.msgTimeout = sec(1);
    config.clockEpsilon = epsilon;
    auto plan = std::make_shared<net::FaultPlan>();
    plan->skewAt(0, catalog.clientNode(0), -sec(5));  // 5s slow
    plan->isolationWindow(sec(2), sec(60), catalog.clientNode(0));
    driver::SimOptions options;
    options.faultPlan = std::move(plan);
    sim = std::make_unique<driver::Simulation>(catalog, config, options);
  }

  trace::Catalog catalog;
  std::unique_ptr<driver::Simulation> sim;
};

TEST(SkewSafety, SlowClientServesStaleWithoutEpsilon) {
  SkewRig rig(/*epsilon=*/0);
  // t=1: the client acquires volume (expires 31) and object leases.
  rig.sim->drainTo(sec(1));
  std::optional<proto::ReadResult> r;
  rig.sim->issueRead(rig.catalog.clientNode(0), makeObjectId(0),
                     [&](const proto::ReadResult& res) { r = res; });
  rig.sim->drainTo(sec(1));
  ASSERT_TRUE(r.has_value() && r->ok);

  // t=32: the volume lease has nominally expired; the isolated holder's
  // invalidate is lost, and with epsilon = 0 the commit fires at the
  // msgTimeout floor (t=33) -- before the slow client's clock reaches
  // the expiry instant.
  rig.sim->drainTo(sec(32));
  std::optional<proto::WriteResult> w;
  rig.sim->issueWrite(makeObjectId(0),
                      [&](const proto::WriteResult& res) { w = res; });
  rig.sim->drainTo(sec(34));
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->delay, sec(1));

  // t=34: global clock is past expiry, but the slow clock reads 29 <
  // 31, so the client still serves the old version locally.
  std::optional<proto::ReadResult> stale;
  rig.sim->issueRead(rig.catalog.clientNode(0), makeObjectId(0),
                     [&](const proto::ReadResult& res) { stale = res; });
  rig.sim->drainTo(sec(34));
  ASSERT_TRUE(stale.has_value() && stale->ok);
  EXPECT_FALSE(stale->usedNetwork);
  EXPECT_LT(stale->version,
            rig.sim->protocol().servers[0]->currentVersion(makeObjectId(0)));
}

TEST(SkewSafety, EpsilonMarginCoversSlowClient) {
  SkewRig rig(/*epsilon=*/sec(5));
  rig.sim->drainTo(sec(1));
  std::optional<proto::ReadResult> r;
  rig.sim->issueRead(rig.catalog.clientNode(0), makeObjectId(0),
                     [&](const proto::ReadResult& res) { r = res; });
  rig.sim->drainTo(sec(1));
  ASSERT_TRUE(r.has_value() && r->ok);

  rig.sim->drainTo(sec(32));
  std::optional<proto::WriteResult> w;
  rig.sim->issueWrite(makeObjectId(0),
                      [&](const proto::WriteResult& res) { w = res; });
  rig.sim->drainTo(sec(37));
  ASSERT_TRUE(w.has_value());
  // Server-conservative: the commit waits until volume expiry (31) +
  // epsilon (5) = 36, i.e. 4 seconds past the write's issue at 32.
  EXPECT_EQ(w->delay, sec(4));

  // Client-conservative: at global t=34 the slow clock reads 29, and
  // 29 + epsilon = 34 >= 31 means the client already treats its volume
  // lease as dead -- no local serve (the read goes to the network and,
  // being isolated, times out; it must NOT return the stale version).
  std::optional<proto::ReadResult> guarded;
  rig.sim->issueRead(rig.catalog.clientNode(0), makeObjectId(0),
                     [&](const proto::ReadResult& res) { guarded = res; });
  rig.sim->drainTo(sec(55));
  ASSERT_TRUE(guarded.has_value());
  EXPECT_FALSE(guarded->ok && !guarded->usedNetwork);
}

// ---------------------------------------------------------------------
// Reconnection-session race regression (found by skew chaos, seed 7):
// a RenewObjLeases deferred behind a pending write outlives its own
// session and must not be accepted by the next one.
// ---------------------------------------------------------------------

/// Probe sink standing in for a client: records everything the server
/// sends to the node without reacting, so the test scripts the client
/// half of the exchange explicitly.
struct RecordingSink : net::MessageSink {
  void deliver(const net::Message& msg) override { inbox.push_back(msg); }
  template <typename T>
  std::vector<T> received() const {
    std::vector<T> out;
    for (const net::Message& m : inbox) {
      if (std::holds_alternative<T>(m.payload)) {
        out.push_back(std::get<T>(m.payload));
      }
    }
    return out;
  }
  std::vector<net::Message> inbox;
};

TEST(ReconnectSession, StaleDeferredRenewalCannotAnswerNewSession) {
  ProtoHarness h(volumeConfig(proto::Algorithm::kVolumeDelayedInval));
  auto& server = dynamic_cast<VolumeServer&>(h.serverNode(0));
  const NodeId c0 = h.client(0);
  const NodeId srv = h.server(0);
  const VolumeId vol = h.catalog.object(makeObjectId(0)).volume;

  // Replace client 0's sink: the test plays its side of the protocol.
  RecordingSink probe;
  h.network().attach(c0, &probe);

  // t=0: c0 acquires a volume lease and leases on objects 0 and 1.
  h.sim->drainTo(0);
  server.deliver({c0, srv, net::ReqVolLease{vol, 0}});
  server.deliver({c0, srv, net::ReqObjLease{makeObjectId(0), kNoVersion}});
  server.deliver({c0, srv, net::ReqObjLease{makeObjectId(1), kNoVersion}});
  h.sim->drainTo(0);
  ASSERT_EQ(probe.received<net::VolLeaseGrant>().size(), 1u);

  // t=1: write object 0. The invalidate to c0 goes unanswered (the
  // probe never acks), so the write pends until the volume lease
  // drains (t=30) and c0 lands in the Unreachable set.
  h.sim->drainTo(sec(1));
  h.writeAsync(0);
  h.sim->drainTo(sec(30));
  ASSERT_TRUE(server.isUnreachable(c0, vol));

  // t=31: c0 asks for its volume back -> reconnect session #1.
  h.sim->drainTo(sec(31));
  server.deliver({c0, srv, net::ReqVolLease{vol, 1}});
  h.sim->drainTo(sec(31));
  ASSERT_EQ(probe.received<net::MustRenewAll>().size(), 1u);

  // t=32: another write on object 0 starts pending (c0 is mid-session,
  // so it is contacted and, silent again, holds the write open).
  h.sim->drainTo(sec(32));
  h.writeAsync(0);

  // t=33: session #1's reply finally "arrives" -- listing only object
  // 0, a snapshot that predates c0's object-1 lease. The pending write
  // defers it. Session #1 then times out at t=36.
  h.sim->drainTo(sec(33));
  server.deliver(
      {c0, srv, net::RenewObjLeases{vol, {{makeObjectId(0), 1}}}});

  // t=36.5: c0 retries its volume request; it is deferred too.
  h.sim->drainTo(sec(36) + msec(500));
  server.deliver({c0, srv, net::ReqVolLease{vol, 1}});

  // t=37: the write commits and the deferred queue drains: the retry
  // opens session #2, and the stale reply from t=33 drains right after
  // it. The fix drops the stale reply instead of answering session #2
  // with it.
  h.sim->drainTo(sec(37));
  ASSERT_EQ(probe.received<net::MustRenewAll>().size(), 2u);
  ASSERT_EQ(probe.received<net::BatchInvalRenew>().size(), 0u)
      << "stale snapshot was matched to the new session";

  // The genuine reply to session #2 lists both objects; the server must
  // answer it and invalidate both stale copies (object 0 was written
  // twice, object 1's version still matches and is renewed).
  server.deliver({c0, srv,
                  net::RenewObjLeases{
                      vol, {{makeObjectId(0), 1}, {makeObjectId(1), 1}}}});
  h.sim->drainTo(sec(37));
  const auto batches = probe.received<net::BatchInvalRenew>();
  ASSERT_EQ(batches.size(), 1u);
  ASSERT_EQ(batches[0].invalidate.size(), 1u);
  EXPECT_EQ(batches[0].invalidate[0], makeObjectId(0));
  ASSERT_EQ(batches[0].renew.size(), 1u);
  EXPECT_EQ(batches[0].renew[0].obj, makeObjectId(1));

  // Completing the exchange grants the volume and repairs reachability.
  server.deliver({c0, srv, net::AckBatch{vol}});
  h.sim->drainTo(sec(37));
  EXPECT_FALSE(server.isUnreachable(c0, vol));
  EXPECT_EQ(probe.received<net::VolLeaseGrant>().size(), 2u);
}

}  // namespace
}  // namespace vlease::core
