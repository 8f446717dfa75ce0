// Tests for the paper's contribution: Volume Leases and Volume Leases
// with Delayed Invalidations -- read paths, write paths, the Unreachable
// set, the reconnection exchange, epochs/crash recovery, pending lists,
// the d discard parameter, and the piggyback ablation.
#include <gtest/gtest.h>

#include <optional>

#include "core/volume_client.h"
#include "core/volume_server.h"
#include "proto_fixture.h"

namespace vlease::core {
namespace {

using proto::Algorithm;
using proto::ProtocolConfig;
using testing::ProtoHarness;

ProtocolConfig volumeConfig(Algorithm algorithm = Algorithm::kVolumeLease,
                            SimDuration t = sec(1000),
                            SimDuration tv = sec(10)) {
  ProtocolConfig config;
  config.algorithm = algorithm;
  config.objectTimeout = t;
  config.volumeTimeout = tv;
  config.msgTimeout = sec(5);
  return config;
}

VolumeServer& vserver(ProtoHarness& h, std::uint32_t idx = 0) {
  return dynamic_cast<VolumeServer&>(h.serverNode(idx));
}
VolumeClient& vclient(ProtoHarness& h, std::uint32_t idx) {
  return dynamic_cast<VolumeClient&>(h.clientNode(idx));
}
constexpr VolumeId kVol = makeVolumeId(0);

// ---------------------------------------------------------------------
// read path
// ---------------------------------------------------------------------

TEST(VolumeReadTest, FirstReadAcquiresBothLeases) {
  ProtoHarness h(volumeConfig());
  auto r = h.read(0, 0);
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.usedNetwork);
  EXPECT_TRUE(r.fetchedData);
  // REQ_VOL + VOL + REQ_OBJ + OBJ.
  EXPECT_EQ(h.metrics().totalMessages(), 4);
  EXPECT_TRUE(vclient(h, 0).hasValidVolumeLease(kVol));
  EXPECT_TRUE(vclient(h, 0).hasValidObjectLease(makeObjectId(0)));
}

TEST(VolumeReadTest, BothLeasesValidMeansZeroMessages) {
  ProtoHarness h(volumeConfig());
  h.read(0, 0);
  h.advanceTo(sec(5));
  auto r = h.read(0, 0);
  EXPECT_FALSE(r.usedNetwork);
  EXPECT_EQ(h.metrics().totalMessages(), 4);
  EXPECT_EQ(h.metrics().cacheLocalReads(), 1);
}

TEST(VolumeReadTest, VolumeRenewalAmortizedAcrossObjects) {
  // A burst of reads to one volume pays ONE volume renewal (the paper's
  // central amortization argument).
  ProtoHarness h(volumeConfig(), 1, 2, /*objectsPerVolume=*/5);
  for (std::uint64_t obj = 0; obj < 5; ++obj) h.read(0, obj);
  // 1 volume round trip + 5 object round trips = 12 messages.
  EXPECT_EQ(h.metrics().totalMessages(), 12);
}

TEST(VolumeReadTest, ExpiredVolumeNeedsOnlyVolumeRenewal) {
  ProtoHarness h(volumeConfig());
  h.read(0, 0);
  h.advanceTo(sec(20));  // t_v = 10 expired; object lease (1000 s) valid
  auto r = h.read(0, 0);
  EXPECT_TRUE(r.usedNetwork);
  EXPECT_FALSE(r.fetchedData);
  EXPECT_EQ(h.metrics().totalMessages(), 6);  // + REQ_VOL/VOL only
}

TEST(VolumeReadTest, ExpiredObjectNeedsOnlyObjectRenewal) {
  ProtoHarness h(volumeConfig(Algorithm::kVolumeLease, sec(30), sec(1000)));
  h.read(0, 0);
  h.advanceTo(sec(60));  // object lease expired, volume (1000 s) valid
  auto r = h.read(0, 0);
  EXPECT_TRUE(r.usedNetwork);
  EXPECT_EQ(h.metrics().totalMessages(), 6);  // + REQ_OBJ/OBJ only
}

TEST(VolumeReadTest, ConcurrentReadsShareRenewals) {
  // Two reads of the same object inside one instant with latency: only
  // one volume request and one object request go out.
  ProtoHarness h(volumeConfig());
  h.network().setLatency(msec(100));
  int resolved = 0;
  for (int i = 0; i < 2; ++i) {
    h.sim->issueRead(h.client(0), makeObjectId(0),
                     [&](const proto::ReadResult& r) {
                       EXPECT_TRUE(r.ok);
                       ++resolved;
                     });
  }
  h.advanceTo(sec(1));
  EXPECT_EQ(resolved, 2);
  EXPECT_EQ(h.metrics().totalMessages(), 4);
}

TEST(VolumeReadTest, PerClientLeasesAreIndependent) {
  ProtoHarness h(volumeConfig());
  h.read(0, 0);
  EXPECT_FALSE(vclient(h, 1).hasValidVolumeLease(kVol));
  h.read(1, 0);
  EXPECT_EQ(vserver(h).validVolumeHolders(kVol), 2u);
  EXPECT_EQ(vserver(h).validObjectHolders(makeObjectId(0)), 2u);
}

// ---------------------------------------------------------------------
// write path
// ---------------------------------------------------------------------

TEST(VolumeWriteTest, InvalidatesValidObjectLeaseHolders) {
  ProtoHarness h(volumeConfig());
  h.read(0, 0);
  h.read(1, 0);
  h.read(1, 1);  // different object: not invalidated
  const std::int64_t before = h.metrics().totalMessages();
  auto w = h.write(0);
  EXPECT_EQ(w.delay, 0);
  EXPECT_EQ(w.newVersion, 2);
  EXPECT_EQ(h.metrics().totalMessages(), before + 4);  // 2 inval + 2 ack
}

TEST(VolumeWriteTest, InvalidatesHoldersEvenAfterVolumeExpiry) {
  // Basic Volume Leases (kImmediate): object-lease holders are notified
  // even when their volume lease lapsed (write cost C_o in Table 1).
  ProtoHarness h(volumeConfig());
  h.read(0, 0);
  h.advanceTo(sec(50));  // volume lease (10 s) long gone
  const std::int64_t before = h.metrics().totalMessages();
  h.write(0);
  EXPECT_EQ(h.metrics().totalMessages(), before + 2);
}

TEST(VolumeWriteTest, PartitionedClientBoundsWriteByVolumeLease) {
  // The headline fault-tolerance property: the write waits at most
  // min(t, t_v) -- the volume lease here -- not the long object lease.
  ProtoHarness h(volumeConfig(Algorithm::kVolumeLease, hours(10), sec(10)));
  h.network().setLatency(msec(10));
  h.read(0, 0);
  h.network().failures().isolate(h.client(0));
  const SimTime start = h.scheduler().now();
  auto w = h.write(0);
  // Volume lease granted ~10 ms after t=0 for 10 s; the msgTimeout floor
  // is 5 s. The commit lands at the volume-lease horizon.
  EXPECT_LE(w.delay, sec(11));
  EXPECT_GT(w.delay, 0);
  EXPECT_LT(h.scheduler().now() - start, sec(12));
  EXPECT_TRUE(vserver(h).isUnreachable(h.client(0), kVol));
}

TEST(VolumeWriteTest, UnreachableClientsAreSkippedOnLaterWrites) {
  ProtoHarness h(volumeConfig(Algorithm::kVolumeLease, hours(10), sec(10)));
  h.network().setLatency(msec(10));
  h.read(0, 0);
  h.network().failures().isolate(h.client(0));
  h.write(0);  // moves client 0 to Unreachable
  const std::int64_t before = h.metrics().totalMessages();
  auto w = h.write(0);  // no one left to contact
  EXPECT_EQ(w.delay, 0);
  EXPECT_EQ(h.metrics().totalMessages(), before);
}

TEST(VolumeWriteTest, AcksRemoveHolderRecords) {
  ProtoHarness h(volumeConfig());
  h.read(0, 0);
  h.write(0);
  EXPECT_EQ(vserver(h).validObjectHolders(makeObjectId(0)), 0u);
}

// ---------------------------------------------------------------------
// reconnection (paper §3.1.1)
// ---------------------------------------------------------------------

TEST(VolumeReconnectTest, RepairsExactlyTheModifiedObjects) {
  ProtoHarness h(volumeConfig(Algorithm::kVolumeLease, hours(10), sec(10)),
                 1, 2, /*objectsPerVolume=*/3);
  h.network().setLatency(msec(10));
  h.read(0, 0);
  h.read(0, 1);
  h.read(0, 2);
  h.network().failures().isolate(h.client(0));
  h.write(0);  // -> unreachable; object 0 modified while away
  ASSERT_TRUE(vserver(h).isUnreachable(h.client(0), kVol));
  h.network().failures().deisolate(h.client(0));
  h.network().setLatency(0);  // keep the follow-up reads inside t_v

  // First read runs MUST_RENEW_ALL; object 1 and 2 leases are renewed,
  // object 0 invalidated and re-fetched.
  auto r = h.read(0, 0);
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.fetchedData);
  EXPECT_EQ(r.version, 2);
  EXPECT_FALSE(vserver(h).isUnreachable(h.client(0), kVol));
  EXPECT_TRUE(vclient(h, 0).hasValidObjectLease(makeObjectId(1)));
  EXPECT_TRUE(vclient(h, 0).hasValidObjectLease(makeObjectId(2)));

  // The renewed leases are genuinely usable: local reads, no staleness.
  EXPECT_FALSE(h.read(0, 1).usedNetwork);
  EXPECT_FALSE(h.read(0, 2).usedNetwork);
  EXPECT_EQ(h.metrics().staleReads(), 0);
}

TEST(VolumeReconnectTest, CleanClientReconnectsWithoutInvalidation) {
  ProtoHarness h(volumeConfig(Algorithm::kVolumeLease, hours(10), sec(10)));
  h.network().setLatency(msec(10));
  h.read(0, 0);
  h.network().failures().isolate(h.client(0));
  h.write(1);  // a DIFFERENT object: client 0 has no lease on it...
  // ...but client 0 never acked nothing -- it is not unreachable yet.
  EXPECT_FALSE(vserver(h).isUnreachable(h.client(0), kVol));
  h.network().failures().deisolate(h.client(0));
  h.advanceTo(h.scheduler().now() + sec(60));
  auto r = h.read(0, 0);  // plain volume renewal; object lease intact
  EXPECT_TRUE(r.ok);
  EXPECT_FALSE(r.fetchedData);
  EXPECT_EQ(h.metrics().staleReads(), 0);
}

TEST(VolumeReconnectTest, StaleReadImpossibleDespiteValidObjectLease) {
  // The scenario §3.1.1 is about: valid object lease + missed
  // invalidation. The expired volume lease fences the read.
  ProtoHarness h(volumeConfig(Algorithm::kVolumeLease, hours(10), sec(10)));
  h.network().setLatency(msec(10));
  h.read(0, 0);
  h.network().failures().isolate(h.client(0));
  h.write(0);
  // Client 0 still believes its object lease is valid...
  EXPECT_TRUE(vclient(h, 0).hasValidObjectLease(makeObjectId(0)));
  // ...but a read while partitioned fails rather than serving v1.
  auto r = h.read(0, 0);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(h.metrics().staleReads(), 0);
}

// A by-expiry write that commits while an Unreachable client's
// reconnection has renewed the object at the old version but not yet
// been acked. (Traced from `vlease_chaos --algorithms volume --by-expiry
// --seeds 1 --seed-base 8 --intensity low`: obj 4 renewed at v20, the
// write to v21 commits at once, the ack clears Unreachable and the
// volume grant lets three clients serve v20.) The commit must end the
// session so its ack cannot re-admit the stale copy.
TEST(VolumeReconnectTest, ByExpiryCommitDuringReconnectionIsNotServedStale) {
  ProtocolConfig config =
      volumeConfig(Algorithm::kVolumeLease, hours(10), sec(10));
  config.writeByLeaseExpiry = true;
  ProtoHarness h(config, 1, 2, /*objectsPerVolume=*/2);
  h.read(0, 0);
  h.read(0, 1);
  h.advanceTo(sec(60));  // volume lease expired; object leases valid
  h.write(1);            // commits now and moves client 0 to Unreachable
  ASSERT_TRUE(vserver(h).isUnreachable(h.client(0), kVol));

  h.network().setLatency(msec(20));
  std::optional<proto::ReadResult> first;
  h.sim->issueRead(h.client(0), makeObjectId(0),
                   [&](const proto::ReadResult& r) { first = r; });
  // REQ_VOL_LEASE lands at +20 ms and starts the reconnection; the
  // renewal of object 0 at v1 lands at +60 ms and its batch is acked at
  // +100 ms. The write below commits at once, between the two.
  h.advanceTo(sec(60) + msec(70));
  h.writeAsync(0);
  EXPECT_EQ(vserver(h).currentVersion(makeObjectId(0)), 2);
  // With the ack dropped, the read waits out its timeout; the next one
  // reconnects afresh and learns that object 0 changed.
  h.advanceTo(sec(60) + config.readTimeout + sec(1));
  ASSERT_TRUE(first.has_value());
  EXPECT_FALSE(first->ok && first->version != 2);
  EXPECT_EQ(h.read(0, 0).version, 2);
  EXPECT_EQ(h.metrics().staleReads(), 0);
}

// ---------------------------------------------------------------------
// crash recovery (paper §3.1.2)
// ---------------------------------------------------------------------

TEST(VolumeCrashTest, EpochBumpForcesReconnection) {
  ProtoHarness h(volumeConfig());
  h.read(0, 0);
  EXPECT_EQ(vserver(h).volumeEpoch(kVol), 1);
  vserver(h).crashAndReboot();
  EXPECT_EQ(vserver(h).volumeEpoch(kVol), 2);

  h.advanceTo(sec(60));  // past recovery window
  const std::int64_t before = h.metrics().totalMessages();
  auto r = h.read(0, 0);
  EXPECT_TRUE(r.ok);
  // Reconnection exchange: REQ_VOL, MUST_RENEW_ALL, RENEW_OBJ_LEASES,
  // BATCH, ACK, VOL_LEASE (+ nothing else: object lease was renewed in
  // the batch since the version did not change).
  EXPECT_EQ(h.metrics().totalMessages() - before, 6);
  EXPECT_EQ(vclient(h, 0).knownEpoch(kVol), 2);
}

TEST(VolumeCrashTest, WritesDelayedUntilOldLeasesDrain) {
  ProtoHarness h(volumeConfig(Algorithm::kVolumeLease, sec(1000), sec(100)));
  h.read(0, 0);  // volume lease until t=100
  h.advanceTo(sec(30));
  vserver(h).crashAndReboot();
  EXPECT_EQ(vserver(h).recoveryUntil(), sec(100));
  auto w = h.write(0);
  EXPECT_EQ(h.scheduler().now(), sec(100));
  EXPECT_NEAR(toSeconds(w.delay), 70.0, 0.1);
}

TEST(VolumeCrashTest, NoStaleReadAcrossCrash) {
  // Client holds long object lease; server crashes losing all lease
  // state; object is then modified; client returns. The epoch check must
  // prevent the client from trusting its old object lease.
  ProtoHarness h(volumeConfig(Algorithm::kVolumeLease, hours(10), sec(10)));
  h.read(0, 0);
  h.advanceTo(sec(30));
  vserver(h).crashAndReboot();
  h.advanceTo(sec(60));  // recovery window (volume leases) drained
  h.write(0);            // no lease records -> instant
  auto r = h.read(0, 0);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.version, 2);
  EXPECT_EQ(h.metrics().staleReads(), 0);
}

TEST(VolumeCrashTest, VersionsSurviveCrash) {
  ProtoHarness h(volumeConfig());
  h.write(0);
  h.write(0);
  vserver(h).crashAndReboot();
  EXPECT_EQ(vserver(h).currentVersion(makeObjectId(0)), 3);
}

// ---------------------------------------------------------------------
// delayed invalidations (paper §3.2)
// ---------------------------------------------------------------------

ProtocolConfig delayConfig(SimDuration d = kNever) {
  ProtocolConfig config = volumeConfig(Algorithm::kVolumeDelayedInval,
                                       sec(100'000), sec(10));
  config.inactiveDiscard = d;
  return config;
}

TEST(DelayedInvalTest, ExpiredVolumeClientsGetPendingNotMessages) {
  ProtoHarness h(delayConfig());
  h.read(0, 0);
  h.advanceTo(sec(60));  // volume lease expired; object lease valid
  const std::int64_t before = h.metrics().totalMessages();
  auto w = h.write(0);
  EXPECT_EQ(w.delay, 0);
  EXPECT_EQ(h.metrics().totalMessages(), before);  // zero messages!
  EXPECT_TRUE(vserver(h).isInactive(h.client(0), kVol));
  EXPECT_EQ(vserver(h).pendingMessageCount(h.client(0), kVol), 1u);
}

TEST(DelayedInvalTest, ValidVolumeClientsInvalidatedImmediately) {
  ProtoHarness h(delayConfig());
  h.read(0, 0);
  h.read(1, 0);
  h.advanceTo(sec(60));
  h.read(1, 1);  // client 1 renews its volume lease at t=60
  const std::int64_t before = h.metrics().totalMessages();
  h.write(0);
  // Client 1 (valid volume) gets inval+ack; client 0 goes pending.
  EXPECT_EQ(h.metrics().totalMessages(), before + 2);
  EXPECT_EQ(vserver(h).pendingMessageCount(h.client(0), kVol), 1u);
  EXPECT_EQ(vserver(h).pendingMessageCount(h.client(1), kVol), 0u);
}

TEST(DelayedInvalTest, PendingBatchFlushedOnVolumeRenewal) {
  ProtoHarness h(delayConfig(), 1, 2, /*objectsPerVolume=*/4);
  h.read(0, 0);
  h.read(0, 1);
  h.read(0, 2);
  h.advanceTo(sec(60));
  h.write(0);
  h.write(1);
  EXPECT_EQ(vserver(h).pendingMessageCount(h.client(0), kVol), 2u);

  // The client comes back and reads object 2 (unmodified): the volume
  // renewal first delivers the pending invalidations as one batch.
  auto r = h.read(0, 2);
  EXPECT_TRUE(r.ok);
  EXPECT_FALSE(r.fetchedData);  // object 2 unchanged
  EXPECT_FALSE(vserver(h).isInactive(h.client(0), kVol));
  EXPECT_EQ(vserver(h).pendingMessageCount(h.client(0), kVol), 0u);

  // Objects 0 and 1 were invalidated by the batch: re-reads fetch fresh.
  auto r0 = h.read(0, 0);
  EXPECT_TRUE(r0.fetchedData);
  EXPECT_EQ(r0.version, 2);
  EXPECT_EQ(h.metrics().staleReads(), 0);
}

TEST(DelayedInvalTest, BatchingSavesMessages) {
  // N writes to objects cached by an away client cost ONE batch round
  // trip at renewal instead of N invalidation round trips.
  ProtoHarness h(delayConfig(), 1, 1, /*objectsPerVolume=*/8);
  for (std::uint64_t obj = 0; obj < 8; ++obj) h.read(0, obj);
  h.advanceTo(sec(60));
  const std::int64_t beforeWrites = h.metrics().totalMessages();
  for (std::uint64_t obj = 0; obj < 8; ++obj) h.write(obj);
  EXPECT_EQ(h.metrics().totalMessages(), beforeWrites);  // all pending
  const std::int64_t beforeRenew = h.metrics().totalMessages();
  h.read(0, 7);  // triggers flush (+ re-fetch of object 7)
  // REQ_VOL + BATCH + ACK + VOL_LEASE + REQ_OBJ + OBJ = 6.
  EXPECT_EQ(h.metrics().totalMessages(), beforeRenew + 6);
}

// Two writes to object 0 while client 0 is Inactive queue ONE pending
// invalidation; its flush (triggered by reading the unmodified object 1)
// names object 0 once: REQ_VOL + BATCH(vol, {0}) + ACK_BATCH + VOL_LEASE.
void expectOnePendingInvalidation(ProtoHarness& h) {
  EXPECT_EQ(vserver(h).pendingMessageCount(h.client(0), kVol), 1u);
  const std::int64_t bytesBefore = h.metrics().totalBytes();
  const std::int64_t batchesBefore = h.metrics().messagesOfType(
      net::payloadIndex<net::BatchInvalRenew>());
  auto r = h.read(0, 1);
  EXPECT_FALSE(r.fetchedData);
  EXPECT_EQ(h.metrics().messagesOfType(
                net::payloadIndex<net::BatchInvalRenew>()),
            batchesBefore + 1);
  const std::int64_t batchBytes =
      h.metrics().totalBytes() - bytesBefore -
      net::wireBytes(net::ReqVolLease{kVol, 1}) -
      net::wireBytes(net::AckBatch{kVol}) -
      net::wireBytes(net::VolLeaseGrant{kVol, 0, 1});
  EXPECT_EQ(batchBytes, net::kHeaderBytes + 2 * net::kFieldBytes);
  auto r0 = h.read(0, 0);
  EXPECT_TRUE(r0.fetchedData);
  EXPECT_EQ(r0.version, 3);
  EXPECT_EQ(h.metrics().staleReads(), 0);
}

TEST(DelayedInvalTest, RepeatedWritesQueueOneInvalidation) {
  ProtoHarness h(delayConfig(), 1, 2, /*objectsPerVolume=*/2);
  h.read(0, 0);
  h.read(0, 1);
  h.advanceTo(sec(60));  // volume lease expired; object leases valid
  h.write(0);
  h.advanceTo(sec(70));
  h.write(0);
  expectOnePendingInvalidation(h);
}

TEST(DelayedInvalTest, RepeatedByExpiryCommitsQueueOneInvalidation) {
  ProtocolConfig config = delayConfig();
  config.writeByLeaseExpiry = true;
  ProtoHarness h(config, 1, 2, /*objectsPerVolume=*/2);
  h.read(0, 0);
  h.read(0, 1);
  h.advanceTo(sec(60));
  h.write(0);  // volume lease drained: commits now, queues at commit
  h.advanceTo(sec(70));
  h.write(0);
  expectOnePendingInvalidation(h);
}

// A by-expiry commit that queues onto a client's pending list while that
// client's flush batch is in flight must be flushed too before the volume
// is granted; dropping it at the ack lets the client serve the old
// version under two valid leases.
TEST(DelayedInvalTest, ByExpiryCommitDuringFlushIsFlushedBeforeGrant) {
  ProtocolConfig config = delayConfig();
  config.writeByLeaseExpiry = true;
  ProtoHarness h(config, 1, 2, /*objectsPerVolume=*/2);
  h.read(0, 0);
  h.read(0, 1);
  h.advanceTo(sec(60));  // volume lease expired; object leases valid
  h.write(1);            // commits now, queues object 1 for client 0
  h.network().setLatency(msec(20));
  std::optional<proto::ReadResult> first;
  h.sim->issueRead(h.client(0), makeObjectId(0),
                   [&](const proto::ReadResult& r) { first = r; });
  // The renewal reaches the server at +20 ms and starts the flush; the
  // write below commits at once and queues object 0 behind the batch.
  h.advanceTo(sec(60) + msec(25));
  h.writeAsync(0);
  EXPECT_EQ(vserver(h).currentVersion(makeObjectId(0)), 2);
  h.advanceTo(sec(61));
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->ok);
  EXPECT_EQ(first->version, 2);
  EXPECT_EQ(h.read(0, 0).version, 2);
  EXPECT_EQ(h.metrics().staleReads(), 0);
}

TEST(DelayedInvalTest, DiscardAfterDMovesClientToUnreachable) {
  ProtoHarness h(delayConfig(sec(100)));
  h.read(0, 0);
  h.advanceTo(sec(60));
  h.write(0);  // pending (inactive since t=10, within d=100)
  EXPECT_TRUE(vserver(h).isInactive(h.client(0), kVol));
  h.advanceTo(sec(200));  // now > volExpiry(10) + d(100)
  h.write(0);  // lazy demotion runs when a write touches the holder
  EXPECT_FALSE(vserver(h).isInactive(h.client(0), kVol));
  EXPECT_TRUE(vserver(h).isUnreachable(h.client(0), kVol));
  EXPECT_EQ(vserver(h).pendingMessageCount(h.client(0), kVol), 0u);

  // The returning client is repaired by reconnection, not the batch.
  auto r = h.read(0, 0);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.version, 3);
  EXPECT_EQ(h.metrics().staleReads(), 0);
}

TEST(DelayedInvalTest, WriteNeverWaitsForInactiveClients) {
  ProtoHarness h(delayConfig());
  h.network().setLatency(msec(10));
  h.read(0, 0);
  h.advanceTo(h.scheduler().now() + sec(60));  // volume lease expired
  h.network().failures().isolate(h.client(0));
  auto w = h.write(0);  // client 0 is inactive: no contact, no wait
  EXPECT_EQ(w.delay, 0);
}

// ---------------------------------------------------------------------
// queued bits: every path that empties a pending list must let the
// next write queue again
// ---------------------------------------------------------------------
//
// The server remembers "object o waits on client c's pending list" in a
// bit that lets a write skip a holder already queued. Each test below
// empties client 0's list for object 0 one way, makes client 0 an
// Inactive holder of object 0 again, and requires the next write to
// queue anew: a bit left set would skip the client, leaving it
// un-invalidated.

/// Client 0 holds object 0 under a live object lease with its volume
/// lease expired: a write must queue one invalidation for it, which the
/// next read delivers.
void expectWriteQueuesAgain(ProtoHarness& h, VolumeServer& server) {
  h.write(0);
  EXPECT_TRUE(server.isInactive(h.client(0), kVol));
  EXPECT_EQ(server.pendingMessageCount(h.client(0), kVol), 1u);
  auto r = h.read(0, 0);
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.fetchedData);
  EXPECT_EQ(r.version, server.currentVersion(makeObjectId(0)));
  EXPECT_EQ(h.metrics().staleReads(), 0);
}

TEST(QueuedBitTest, AckedFlushLetsTheNextWriteQueue) {
  ProtoHarness h(delayConfig());
  h.read(0, 0);
  h.read(0, 1);
  h.advanceTo(sec(60));
  h.write(0);
  ASSERT_EQ(vserver(h).pendingMessageCount(h.client(0), kVol), 1u);
  h.read(0, 1);  // volume renewal: flush {0}, ack, grant
  ASSERT_FALSE(vserver(h).isInactive(h.client(0), kVol));
  EXPECT_EQ(h.read(0, 0).version, 2);
  h.advanceTo(sec(120));
  expectWriteQueuesAgain(h, vserver(h));
}

TEST(QueuedBitTest, TimedOutFlushLetsTheNextWriteQueue) {
  ProtoHarness h(delayConfig());
  h.network().setLatency(msec(20));
  h.read(0, 0);
  h.advanceTo(h.scheduler().now() + sec(60));
  h.write(0);
  ASSERT_EQ(vserver(h).pendingMessageCount(h.client(0), kVol), 1u);
  // The flush batch is lost: the session times out into Unreachable.
  h.sim->issueRead(h.client(0), makeObjectId(1), nullptr);
  h.advanceTo(h.scheduler().now() + msec(25));
  h.network().failures().isolate(h.client(0));
  h.advanceTo(h.scheduler().now() + sec(40));
  ASSERT_TRUE(vserver(h).isUnreachable(h.client(0), kVol));
  h.network().failures().deisolate(h.client(0));
  EXPECT_EQ(h.read(0, 0).version, 2);  // reconnection repairs
  ASSERT_FALSE(vserver(h).isUnreachable(h.client(0), kVol));
  h.advanceTo(h.scheduler().now() + sec(60));
  expectWriteQueuesAgain(h, vserver(h));
}

TEST(QueuedBitTest, DiscardPastDLetsTheNextWriteQueue) {
  ProtoHarness h(delayConfig(sec(100)));
  h.read(0, 0);
  h.advanceTo(sec(60));
  h.write(0);
  ASSERT_EQ(vserver(h).pendingMessageCount(h.client(0), kVol), 1u);
  h.advanceTo(sec(200));
  h.write(0);  // past volExpiry + d: the list is discarded
  ASSERT_TRUE(vserver(h).isUnreachable(h.client(0), kVol));
  EXPECT_EQ(h.read(0, 0).version, 3);  // reconnection repairs
  h.advanceTo(sec(260));  // volume expired at 210, within d again
  expectWriteQueuesAgain(h, vserver(h));
}

TEST(QueuedBitTest, ReconnectPastDLetsTheNextWriteQueue) {
  ProtoHarness h(delayConfig(sec(100)));
  h.read(0, 0);
  h.read(0, 1);
  h.advanceTo(sec(60));
  h.write(0);
  ASSERT_EQ(vserver(h).pendingMessageCount(h.client(0), kVol), 1u);
  // The client returns past d with no write in between: its volume
  // request demotes it, dropping the list, and it reconnects.
  h.advanceTo(sec(200));
  h.read(0, 1);
  ASSERT_FALSE(vserver(h).isUnreachable(h.client(0), kVol));
  EXPECT_EQ(h.read(0, 0).version, 2);
  h.advanceTo(sec(260));
  expectWriteQueuesAgain(h, vserver(h));
}

TEST(QueuedBitTest, CrashLetsTheNextWriteQueue) {
  ProtoHarness h(delayConfig());
  h.read(0, 0);
  h.read(0, 1);
  h.advanceTo(sec(60));
  h.write(0);
  ASSERT_EQ(vserver(h).pendingMessageCount(h.client(0), kVol), 1u);
  vserver(h).crashAndReboot();
  EXPECT_EQ(h.read(0, 0).version, 2);  // stale epoch: reconnection
  h.advanceTo(sec(120));
  expectWriteQueuesAgain(h, vserver(h));
}

TEST(QueuedBitTest, MigrationAwayAndBackLetsTheNextWriteQueue) {
  const ProtocolConfig config = delayConfig();
  ProtoHarness h(config, /*numServers=*/2, /*numClients=*/2,
                 /*objectsPerVolume=*/2);
  driver::SimOptions options;
  options.migrations.push_back({sec(100), kVol, h.server(1), true});
  options.migrations.push_back({sec(200), kVol, h.server(0), true});
  h.sim = std::make_unique<driver::Simulation>(h.catalog, config, options);
  h.read(0, 0);
  h.read(0, 1);
  h.advanceTo(sec(60));
  h.write(0);
  ASSERT_EQ(vserver(h).pendingMessageCount(h.client(0), kVol), 1u);
  h.advanceTo(sec(250));  // away at 100, home at 200
  ASSERT_TRUE(vserver(h).ownsVolume(kVol));
  ASSERT_EQ(vserver(h).volumeEpoch(kVol), 3);
  EXPECT_EQ(h.read(0, 0).version, 2);  // stale epoch: reconnection
  h.advanceTo(sec(310));
  expectWriteQueuesAgain(h, vserver(h));
}

// ---------------------------------------------------------------------
// piggyback ablation
// ---------------------------------------------------------------------

TEST(PiggybackTest, ColdReadIsOneRoundTrip) {
  ProtocolConfig config = volumeConfig();
  config.piggybackVolumeLease = true;
  ProtoHarness h(config);
  auto r = h.read(0, 0);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(h.metrics().totalMessages(), 2);  // REQ_OBJ(+vol) / OBJ(+vol)
  EXPECT_TRUE(vclient(h, 0).hasValidVolumeLease(kVol));
}

TEST(PiggybackTest, PureVolumeRefreshStillWorks) {
  ProtocolConfig config = volumeConfig();
  config.piggybackVolumeLease = true;
  ProtoHarness h(config);
  h.read(0, 0);
  h.advanceTo(sec(20));  // volume expired, object lease valid
  auto r = h.read(0, 0);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(h.metrics().totalMessages(), 4);  // bare REQ_VOL/VOL
}

TEST(PiggybackTest, UnreachableClientStillForcedThroughReconnect) {
  ProtocolConfig config =
      volumeConfig(Algorithm::kVolumeLease, hours(10), sec(10));
  config.piggybackVolumeLease = true;
  ProtoHarness h(config);
  h.network().setLatency(msec(10));
  h.read(0, 0);
  h.read(0, 1);
  h.network().failures().isolate(h.client(0));
  h.write(0);
  ASSERT_TRUE(vserver(h).isUnreachable(h.client(0), kVol));
  h.network().failures().deisolate(h.client(0));
  auto r = h.read(0, 0);  // object grant must NOT piggyback the volume
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.version, 2);
  EXPECT_FALSE(vserver(h).isUnreachable(h.client(0), kVol));
  EXPECT_EQ(h.metrics().staleReads(), 0);
}

TEST(PiggybackTest, SameSemanticsFewerMessages) {
  for (bool piggyback : {false, true}) {
    ProtocolConfig config = volumeConfig();
    config.piggybackVolumeLease = piggyback;
    ProtoHarness h(config, 1, 2, 4);
    h.read(0, 0);
    h.read(0, 1);
    h.advanceTo(sec(30));
    h.write(0);
    h.read(0, 0);
    h.read(1, 1);
    h.sim->finish();
    EXPECT_EQ(h.metrics().staleReads(), 0);
    if (piggyback) {
      EXPECT_LT(h.metrics().totalMessages(), 16);
    } else {
      EXPECT_EQ(h.metrics().totalMessages(), 16);
    }
  }
}

// ---------------------------------------------------------------------
// misc
// ---------------------------------------------------------------------

TEST(VolumeMiscTest, DropCacheForcesFullReacquisition) {
  ProtoHarness h(volumeConfig());
  h.read(0, 0);
  vclient(h, 0).dropCache();
  auto r = h.read(0, 0);
  EXPECT_TRUE(r.usedNetwork);
  EXPECT_TRUE(r.fetchedData);
  EXPECT_EQ(h.metrics().staleReads(), 0);
}

TEST(VolumeMiscTest, WritesToDistinctObjectsIndependent) {
  ProtoHarness h(volumeConfig(), 1, 2, 4);
  h.read(0, 0);
  h.read(1, 1);
  auto w0 = h.write(0);
  auto w1 = h.write(1);
  EXPECT_EQ(w0.newVersion, 2);
  EXPECT_EQ(w1.newVersion, 2);
}

TEST(VolumeMiscTest, MultiServerIsolation) {
  // Leases on one server's volume say nothing about another server.
  ProtoHarness h(volumeConfig(), /*numServers=*/2, 1, 2);
  h.read(0, 0);  // server 0's volume
  auto r = h.read(0, 2);  // first object of server 1's volume
  EXPECT_TRUE(r.usedNetwork);
  EXPECT_TRUE(r.fetchedData);
  EXPECT_EQ(h.metrics().node(h.server(0)).messages(), 4);
  EXPECT_EQ(h.metrics().node(h.server(1)).messages(), 4);
}

TEST(VolumeMiscTest, ReadFailsCleanlyWhenServerCrashed) {
  ProtoHarness h(volumeConfig());
  h.network().failures().crash(h.server(0));
  auto r = h.read(0, 0);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(h.metrics().failedReads(), 1);
}

}  // namespace
}  // namespace vlease::core
