// Hand-computed validations of the Figs. 6-7 metric: time-averaged
// server consistency state (16 B per lease / callback / pending-message
// record) under the volume algorithms, including the delayed-mode
// pending lists and the d-bounded accrual.
#include <gtest/gtest.h>

#include "core/volume_server.h"
#include "proto_fixture.h"

namespace vlease {
namespace {

using proto::Algorithm;
using proto::ProtocolConfig;
using testing::ProtoHarness;

constexpr double kB = 16.0;  // bytes per record

ProtocolConfig cfg(Algorithm a, std::int64_t tSec, std::int64_t tvSec,
                   SimDuration d = kNever) {
  ProtocolConfig config;
  config.algorithm = a;
  config.objectTimeout = sec(tSec);
  config.volumeTimeout = sec(tvSec);
  config.inactiveDiscard = d;
  return config;
}

double avgState(ProtoHarness& h, SimTime horizon) {
  h.sim->protocol().finalizeAccounting(horizon);
  h.metrics().setHorizon(horizon);
  return h.metrics().avgStateBytes(h.server());
}

TEST(StateAccountingTest, SingleReadVolumePlusObjectLease) {
  // One read at t=0: object lease 16 B x 1000 s, volume lease 16 B x
  // 10 s. Average over a 2000 s horizon.
  ProtoHarness h(cfg(Algorithm::kVolumeLease, 1000, 10));
  h.read(0, 0);
  h.advanceTo(sec(2000));
  const double expected = (kB * 1000 + kB * 10) / 2000.0;
  EXPECT_NEAR(avgState(h, sec(2000)), expected, 0.01);
}

TEST(StateAccountingTest, AckedInvalidationTruncatesObjectLease) {
  // Lease granted at 0 for 1000 s, but the write at t=100 invalidates
  // and the ack removes the record: only 100 s of object-lease state.
  ProtoHarness h(cfg(Algorithm::kVolumeLease, 1000, 10));
  h.read(0, 0);
  h.advanceTo(sec(100));
  h.write(0);
  h.advanceTo(sec(2000));
  const double expected = (kB * 100 + kB * 10) / 2000.0;
  EXPECT_NEAR(avgState(h, sec(2000)), expected, 0.01);
}

TEST(StateAccountingTest, RenewalExtendsNotStacks) {
  // Volume lease renewed at t=600 (object lease still valid): volume
  // state covers [0,10] and [600,610], not double-counted.
  ProtoHarness h(cfg(Algorithm::kVolumeLease, 1000, 10));
  h.read(0, 0);
  h.advanceTo(sec(600));
  h.read(0, 0);  // volume renewal only
  h.advanceTo(sec(2000));
  const double expected = (kB * 1000 + kB * (10 + 10)) / 2000.0;
  EXPECT_NEAR(avgState(h, sec(2000)), expected, 0.01);
}

TEST(StateAccountingTest, PendingMessageChargedUntilFlush) {
  // Delayed mode: client reads at 0 (volume dies at 10), write at 100
  // queues one pending message, client returns at 400 -> the pending
  // record lived 300 s. Object lease runs its full 1000 s (renewed at
  // flush? no -- the batch only invalidates; the re-read then takes a
  // fresh 1000 s lease from t=400).
  ProtoHarness h(cfg(Algorithm::kVolumeDelayedInval, 1000, 10));
  h.read(0, 0);
  h.advanceTo(sec(100));
  h.write(0);
  EXPECT_EQ(dynamic_cast<core::VolumeServer&>(h.serverNode(0))
                .pendingMessageCount(h.client(0), makeVolumeId(0)),
            1u);
  h.advanceTo(sec(400));
  h.read(0, 0);  // flush + volume grant + object re-fetch
  h.advanceTo(sec(2000));
  // Object lease: the server keeps ONE record per (client, object); the
  // re-fetch at t=400 RENEWS it, so it is live over [0,400) u [400,1400)
  // = 1400 s (the un-elapsed tail of the first grant is not stacked).
  // Volume leases: [0,10) + [400,410). Pending message: [100,400).
  const double expected = (kB * 1400 + kB * (10 + 10) + kB * 300) / 2000.0;
  EXPECT_NEAR(avgState(h, sec(2000)), expected, 0.01);
}

TEST(StateAccountingTest, RepeatedWritesChargeOnePendingRecord) {
  // As above, with a second write to the same object at t=200: the
  // pending list is a set, so the one record from t=100 stands and is
  // charged over [100,400) -- not a second record over [200,400).
  ProtoHarness h(cfg(Algorithm::kVolumeDelayedInval, 1000, 10));
  h.read(0, 0);
  h.advanceTo(sec(100));
  h.write(0);
  h.advanceTo(sec(200));
  h.write(0);
  EXPECT_EQ(dynamic_cast<core::VolumeServer&>(h.serverNode(0))
                .pendingMessageCount(h.client(0), makeVolumeId(0)),
            1u);
  h.advanceTo(sec(400));
  h.read(0, 0);  // flush + volume grant + object re-fetch
  h.advanceTo(sec(2000));
  const double expected = (kB * 1400 + kB * (10 + 10) + kB * 300) / 2000.0;
  EXPECT_NEAR(avgState(h, sec(2000)), expected, 0.01);
}

TEST(StateAccountingTest, DiscardedPendingChargedOnlyUntilD) {
  // d = 50: client inactive since t=10 (volume expiry); a write at 100
  // queues a pending message, but the accrual horizon for that record is
  // volExpiredAt + d = 60... the message was created at 100 > 60, so it
  // accrues ZERO state and the client is demoted on the next touch.
  ProtoHarness h(cfg(Algorithm::kVolumeDelayedInval, 1000, 10, sec(50)));
  h.read(0, 0);
  h.advanceTo(sec(100));
  h.write(0);  // t=100 > 10+50: demoted straight to Unreachable
  auto& server = dynamic_cast<core::VolumeServer&>(h.serverNode(0));
  EXPECT_TRUE(server.isUnreachable(h.client(0), makeVolumeId(0)));
  h.advanceTo(sec(2000));
  const double expected = (kB * 1000 + kB * 10) / 2000.0;  // leases only
  EXPECT_NEAR(avgState(h, sec(2000)), expected, 0.01);
}

TEST(StateAccountingTest, CallbackRecordsAccrueForever) {
  ProtoHarness h(cfg(Algorithm::kCallback, 0, 0));
  h.read(0, 0);
  h.read(1, 0);
  h.advanceTo(sec(1000));
  // Two callback records, never expiring: 2 x 16 B the whole horizon.
  EXPECT_NEAR(avgState(h, sec(1000)), 2 * kB, 0.01);
}

TEST(StateAccountingTest, CrashZeroesLiveRecords) {
  // Records accrue only until the crash wipes them.
  ProtoHarness h(cfg(Algorithm::kVolumeLease, 1000, 1000));
  h.read(0, 0);
  h.advanceTo(sec(200));
  dynamic_cast<core::VolumeServer&>(h.serverNode(0)).crashAndReboot();
  h.advanceTo(sec(2000));
  const double expected = (kB * 200 + kB * 200) / 2000.0;
  EXPECT_NEAR(avgState(h, sec(2000)), expected, 0.01);
}

}  // namespace
}  // namespace vlease
