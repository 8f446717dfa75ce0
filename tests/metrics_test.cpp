// Tests for the metrics sink, including the exactness of the
// time-weighted state integrator against brute-force sampling.
#include "stats/metrics.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace vlease::stats {
namespace {

constexpr NodeId kA = makeNodeId(0);
constexpr NodeId kB = makeNodeId(1);
constexpr NodeId kC = makeNodeId(2);

TEST(MetricsTest, MessageCountsPerNode) {
  Metrics m;
  m.onMessage(kA, kB, 0, 100, sec(1), true);
  m.onMessage(kB, kA, 1, 50, sec(2), true);
  m.onMessage(kA, kC, 0, 25, sec(3), false);  // dropped

  EXPECT_EQ(m.totalMessages(), 3);
  EXPECT_EQ(m.totalBytes(), 175);
  EXPECT_EQ(m.droppedMessages(), 1);
  EXPECT_EQ(m.messagesOfType(0), 2);
  EXPECT_EQ(m.messagesOfType(1), 1);

  EXPECT_EQ(m.node(kA).sent, 2);
  EXPECT_EQ(m.node(kA).received, 1);
  EXPECT_EQ(m.node(kA).bytesSent, 125);
  EXPECT_EQ(m.node(kB).received, 1);
  // The dropped message never reaches C.
  EXPECT_EQ(m.node(kC).received, 0);
}

TEST(MetricsTest, UnknownNodeIsZero) {
  Metrics m;
  EXPECT_EQ(m.node(makeNodeId(99)).messages(), 0);
}

TEST(MetricsTest, LoadSeriesOnlyForTrackedNodes) {
  Metrics m;
  m.trackLoad(kA);
  m.onMessage(kA, kB, 0, 10, sec(5), true);
  m.onMessage(kB, kA, 0, 10, sec(5) + usec(10), true);
  m.onMessage(kB, kC, 0, 10, sec(5), true);  // untracked pair

  EXPECT_TRUE(m.hasLoadSeries(kA));
  EXPECT_FALSE(m.hasLoadSeries(kB));
  EXPECT_EQ(m.loadSeries(kA).at(5), 2);  // one sent + one received
  EXPECT_EQ(m.loadSeries(kB).totalCount(), 0);
}

TEST(MetricsTest, DroppedMessageStillLoadsSender) {
  Metrics m;
  m.trackLoad(kA);
  m.trackLoad(kB);
  m.onMessage(kA, kB, 0, 10, sec(1), false);
  EXPECT_EQ(m.loadSeries(kA).at(1), 1);
  EXPECT_EQ(m.loadSeries(kB).at(1), 0);
}

TEST(MetricsTest, ReadAccounting) {
  Metrics m;
  m.onRead(true, false);
  m.onRead(false, false);
  m.onRead(false, true);
  m.onReadFailed();
  EXPECT_EQ(m.reads(), 3);
  EXPECT_EQ(m.cacheLocalReads(), 2);
  EXPECT_EQ(m.staleReads(), 1);
  EXPECT_EQ(m.failedReads(), 1);
  EXPECT_NEAR(m.staleFraction(), 1.0 / 3, 1e-12);
}

TEST(MetricsTest, WriteAccounting) {
  Metrics m;
  m.onWrite(0, false);
  m.onWrite(sec(5), false);
  m.onWrite(sec(100), true);  // blocked: excluded from delay summary
  EXPECT_EQ(m.writes(), 3);
  EXPECT_EQ(m.delayedWrites(), 1);
  EXPECT_EQ(m.blockedWrites(), 1);
  EXPECT_EQ(m.writeDelay().count(), 2);
  EXPECT_DOUBLE_EQ(m.writeDelay().max(), 5.0);
}

TEST(MetricsTest, NodesByTrafficOrdersDescending) {
  Metrics m;
  for (int i = 0; i < 5; ++i) m.onMessage(kB, kC, 0, 1, 0, true);
  m.onMessage(kA, kC, 0, 1, 0, true);
  auto order = m.nodesByTraffic();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], kC);  // 6 received
  EXPECT_EQ(order[1], kB);  // 5 sent
  EXPECT_EQ(order[2], kA);  // 1 sent
}

TEST(MetricsTest, AvgStateBytesDividesByHorizon) {
  Metrics m;
  m.addStateIntegral(kA, 16.0 * static_cast<double>(sec(50)));
  m.setHorizon(sec(100));
  EXPECT_NEAR(m.avgStateBytes(kA), 8.0, 1e-9);
  EXPECT_EQ(m.avgStateBytes(kB), 0.0);
}

// ---- accrueRecord ----

TEST(AccrueRecordTest, LiveRecordAccruesToNow) {
  Metrics m;
  SimTime last = sec(10);
  accrueRecord(m, kA, last, /*expiry=*/sec(100), /*now=*/sec(30));
  m.setHorizon(sec(1));  // integral / horizon; horizon=1s => bytes*seconds
  EXPECT_NEAR(m.avgStateBytes(kA), 16.0 * 20.0, 1e-6);
  EXPECT_EQ(last, sec(30));
}

TEST(AccrueRecordTest, ExpiredRecordStopsAtExpiry) {
  Metrics m;
  SimTime last = sec(10);
  accrueRecord(m, kA, last, /*expiry=*/sec(15), /*now=*/sec(30));
  m.setHorizon(sec(1));
  EXPECT_NEAR(m.avgStateBytes(kA), 16.0 * 5.0, 1e-6);
  EXPECT_EQ(last, sec(30));
}

TEST(AccrueRecordTest, SecondAccrualAfterExpiryAddsNothing) {
  Metrics m;
  SimTime last = sec(10);
  accrueRecord(m, kA, last, sec(15), sec(30));
  accrueRecord(m, kA, last, sec(15), sec(40));  // already past expiry
  m.setHorizon(sec(1));
  EXPECT_NEAR(m.avgStateBytes(kA), 16.0 * 5.0, 1e-6);
}

TEST(AccrueRecordTest, RenewalPattern) {
  // Grant at 0 (expiry 10), renew at 8 (expiry 18), final sweep at 30:
  // live during [0, 18] => 18 s of state.
  Metrics m;
  SimTime last = 0;
  SimTime expiry = sec(10);
  accrueRecord(m, kA, last, expiry, sec(8));  // about to renew
  expiry = sec(18);
  accrueRecord(m, kA, last, expiry, sec(30));  // final sweep
  m.setHorizon(sec(1));
  EXPECT_NEAR(m.avgStateBytes(kA), 16.0 * 18.0, 1e-6);
}

/// Property check: random touch sequences == brute-force per-microsecond
/// (well, per-millisecond) sampling of record liveness.
TEST(AccrueRecordTest, MatchesBruteForceSampling) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    Metrics m;
    // One record with random renewal times and lease lengths.
    const SimTime horizon = msec(2000);
    SimTime last = 0;
    SimTime expiry = 0;
    std::vector<std::pair<SimTime, SimTime>> liveIntervals;  // [grant, expiry)
    SimTime t = 0;
    SimTime prevGrant = 0;
    while (t < horizon) {
      // Renew: new expiry between 1 and 300 ms out.
      accrueRecord(m, kA, last, expiry, t);
      prevGrant = t;
      expiry = t + msec(1 + static_cast<std::int64_t>(rng.nextBelow(300)));
      liveIntervals.emplace_back(prevGrant, expiry);
      t += msec(1 + static_cast<std::int64_t>(rng.nextBelow(400)));
    }
    accrueRecord(m, kA, last, expiry, horizon);  // final sweep

    // Brute force: at each millisecond the record is live iff the most
    // recent renewal's expiry lies in the future (a renewal REPLACES the
    // expiry; it does not stack with earlier grants).
    double bruteMicros = 0;
    for (SimTime tick = 0; tick < horizon; tick += msec(1)) {
      SimTime effectiveExpiry = kSimTimeMin;
      for (auto [g, e] : liveIntervals) {
        if (g <= tick) effectiveExpiry = e;  // intervals are in grant order
      }
      if (tick < effectiveExpiry) bruteMicros += static_cast<double>(msec(1));
    }
    m.setHorizon(1);
    EXPECT_NEAR(m.avgStateBytes(kA), 16.0 * bruteMicros,
                16.0 * static_cast<double>(msec(2)))
        << "trial " << trial;
  }
}

TEST(MetricsTest, AccrueRecordClampsExpiryBeforeLastAccounted) {
  // A renewal can shorten a record's expiry below the last accounting
  // point (skewed re-grant). The live window is then empty: the
  // integral must not go negative, and lastAccounted must still
  // advance to now so later accruals start from the right instant.
  Metrics m;
  SimTime last = sec(10);
  accrueRecord(m, kA, last, /*expiry=*/sec(4), /*now=*/sec(12));
  m.setHorizon(1);
  EXPECT_DOUBLE_EQ(m.avgStateBytes(kA), 0.0);
  EXPECT_EQ(last, sec(12));

  // A subsequent well-formed accrual is unaffected by the clamp.
  accrueRecord(m, kA, last, /*expiry=*/sec(20), /*now=*/sec(15), 16);
  EXPECT_DOUBLE_EQ(m.avgStateBytes(kA),
                   16.0 * static_cast<double>(sec(3)));
  EXPECT_EQ(last, sec(15));
}

}  // namespace
}  // namespace vlease::stats
