// Property-based tests (parameterized sweeps) over the paper's central
// claims:
//
//   P1. STRONG CONSISTENCY: the server-driven algorithms (PollEachRead,
//       Lease, VolumeLease, VolumeDelayedInval) never serve a stale
//       read -- under randomized workloads with client partitions,
//       message loss, client cache drops, and server crashes.
//   P2. BOUNDED WRITE DELAY: no write waits longer than the algorithm's
//       ack-wait bound (t for Lease, min(t, t_v) for the volume
//       algorithms, each floored by msgTimeout), even under failures.
//   P3. LIVENESS: after all failures heal, reads succeed again and
//       return the current version.
//
// Each property runs across algorithms x seeds via TEST_P.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "driver/consistency_oracle.h"
#include "driver/simulation.h"
#include "driver/workloads.h"
#include "net/fault_plan.h"
#include "trace/catalog.h"
#include "util/rng.h"

namespace vlease {
namespace {

struct ChaosParams {
  proto::Algorithm algorithm;
  std::uint64_t seed;
  bool serverCrashes;
  double lossProbability;
};

std::string chaosName(const ::testing::TestParamInfo<ChaosParams>& info) {
  std::string name = proto::algorithmName(info.param.algorithm);
  name += "_seed" + std::to_string(info.param.seed);
  if (info.param.serverCrashes) name += "_crash";
  if (info.param.lossProbability > 0) name += "_lossy";
  return name;
}

/// Randomized closed-loop driver: clients read, servers write, links
/// fail and heal, servers crash and reboot -- all in virtual time with
/// 20 ms WAN latency.
class ChaosTest : public ::testing::TestWithParam<ChaosParams> {
 protected:
  static constexpr std::uint32_t kServers = 2;
  static constexpr std::uint32_t kClients = 4;
  static constexpr std::uint32_t kObjectsPerVolume = 5;

  void runChaos() {
    const ChaosParams& params = GetParam();
    trace::Catalog catalog(kServers, kClients);
    for (std::uint32_t s = 0; s < kServers; ++s) {
      VolumeId vol = catalog.addVolume(catalog.serverNode(s));
      for (std::uint32_t i = 0; i < kObjectsPerVolume; ++i) {
        catalog.addObject(vol, 512);
      }
    }

    proto::ProtocolConfig config;
    config.algorithm = params.algorithm;
    config.objectTimeout = sec(300);
    config.volumeTimeout = sec(20);
    config.msgTimeout = sec(5);
    config.readTimeout = sec(30);

    driver::Simulation sim(catalog, config);
    sim.network().setLatency(msec(20));
    sim.network().failures().setLossProbability(params.lossProbability);

    Rng rng(params.seed);
    std::vector<bool> isolated(kClients, false);
    SimTime t = 0;
    const int kOps = 600;
    for (int op = 0; op < kOps; ++op) {
      t += static_cast<SimDuration>(rng.nextExponential(
          static_cast<double>(sec(5))));
      sim.drainTo(t);
      const auto obj = makeObjectId(rng.nextBelow(catalog.numObjects()));
      switch (rng.nextBelow(10)) {
        case 0:
        case 1:
        case 2:
        case 3:
        case 4:
        case 5:  // read (60%)
          sim.issueRead(catalog.clientNode(static_cast<std::uint32_t>(
                            rng.nextBelow(kClients))),
                        obj);
          break;
        case 6:
        case 7:  // write (20%)
          sim.issueWrite(obj);
          break;
        case 8: {  // toggle a client partition (10%)
          const auto c = static_cast<std::uint32_t>(rng.nextBelow(kClients));
          if (isolated[c]) {
            sim.network().failures().deisolate(catalog.clientNode(c));
          } else {
            sim.network().failures().isolate(catalog.clientNode(c));
          }
          isolated[c] = !isolated[c];
          break;
        }
        case 9:  // server crash or client cache drop (10%)
          if (params.serverCrashes && rng.nextBool(0.5)) {
            sim.protocol()
                .servers[rng.nextBelow(kServers)]
                ->crashAndReboot();
          } else {
            sim.protocol()
                .clients[rng.nextBelow(kClients)]
                ->dropCache();
          }
          break;
      }
    }

    // P3 setup: heal everything, then give every client a fresh read of
    // every object.
    for (std::uint32_t c = 0; c < kClients; ++c) {
      if (isolated[c]) sim.network().failures().deisolate(catalog.clientNode(c));
    }
    sim.network().failures().setLossProbability(0.0);
    t += sec(600);  // let timers, leases, and recovery windows drain
    sim.drainTo(t);

    std::int64_t finalReads = 0, finalOk = 0;
    for (std::uint32_t c = 0; c < kClients; ++c) {
      for (std::uint64_t o = 0; o < catalog.numObjects(); ++o) {
        ++finalReads;
        sim.issueRead(catalog.clientNode(c), makeObjectId(o),
                      [&](const proto::ReadResult& r) {
                        if (r.ok) ++finalOk;
                      });
        t += sec(2);
        sim.drainTo(t);
      }
    }
    sim.finish();

    // P1: strong consistency.
    EXPECT_EQ(sim.metrics().staleReads(), 0)
        << proto::algorithmName(params.algorithm) << " served stale data";

    // P2: bounded write delay. Queued same-object writes can stack one
    // extra bound; crash recovery adds one object-lease drain.
    double bound = toSeconds(config.objectTimeout);
    if (params.algorithm == proto::Algorithm::kVolumeLease ||
        params.algorithm == proto::Algorithm::kVolumeDelayedInval) {
      bound = std::min(toSeconds(config.objectTimeout),
                       toSeconds(config.volumeTimeout));
      if (params.serverCrashes) bound += toSeconds(config.volumeTimeout);
    } else if (params.serverCrashes) {
      bound += toSeconds(config.objectTimeout);
    }
    const double slack = 2 * toSeconds(config.msgTimeout) + 1;
    EXPECT_LE(sim.metrics().writeDelay().max(), 2 * bound + slack);
    if (!params.serverCrashes) {
      // Writes in flight when a server crashes are reported as blocked
      // (they die with the server); otherwise nothing may block.
      EXPECT_EQ(sim.metrics().blockedWrites(), 0);
    }

    // P3: liveness after healing.
    EXPECT_EQ(finalOk, finalReads)
        << "reads failed after all failures healed";
  }
};

TEST_P(ChaosTest, StrongConsistencyBoundedDelayLiveness) { runChaos(); }

std::vector<ChaosParams> chaosMatrix() {
  std::vector<ChaosParams> params;
  const proto::Algorithm kStrong[] = {
      proto::Algorithm::kPollEachRead,
      proto::Algorithm::kLease,
      proto::Algorithm::kVolumeLease,
      proto::Algorithm::kVolumeDelayedInval,
  };
  for (proto::Algorithm algorithm : kStrong) {
    for (std::uint64_t seed : {11ull, 22ull, 33ull}) {
      params.push_back({algorithm, seed, /*serverCrashes=*/false,
                        /*lossProbability=*/0.0});
    }
    // Crashes only for the algorithms with a recovery story.
    if (algorithm != proto::Algorithm::kPollEachRead) {
      params.push_back({algorithm, 44, true, 0.0});
    }
    params.push_back({algorithm, 55, false, 0.05});
  }
  // Volume algorithms with small d and with crashes + loss combined.
  params.push_back(
      {proto::Algorithm::kVolumeLease, 66, true, 0.05});
  params.push_back(
      {proto::Algorithm::kVolumeDelayedInval, 77, true, 0.05});
  return params;
}

INSTANTIATE_TEST_SUITE_P(Chaos, ChaosTest,
                         ::testing::ValuesIn(chaosMatrix()), chaosName);

/// Delayed Invalidations with a small d must ALSO stay consistent: the
/// discard path demotes to Unreachable, never silently forgets.
class SmallDChaosTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SmallDChaosTest, DiscardPathStaysConsistent) {
  trace::Catalog catalog(1, 3);
  VolumeId vol = catalog.addVolume(catalog.serverNode(0));
  for (int i = 0; i < 4; ++i) catalog.addObject(vol, 512);

  proto::ProtocolConfig config;
  config.algorithm = proto::Algorithm::kVolumeDelayedInval;
  config.objectTimeout = sec(10'000);
  config.volumeTimeout = sec(10);
  config.inactiveDiscard = sec(30);  // aggressive discard
  config.msgTimeout = sec(2);

  driver::Simulation sim(catalog, config);
  Rng rng(GetParam());
  SimTime t = 0;
  for (int op = 0; op < 400; ++op) {
    t += static_cast<SimDuration>(
        rng.nextExponential(static_cast<double>(sec(15))));
    sim.drainTo(t);
    const auto obj = makeObjectId(rng.nextBelow(catalog.numObjects()));
    if (rng.nextBool(0.35)) {
      sim.issueWrite(obj);
    } else {
      sim.issueRead(
          catalog.clientNode(static_cast<std::uint32_t>(rng.nextBelow(3))),
          obj);
    }
  }
  sim.finish();
  EXPECT_EQ(sim.metrics().staleReads(), 0);
  EXPECT_EQ(sim.metrics().failedReads(), 0);
  EXPECT_GT(sim.metrics().reads(), 200);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmallDChaosTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

/// Weak algorithms really are weak (the tests would be vacuous if the
/// oracle could never fire): Poll with a window and BestEffort under a
/// partition DO serve stale data.
TEST(WeaknessWitnessTest, PollServesStaleInsideWindow) {
  trace::Catalog catalog(1, 1);
  VolumeId vol = catalog.addVolume(catalog.serverNode(0));
  catalog.addObject(vol, 512);
  proto::ProtocolConfig config;
  config.algorithm = proto::Algorithm::kPoll;
  config.objectTimeout = sec(1000);
  driver::Simulation sim(catalog, config);
  sim.issueRead(catalog.clientNode(0), makeObjectId(0));
  sim.drainTo(sec(1));
  sim.issueWrite(makeObjectId(0));
  sim.drainTo(sec(2));
  sim.issueRead(catalog.clientNode(0), makeObjectId(0));
  sim.finish();
  EXPECT_EQ(sim.metrics().staleReads(), 1);
}

// ---------------------------------------------------------------------
// Fault-plan chaos with the online ConsistencyOracle as judge: a seeded
// FaultPlan (crashes, isolations, partitions, loss windows) replays
// against each server-invalidation algorithm; the oracle audits every
// read, write, and the whole cache state, and must find NOTHING.
// ---------------------------------------------------------------------

struct OraclePlanParams {
  proto::Algorithm algorithm;
  std::uint64_t seed;
};

std::string oraclePlanName(
    const ::testing::TestParamInfo<OraclePlanParams>& info) {
  return std::string(proto::algorithmName(info.param.algorithm)) + "_seed" +
         std::to_string(info.param.seed);
}

class OraclePlanChaosTest : public ::testing::TestWithParam<OraclePlanParams> {
 protected:
  static driver::Workload makeWorkload() {
    driver::ChaosWorkloadOptions options;
    options.duration = sec(900);
    return driver::buildChaosWorkload(options);
  }

  static driver::SimOptions makeSimOptions(const driver::Workload& workload,
                                           std::uint64_t seed) {
    std::vector<NodeId> clients, servers;
    for (std::uint32_t c = 0; c < workload.catalog.numClients(); ++c) {
      clients.push_back(workload.catalog.clientNode(c));
    }
    for (std::uint32_t s = 0; s < workload.catalog.numServers(); ++s) {
      servers.push_back(workload.catalog.serverNode(s));
    }
    Rng planRng(seed);
    net::FaultPlan::RandomOptions planOptions;
    planOptions.intensity = 0.9;
    planOptions.horizon = sec(900);
    planOptions.maxLossProbability = 0.2;
    driver::SimOptions options;
    options.networkLatency = msec(20);
    options.faultPlan = std::make_shared<const net::FaultPlan>(
        net::FaultPlan::random(planRng, planOptions, clients, servers));
    options.enableOracle = true;
    options.oracleAuditPeriod = sec(10);
    return options;
  }

  static proto::ProtocolConfig makeConfig(proto::Algorithm algorithm) {
    proto::ProtocolConfig config;
    config.algorithm = algorithm;
    config.objectTimeout = sec(120);
    config.volumeTimeout = sec(30);
    config.msgTimeout = sec(5);
    config.readTimeout = sec(15);
    return config;
  }
};

TEST_P(OraclePlanChaosTest, OracleFindsNoViolations) {
  const OraclePlanParams& params = GetParam();
  const driver::Workload workload = makeWorkload();
  driver::Simulation sim(workload.catalog, makeConfig(params.algorithm),
                         makeSimOptions(workload, params.seed));
  stats::Metrics& m = sim.run(workload.events);
  ASSERT_NE(sim.oracle(), nullptr);
  EXPECT_EQ(m.oracleViolations(), 0) << sim.oracle()->summary();
  EXPECT_GT(m.reads(), 0);
  EXPECT_GT(m.writes(), 0);
}

std::vector<OraclePlanParams> oraclePlanGrid() {
  std::vector<OraclePlanParams> params;
  for (proto::Algorithm algorithm :
       {proto::Algorithm::kCallback, proto::Algorithm::kLease,
        proto::Algorithm::kVolumeLease,
        proto::Algorithm::kVolumeDelayedInval}) {
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
      params.push_back({algorithm, seed});
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(PlanChaos, OraclePlanChaosTest,
                         ::testing::ValuesIn(oraclePlanGrid()),
                         oraclePlanName);

// The suite above would be vacuous if the oracle could never fire:
// fault-inject clients that ACK invalidations without applying them
// (ProtocolConfig::faultInjectIgnoreInvalidations) and the oracle must
// catch the resulting stale state -- even with NO network faults. The
// counts are exact per kind: stale reads alone would make the total
// positive, so the cache-inconsistency count is what proves the audit
// visits every entry a client would serve.
TEST_F(OraclePlanChaosTest, BrokenInvalidationIsCaught) {
  const struct {
    proto::Algorithm algorithm;
    std::int64_t staleReads;
    std::int64_t cacheInconsistencies;
  } cases[] = {
      {proto::Algorithm::kLease, 1029, 47},
      {proto::Algorithm::kVolumeLease, 1029, 47},
      {proto::Algorithm::kVolumeDelayedInval, 1029, 47},
      {proto::Algorithm::kCallback, 1663, 48},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(proto::algorithmName(c.algorithm));
    const driver::Workload workload = makeWorkload();
    proto::ProtocolConfig config = makeConfig(c.algorithm);
    config.faultInjectIgnoreInvalidations = true;
    driver::SimOptions options;
    options.networkLatency = msec(20);
    options.enableOracle = true;
    options.oracleAuditPeriod = sec(10);
    driver::Simulation sim(workload.catalog, config, options);
    stats::Metrics& m = sim.run(workload.events);
    ASSERT_NE(sim.oracle(), nullptr);
    const driver::ConsistencyOracle& oracle = *sim.oracle();
    EXPECT_EQ(oracle.violations(driver::ViolationKind::kStaleRead),
              c.staleReads);
    EXPECT_EQ(oracle.violations(driver::ViolationKind::kCacheInconsistency),
              c.cacheInconsistencies);
    EXPECT_EQ(m.oracleViolations(), c.staleReads + c.cacheInconsistencies)
        << oracle.summary();
  }
}

// ---------------------------------------------------------------------
// Poll-window bounding: the oracle does not exempt the Poll family from
// staleness checks -- it bounds them. A read of a superseded version is
// contractual until window + validationLatency + skewBound + slack past
// the supersede, and a violation after.
// ---------------------------------------------------------------------

struct PollWindowParams {
  proto::Algorithm algorithm;
  /// The window the oracle must derive from the config below.
  SimDuration window;
};

std::string pollWindowName(
    const ::testing::TestParamInfo<PollWindowParams>& info) {
  return proto::algorithmName(info.param.algorithm);
}

class PollWindowOracleTest : public ::testing::TestWithParam<PollWindowParams> {
 protected:
  static constexpr SimDuration kValidationLatency = msec(40);
  static constexpr SimDuration kSlack = sec(1);

  static proto::ProtocolConfig makeConfig(proto::Algorithm algorithm) {
    proto::ProtocolConfig config;
    config.algorithm = algorithm;
    config.objectTimeout = sec(10);
    config.adaptiveMaxTtl = sec(25);
    return config;
  }
};

/// Direct-drive control: supersede version 1 at a known instant, then
/// serve it just inside and just past the allowance.
TEST_P(PollWindowOracleTest, BoundsStalenessByWindow) {
  const PollWindowParams& params = GetParam();
  trace::Catalog catalog(1, 1);
  VolumeId vol = catalog.addVolume(catalog.serverNode(0));
  catalog.addObject(vol, 512);
  const ObjectId obj = makeObjectId(0);
  const NodeId client = catalog.clientNode(0);

  stats::Metrics metrics;
  driver::ConsistencyOracle::Options options;
  options.validationLatency = kValidationLatency;
  options.slack = kSlack;
  driver::ConsistencyOracle oracle(catalog, makeConfig(params.algorithm),
                                   metrics, options);

  const SimTime supersededAt = sec(1);
  oracle.onWriteIssued(obj, supersededAt);
  oracle.onWriteComplete(obj, proto::WriteResult{0, false, 2}, supersededAt);

  proto::ReadResult staleRead;
  staleRead.ok = true;
  staleRead.version = 1;
  const SimTime deadline =
      supersededAt + params.window + kValidationLatency + kSlack;
  oracle.onRead(client, obj, staleRead, 2, deadline);
  EXPECT_EQ(oracle.violations(), 0) << oracle.summary();
  oracle.onRead(client, obj, staleRead, 2, deadline + 1);
  EXPECT_EQ(oracle.violations(driver::ViolationKind::kStaleRead), 1);
  // Fresh reads never flag, however late.
  proto::ReadResult freshRead;
  freshRead.ok = true;
  freshRead.version = 2;
  oracle.onRead(client, obj, freshRead, 2, deadline + sec(1000));
  EXPECT_EQ(oracle.violations(), 1) << oracle.summary();
}

INSTANTIATE_TEST_SUITE_P(
    Windows, PollWindowOracleTest,
    ::testing::Values(
        PollWindowParams{proto::Algorithm::kPollEachRead, 0},
        PollWindowParams{proto::Algorithm::kPoll, sec(10)},
        PollWindowParams{proto::Algorithm::kPollAdaptive, sec(25)}),
    pollWindowName);

/// BestEffortLease keeps its full exemption: arbitrarily old staleness
/// never flags (the paper's point is exactly that it is unbounded).
TEST(PollWindowOracleTest2, BestEffortStaysExempt) {
  trace::Catalog catalog(1, 1);
  VolumeId vol = catalog.addVolume(catalog.serverNode(0));
  catalog.addObject(vol, 512);
  const ObjectId obj = makeObjectId(0);
  proto::ProtocolConfig config;
  config.algorithm = proto::Algorithm::kBestEffortLease;
  stats::Metrics metrics;
  driver::ConsistencyOracle oracle(catalog, config, metrics);
  oracle.onWriteIssued(obj, sec(1));
  oracle.onWriteComplete(obj, proto::WriteResult{0, false, 2}, sec(1));
  proto::ReadResult staleRead;
  staleRead.ok = true;
  staleRead.version = 1;
  oracle.onRead(catalog.clientNode(0), obj, staleRead, 2, sec(100'000));
  EXPECT_EQ(oracle.violations(), 0) << oracle.summary();
}

/// End-to-end negative control: a clean Poll run serves stale data
/// inside its window (the weakness witness above) and the oracle,
/// now auditing Poll, still reports zero violations.
TEST(PollWindowOracleTest2, CleanPollRunHasNoViolations) {
  for (proto::Algorithm algorithm :
       {proto::Algorithm::kPollEachRead, proto::Algorithm::kPoll,
        proto::Algorithm::kPollAdaptive}) {
    trace::Catalog catalog(1, 2);
    VolumeId vol = catalog.addVolume(catalog.serverNode(0));
    catalog.addObject(vol, 512);
    proto::ProtocolConfig config;
    config.algorithm = algorithm;
    config.objectTimeout = sec(30);
    driver::SimOptions options;
    options.networkLatency = msec(20);
    options.enableOracle = true;
    options.oracleAuditPeriod = sec(5);
    driver::Simulation sim(catalog, config, options);
    auto now = [&] { return sim.scheduler().now(); };
    for (int round = 0; round < 20; ++round) {
      sim.issueRead(catalog.clientNode(round % 2), makeObjectId(0));
      sim.drainTo(now() + sec(2));
      if (round % 3 == 0) sim.issueWrite(makeObjectId(0));
      sim.drainTo(now() + sec(2));
    }
    sim.finish();
    EXPECT_GT(sim.metrics().reads(), 0);
    EXPECT_EQ(sim.metrics().oracleViolations(), 0)
        << proto::algorithmName(algorithm) << ": "
        << sim.oracle()->summary();
  }
}

TEST(WeaknessWitnessTest, BestEffortServesStaleWhenPartitioned) {
  trace::Catalog catalog(1, 1);
  VolumeId vol = catalog.addVolume(catalog.serverNode(0));
  catalog.addObject(vol, 512);
  proto::ProtocolConfig config;
  config.algorithm = proto::Algorithm::kBestEffortLease;
  config.objectTimeout = sec(1000);
  driver::Simulation sim(catalog, config);
  const NodeId client = catalog.clientNode(0);
  sim.issueRead(client, makeObjectId(0));
  sim.drainTo(sec(1));
  sim.network().failures().isolate(client);
  sim.issueWrite(makeObjectId(0));
  sim.drainTo(sec(2));
  sim.network().failures().deisolate(client);
  sim.issueRead(client, makeObjectId(0));
  sim.finish();
  EXPECT_EQ(sim.metrics().staleReads(), 1);
}

}  // namespace
}  // namespace vlease
