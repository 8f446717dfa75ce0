// Federation layer: volume -> server routing plus online migration.
//
// The tentpole invariant under test: an online migration --
// migrateOut() at the drained source, a routing-table update, and
// adoptVolume() with an epoch bump at the destination -- is invisible
// to the ConsistencyOracle, even when the handoff lands inside fault
// windows (crashes, partitions, loss, skew). The epoch bump is what
// makes it safe: every pre-migration holder fails the epoch check at
// the new owner and reconnects via MUST_RENEW_ALL. The negative
// control skips exactly that bump and must produce stale reads.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "core/volume_server.h"
#include "driver/consistency_oracle.h"
#include "driver/simulation.h"
#include "driver/workloads.h"
#include "net/fault_plan.h"
#include "util/rng.h"

namespace vlease {
namespace {

proto::ProtocolConfig chaosConfig(proto::Algorithm algorithm) {
  proto::ProtocolConfig config;
  config.algorithm = algorithm;
  config.objectTimeout = sec(120);
  config.volumeTimeout = sec(30);
  config.msgTimeout = sec(5);
  config.readTimeout = sec(15);
  return config;
}

std::shared_ptr<const net::FaultPlan> chaosPlan(
    std::uint64_t seed, double intensity, SimDuration horizon,
    const trace::Catalog& catalog) {
  std::vector<NodeId> clients, servers;
  for (std::uint32_t c = 0; c < catalog.numClients(); ++c) {
    clients.push_back(catalog.clientNode(c));
  }
  for (std::uint32_t s = 0; s < catalog.numServers(); ++s) {
    servers.push_back(catalog.serverNode(s));
  }
  Rng planRng(seed);
  net::FaultPlan::RandomOptions planOptions;
  planOptions.intensity = intensity;
  planOptions.horizon = horizon;
  planOptions.maxLossProbability = 0.25 * intensity;
  return std::make_shared<const net::FaultPlan>(
      net::FaultPlan::random(planRng, planOptions, clients, servers));
}

// ---------------------------------------------------------------------
// Migration under chaos: >= 8 seeds x {low, medium} intensity, both
// invalidation modes, with the handoff window overlapping whatever
// crash/partition/skew windows each seed's plan generates. The oracle
// must stay clean straight through.
// ---------------------------------------------------------------------

TEST(FederationTest, MigrationUnderChaosStaysOracleClean) {
  driver::ChaosWorkloadOptions workloadOptions;
  workloadOptions.duration = sec(900);
  workloadOptions.volumesPerServer = 2;
  const driver::Workload workload =
      driver::buildChaosWorkload(workloadOptions);
  const trace::Catalog& catalog = workload.catalog;

  // Server 0's first volume leaves at t/3 and comes home at 2t/3, so
  // both handoffs happen mid-traffic and the return exercises the
  // migrate-away-then-return ratchet against live leases.
  const VolumeId vol = catalog.volumes().front().id;
  ASSERT_EQ(raw(catalog.volume(vol).server), raw(catalog.serverNode(0)));
  std::vector<driver::MigrationEvent> migrations;
  migrations.push_back(
      {workloadOptions.duration / 3, vol, catalog.serverNode(1), true});
  migrations.push_back(
      {2 * (workloadOptions.duration / 3), vol, catalog.serverNode(0), true});

  for (const proto::Algorithm algorithm :
       {proto::Algorithm::kVolumeLease,
        proto::Algorithm::kVolumeDelayedInval}) {
    for (const double intensity : {0.2, 0.5}) {
      for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        driver::SimOptions sim;
        sim.networkLatency = msec(20);
        sim.faultPlan = chaosPlan(seed, intensity, workloadOptions.duration,
                                  catalog);
        sim.enableOracle = true;
        sim.oracleAuditPeriod = sec(10);
        sim.migrations = migrations;

        driver::Simulation simulation(catalog, chaosConfig(algorithm), sim);
        const stats::Metrics& metrics = simulation.run(workload.events);
        EXPECT_EQ(metrics.oracleViolations(), 0)
            << proto::algorithmName(algorithm) << " seed=" << seed
            << " intensity=" << intensity << ": "
            << simulation.oracle()->summary();
        // Every scheduled migration must eventually land (plans close
        // their fault windows before the horizon, and the driver
        // retries through them).
        EXPECT_EQ(simulation.migrationsApplied(), 2u)
            << proto::algorithmName(algorithm) << " seed=" << seed
            << " intensity=" << intensity;
        EXPECT_EQ(simulation.migrationsDropped(), 0u);
        // Ownership ends where it started: the volume came home.
        EXPECT_EQ(raw(simulation.routing().serverOf(vol)),
                  raw(catalog.serverNode(0)));
      }
    }
  }
}

// ---------------------------------------------------------------------
// Negative control: the identical handoff with the epoch bump skipped
// MUST produce a stale read. A client holds a 120s object lease whose
// 30s volume lease expires; when it renews the volume at the new owner
// and the epoch still matches, nothing forces it to re-validate, so it
// serves the pre-migration version after the new owner committed a
// write. With the bump, the same schedule is clean.
// ---------------------------------------------------------------------

class FederationNegativeControl
    : public ::testing::TestWithParam<proto::Algorithm> {};

TEST_P(FederationNegativeControl, EpochBumpSkipCausesStaleRead) {
  const proto::Algorithm algorithm = GetParam();
  for (const bool bumpEpoch : {true, false}) {
    trace::Catalog catalog(2, 1);
    const VolumeId vol = catalog.addVolume(catalog.serverNode(0));
    catalog.addVolume(catalog.serverNode(1));
    const ObjectId obj = catalog.addObject(vol, 4096);
    const NodeId client = catalog.clientNode(0);

    driver::SimOptions sim;
    sim.enableOracle = true;
    sim.migrations.push_back(
        {sec(40), vol, catalog.serverNode(1), bumpEpoch});

    driver::Simulation simulation(catalog, chaosConfig(algorithm), sim);
    // t=1: the client picks up a 30s volume lease and a 120s object
    // lease from server 0.
    simulation.drainTo(sec(1));
    simulation.issueRead(client, obj);
    // t=40: the volume migrates (its lease bound, 31s, has drained).
    // t=45: a write lands at the NEW owner and commits.
    simulation.drainTo(sec(45));
    simulation.issueWrite(obj);
    // t=80: the volume lease is long gone, so the client renews it at
    // the new owner; the object lease is still nominally valid. With
    // the bump the renewal comes back MUST_RENEW_ALL and the client
    // re-validates; without it the client serves the stale version.
    simulation.drainTo(sec(80));
    simulation.issueRead(client, obj);
    simulation.finish();

    EXPECT_EQ(simulation.migrationsApplied(), 1u);
    const auto& metrics = simulation.metrics();
    if (bumpEpoch) {
      EXPECT_EQ(metrics.oracleViolations(), 0)
          << proto::algorithmName(algorithm) << ": "
          << simulation.oracle()->summary();
      EXPECT_EQ(metrics.staleReads(), 0);
    } else {
      EXPECT_GT(metrics.staleReads(), 0)
          << proto::algorithmName(algorithm)
          << ": skipping the epoch bump must leak a stale read";
      EXPECT_GT(
          simulation.oracle()->violations(driver::ViolationKind::kStaleRead),
          0)
          << proto::algorithmName(algorithm) << ": "
          << simulation.oracle()->summary();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BothInvalidationModes, FederationNegativeControl,
                         ::testing::Values(
                             proto::Algorithm::kVolumeLease,
                             proto::Algorithm::kVolumeDelayedInval),
                         [](const auto& info) {
                           return std::string(
                               proto::algorithmName(info.param));
                         });

// ---------------------------------------------------------------------
// Migrate away, come home: the epoch must ratchet monotonically across
// both handoffs, the original owner's durable slot must remember the
// epoch while the volume is away, and ownership flags must flip.
// ---------------------------------------------------------------------

TEST(FederationTest, MigrateAwayThenReturnRatchetsEpoch) {
  trace::Catalog catalog(2, 1);
  const VolumeId vol = catalog.addVolume(catalog.serverNode(0));
  catalog.addVolume(catalog.serverNode(1));
  const ObjectId obj = catalog.addObject(vol, 4096);
  const NodeId client = catalog.clientNode(0);

  driver::SimOptions sim;
  sim.enableOracle = true;
  sim.migrations.push_back({sec(40), vol, catalog.serverNode(1), true});
  sim.migrations.push_back({sec(80), vol, catalog.serverNode(0), true});

  driver::Simulation simulation(
      catalog, chaosConfig(proto::Algorithm::kVolumeLease), sim);
  auto& srv0 = dynamic_cast<core::VolumeServer&>(
      simulation.protocol().serverAt(catalog.serverNode(0)));
  auto& srv1 = dynamic_cast<core::VolumeServer&>(
      simulation.protocol().serverAt(catalog.serverNode(1)));

  EXPECT_TRUE(srv0.ownsVolume(vol));
  EXPECT_FALSE(srv1.ownsVolume(vol));
  EXPECT_EQ(srv0.volumeEpoch(vol), 1);

  simulation.drainTo(sec(1));
  simulation.issueRead(client, obj);
  simulation.drainTo(sec(50));
  // Away: the destination bumped past the handoff epoch; the old
  // owner's slot is durable memory, not live state.
  EXPECT_FALSE(srv0.ownsVolume(vol));
  EXPECT_TRUE(srv1.ownsVolume(vol));
  EXPECT_EQ(srv1.volumeEpoch(vol), 2);
  EXPECT_EQ(raw(simulation.routing().serverOf(vol)),
            raw(catalog.serverNode(1)));
  // Traffic keeps flowing to the new owner.
  simulation.issueWrite(obj);
  simulation.issueRead(client, obj);

  simulation.drainTo(sec(90));
  // Home again: the return bumps past BOTH the travelling epoch and the
  // stay-behind memory -- 3, never back to 1.
  EXPECT_TRUE(srv0.ownsVolume(vol));
  EXPECT_FALSE(srv1.ownsVolume(vol));
  EXPECT_EQ(srv0.volumeEpoch(vol), 3);
  EXPECT_EQ(raw(simulation.routing().serverOf(vol)),
            raw(catalog.serverNode(0)));
  simulation.issueRead(client, obj);
  simulation.finish();

  EXPECT_EQ(simulation.migrationsApplied(), 2u);
  EXPECT_EQ(simulation.metrics().oracleViolations(), 0)
      << simulation.oracle()->summary();
}

// ---------------------------------------------------------------------
// An adopted volume is owned state like a native one: a crash, the
// expiry sweep and end-of-run accounting must each reach its holder
// records. Server 1 adopts server 0's volume at t = 1 s and, at t = 2 s,
// grants one client a 30 s volume lease and a 120 s object lease on it.
// Server 1's own volume sees no traffic, so every state byte it accrues
// belongs to the adopted volume.
// ---------------------------------------------------------------------

class AdoptedVolumeState : public ::testing::TestWithParam<proto::Algorithm> {
 protected:
  AdoptedVolumeState() : catalog_(2, 1) {
    vol_ = catalog_.addVolume(catalog_.serverNode(0));
    catalog_.addVolume(catalog_.serverNode(1));
    obj_ = catalog_.addObject(vol_, 4096);
  }

  /// Runs to t = 10 s with server 1 holding the two adopted records.
  std::unique_ptr<driver::Simulation> start(SimDuration sweepPeriod) {
    proto::ProtocolConfig config = chaosConfig(GetParam());
    config.leaseSweepPeriod = sweepPeriod;
    driver::SimOptions sim;
    sim.migrations.push_back({sec(1), vol_, catalog_.serverNode(1), true});
    auto simulation =
        std::make_unique<driver::Simulation>(catalog_, config, sim);
    simulation->drainTo(sec(2));
    simulation->issueRead(catalog_.clientNode(0), obj_);
    simulation->drainTo(sec(10));
    const core::VolumeServer& srv = server1(*simulation);
    EXPECT_TRUE(srv.ownsVolume(vol_));
    EXPECT_EQ(srv.volumeEpoch(vol_), 2);
    EXPECT_EQ(srv.validVolumeHolders(vol_), 1u);
    EXPECT_EQ(srv.validObjectHolders(obj_), 1u);
    return simulation;
  }

  core::VolumeServer& server1(driver::Simulation& simulation) {
    return dynamic_cast<core::VolumeServer&>(
        simulation.protocol().serverAt(catalog_.serverNode(1)));
  }

  /// Server 1's state integral in byte-microseconds, once finished.
  double stateIntegral(driver::Simulation& simulation) {
    const stats::Metrics& metrics = simulation.metrics();
    return metrics.avgStateBytes(catalog_.serverNode(1)) *
           static_cast<double>(metrics.horizon());
  }

  trace::Catalog catalog_;
  VolumeId vol_;
  ObjectId obj_;
};

TEST_P(AdoptedVolumeState, CrashBumpsItsEpochAndDropsItsHolders) {
  auto simulation = start(/*sweepPeriod=*/0);
  core::VolumeServer& srv = server1(*simulation);
  srv.crashAndReboot();
  EXPECT_EQ(srv.volumeEpoch(vol_), 3);
  EXPECT_EQ(srv.validVolumeHolders(vol_), 0u);
  EXPECT_EQ(srv.validObjectHolders(obj_), 0u);
  simulation->finish();
  // Both records were charged at the crash, from 2 s to 10 s.
  EXPECT_DOUBLE_EQ(stateIntegral(*simulation),
                   2.0 * stats::kBytesPerRecord * sec(8));
}

TEST_P(AdoptedVolumeState, SweepDrainsItsExpiredRecords) {
  auto simulation = start(/*sweepPeriod=*/sec(10));
  simulation->drainTo(sec(200));
  const core::VolumeServer& srv = server1(*simulation);
  // The sweep kept running until the object lease (to 122 s) was gone.
  EXPECT_GE(srv.lastSweepAt(), sec(122));
  EXPECT_EQ(srv.expiredHolderCount(sec(200)), 0u);
  simulation->finish();
  EXPECT_DOUBLE_EQ(stateIntegral(*simulation),
                   stats::kBytesPerRecord * static_cast<double>(sec(150)));
}

TEST_P(AdoptedVolumeState, FinalAccountingChargesItsHolders) {
  auto simulation = start(/*sweepPeriod=*/0);
  simulation->finish();
  ASSERT_EQ(simulation->metrics().horizon(), sec(10));
  EXPECT_DOUBLE_EQ(stateIntegral(*simulation),
                   2.0 * stats::kBytesPerRecord * sec(8));
}

INSTANTIATE_TEST_SUITE_P(BothInvalidationModes, AdoptedVolumeState,
                         ::testing::Values(
                             proto::Algorithm::kVolumeLease,
                             proto::Algorithm::kVolumeDelayedInval),
                         [](const auto& info) {
                           return std::string(
                               proto::algorithmName(info.param));
                         });

// ---------------------------------------------------------------------
// Satellite regression: multi-volume chaos workloads must actually
// spread traffic across volumes (the old generator keyed every message
// to each server's volume 0).
// ---------------------------------------------------------------------

TEST(FederationTest, ChaosWorkloadReachesMultipleVolumes) {
  driver::ChaosWorkloadOptions options;
  options.volumesPerServer = 3;
  const driver::Workload workload = driver::buildChaosWorkload(options);
  std::set<std::uint64_t> touchedVolumes;
  std::set<std::uint64_t> touchedServers;
  for (const trace::TraceEvent& e : workload.events) {
    const trace::ObjectInfo& info = workload.catalog.object(e.obj);
    touchedVolumes.insert(raw(info.volume));
    touchedServers.insert(raw(info.server));
  }
  EXPECT_GE(touchedVolumes.size(), 2u)
      << "chaos traffic still keyed to a single volume";
  EXPECT_GE(touchedServers.size(), 2u)
      << "chaos traffic never crossed servers";
}

}  // namespace
}  // namespace vlease
