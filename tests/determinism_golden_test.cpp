// Byte-identical determinism regression: one vlease_chaos-style seed and
// one runSweep point are rendered to a canonical JSON fingerprint and
// compared, byte for byte, against goldens captured before the PR 3
// kernel rewrite (slab scheduler + message fast path). Any divergence in
// event ordering, message accounting, or oracle verdicts shows up here
// as a diff, protecting the bit-for-bit guarantee the parallel sweep
// runner advertises.
//
// Regenerating (only when an intentional semantic change lands):
//   VLEASE_REGOLD=1 ctest -R determinism_golden
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "driver/simulation.h"
#include "driver/sweep.h"
#include "driver/workloads.h"
#include "net/fault_plan.h"
#include "net/message.h"
#include "stats/metrics.h"
#include "trace/regroup.h"
#include "util/rng.h"

#ifndef VLEASE_SOURCE_DIR
#error "VLEASE_SOURCE_DIR must be defined by the build"
#endif

namespace vlease {
namespace {

std::string goldenPath(const std::string& name) {
  return std::string(VLEASE_SOURCE_DIR) + "/tests/golden/" + name;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

/// Canonical, exhaustive fingerprint of one run's metrics. Every counter
/// that feeds a figure or an oracle verdict is included, so a kernel
/// that reorders or drops even one event cannot produce the same bytes.
void fingerprintMetrics(std::ostringstream& os, const stats::Metrics& m) {
  os << "  \"totalMessages\": " << m.totalMessages() << ",\n"
     << "  \"totalBytes\": " << m.totalBytes() << ",\n"
     << "  \"totalCpuUnits\": " << fmt(m.totalCpuUnits()) << ",\n"
     << "  \"droppedMessages\": " << m.droppedMessages() << ",\n"
     << "  \"byType\": {";
  for (std::size_t t = 0; t < net::kNumPayloadTypes; ++t) {
    os << (t ? ", " : "") << "\"" << net::payloadTypeName(t)
       << "\": " << m.messagesOfType(t);
  }
  os << "},\n"
     << "  \"reads\": " << m.reads() << ",\n"
     << "  \"cacheLocalReads\": " << m.cacheLocalReads() << ",\n"
     << "  \"staleReads\": " << m.staleReads() << ",\n"
     << "  \"failedReads\": " << m.failedReads() << ",\n"
     << "  \"writes\": " << m.writes() << ",\n"
     << "  \"delayedWrites\": " << m.delayedWrites() << ",\n"
     << "  \"blockedWrites\": " << m.blockedWrites() << ",\n"
     << "  \"writeDelaySum\": " << fmt(m.writeDelay().sum()) << ",\n"
     << "  \"writeDelayMax\": " << fmt(m.writeDelay().max()) << ",\n"
     << "  \"oracleViolations\": " << m.oracleViolations() << ",\n"
     << "  \"horizon\": " << m.horizon() << "\n";
}

void compareOrRegold(const std::string& file, const std::string& actual) {
  const bool regold = std::getenv("VLEASE_REGOLD") != nullptr;
  if (regold) {
    std::ofstream out(goldenPath(file), std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << goldenPath(file);
    out << actual;
    GTEST_SKIP() << "regenerated " << file;
  }
  std::ifstream in(goldenPath(file), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << goldenPath(file)
                         << " (run with VLEASE_REGOLD=1 to create)";
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), actual)
      << "output diverged from the pre-rewrite golden -- the kernel is no "
         "longer bit-for-bit equivalent";
}

/// One chaos point, exactly as tools/vlease_chaos derives it: the fault
/// plan depends only on (seed, intensity), the workload only on its own
/// seed. Includes kernel-level counters (fired events, sends, deliveries)
/// on top of the metrics fingerprint.
TEST(DeterminismGoldenTest, ChaosSeedByteIdentical) {
  driver::ChaosWorkloadOptions workloadOptions;
  workloadOptions.duration = sec(900);
  const driver::Workload workload =
      driver::buildChaosWorkload(workloadOptions);
  const trace::Catalog& catalog = workload.catalog;

  std::vector<NodeId> clients, servers;
  for (std::uint32_t c = 0; c < catalog.numClients(); ++c) {
    clients.push_back(catalog.clientNode(c));
  }
  for (std::uint32_t s = 0; s < catalog.numServers(); ++s) {
    servers.push_back(catalog.serverNode(s));
  }

  Rng planRng(1);  // seed 1
  net::FaultPlan::RandomOptions planOptions;
  planOptions.intensity = 0.5;  // "medium"
  planOptions.horizon = workloadOptions.duration;
  planOptions.maxLossProbability = 0.25 * 0.5;
  auto plan = std::make_shared<const net::FaultPlan>(
      net::FaultPlan::random(planRng, planOptions, clients, servers));

  proto::ProtocolConfig config;
  config.algorithm = proto::Algorithm::kVolumeLease;
  config.objectTimeout = sec(120);
  config.volumeTimeout = sec(30);
  config.msgTimeout = sec(5);
  config.readTimeout = sec(15);

  driver::SimOptions sim;
  sim.networkLatency = msec(20);
  sim.faultPlan = plan;
  sim.enableOracle = true;
  sim.oracleAuditPeriod = sec(10);

  driver::Simulation simulation(catalog, config, sim);
  const stats::Metrics& metrics = simulation.run(workload.events);

  std::ostringstream os;
  os << "{\n"
     << "  \"firedEvents\": " << simulation.scheduler().firedCount() << ",\n"
     << "  \"finalNow\": " << simulation.scheduler().now() << ",\n"
     << "  \"sent\": " << simulation.network().sentCount() << ",\n"
     << "  \"delivered\": " << simulation.network().deliveredCount() << ",\n";
  fingerprintMetrics(os, metrics);
  os << "}\n";
  compareOrRegold("chaos_seed1_volume.json", os.str());
}

/// The chaos point above with a nonzero clock-skew budget (vlease_chaos
/// --skew medium --epsilon-ms -1): skewed LocalClock reads, the epsilon
/// margin on both lease ends, and the skew-aware oracle must all stay
/// deterministic. The fingerprint is checked three ways -- against the
/// golden, against an in-process rerun, and against the same point run
/// through the parallel sweep runner with threads=3 -- so skew state can
/// neither leak across runs nor depend on worker scheduling.
TEST(DeterminismGoldenTest, ChaosSeedWithSkewByteIdentical) {
  driver::ChaosWorkloadOptions workloadOptions;
  workloadOptions.duration = sec(900);
  const driver::Workload workload =
      driver::buildChaosWorkload(workloadOptions);
  const trace::Catalog& catalog = workload.catalog;

  std::vector<NodeId> clients, servers;
  for (std::uint32_t c = 0; c < catalog.numClients(); ++c) {
    clients.push_back(catalog.clientNode(c));
  }
  for (std::uint32_t s = 0; s < catalog.numServers(); ++s) {
    servers.push_back(catalog.serverNode(s));
  }

  const SimDuration skewBudget = sec(5);  // "medium"

  auto makePlan = [&]() {
    Rng planRng(1);  // seed 1
    net::FaultPlan::RandomOptions planOptions;
    planOptions.intensity = 0.5;
    planOptions.horizon = workloadOptions.duration;
    planOptions.maxLossProbability = 0.25 * 0.5;
    planOptions.maxClockSkew = skewBudget;
    return std::make_shared<const net::FaultPlan>(
        net::FaultPlan::random(planRng, planOptions, clients, servers));
  };

  proto::ProtocolConfig config;
  config.algorithm = proto::Algorithm::kVolumeLease;
  config.objectTimeout = sec(120);
  config.volumeTimeout = sec(30);
  config.msgTimeout = sec(5);
  config.readTimeout = sec(15);
  config.clockEpsilon = skewBudget;  // epsilon matches the budget: safe

  auto makeSim = [&]() {
    driver::SimOptions sim;
    sim.networkLatency = msec(20);
    sim.faultPlan = makePlan();
    sim.enableOracle = true;
    sim.oracleAuditPeriod = sec(10);
    sim.oracleSkewBound = skewBudget;
    return sim;
  };

  auto runDirect = [&]() {
    driver::Simulation simulation(catalog, config, makeSim());
    const stats::Metrics& metrics = simulation.run(workload.events);
    std::ostringstream os;
    os << "{\n"
       << "  \"firedEvents\": " << simulation.scheduler().firedCount()
       << ",\n"
       << "  \"finalNow\": " << simulation.scheduler().now() << ",\n"
       << "  \"sent\": " << simulation.network().sentCount() << ",\n"
       << "  \"delivered\": " << simulation.network().deliveredCount()
       << ",\n";
    fingerprintMetrics(os, metrics);
    os << "}\n";
    return os.str();
  };

  const std::string first = runDirect();
  EXPECT_EQ(first, runDirect()) << "skew run not reproducible in-process";

  // Same point through the parallel sweep runner: worker threads must
  // not perturb the skewed clocks' event interleaving.
  driver::SweepSpec spec;
  spec.name = "skew_determinism";
  for (proto::Algorithm a :
       {proto::Algorithm::kVolumeLease,
        proto::Algorithm::kVolumeDelayedInval}) {
    driver::SweepPoint point;
    point.label = std::string(proto::algorithmName(a)) + " skew";
    point.config = config;
    point.config.algorithm = a;
    point.sim = makeSim();
    point.row = proto::algorithmName(a);
    point.col = "s1";
    spec.points.push_back(std::move(point));
  }
  spec.gridCell = [](const stats::Metrics& m) {
    return driver::Table::num(m.oracleViolations());
  };
  driver::ParallelOptions parallel;
  parallel.threads = 3;
  const auto results = driver::runSweep(spec, workload, parallel);
  ASSERT_EQ(results.size(), 2u);
  std::ostringstream sweepFp;
  fingerprintMetrics(sweepFp, results.front().metrics);
  std::ostringstream directFp;
  {
    driver::Simulation simulation(catalog, config, makeSim());
    fingerprintMetrics(directFp, simulation.run(workload.events));
  }
  EXPECT_EQ(sweepFp.str(), directFp.str())
      << "sweep-runner skew run diverged from the direct run";
  // With |skew| <= budget and epsilon = budget, the oracle stays quiet.
  for (const auto& result : results) {
    EXPECT_EQ(result.metrics.oracleViolations(), 0);
  }

  compareOrRegold("chaos_seed1_volume_skew.json", first);
}

/// The batch lease-expiry sweep (ProtocolConfig::leaseSweepPeriod) must
/// be observationally invisible: it only drops holder records that every
/// consumer already treats as dead (graceExpire <= now), accruing them
/// with the same clamp later accrual would apply. Run the chaos point --
/// faults, skew, epsilon margins, both volume algorithms, and one volume
/// migrating away and back (migrateOut clears its holder tables, the
/// return refills them) -- with the sweep off and at two unrelated
/// periods; every protocol-observable
/// byte (messages, reads, writes, accrual totals, oracle verdicts,
/// horizon) must be identical. firedEvents is deliberately excluded:
/// the sweep timer itself fires.
TEST(DeterminismGoldenTest, ExpirySweepIsObservationallyInvisible) {
  driver::ChaosWorkloadOptions workloadOptions;
  workloadOptions.duration = sec(900);
  const driver::Workload workload =
      driver::buildChaosWorkload(workloadOptions);
  const trace::Catalog& catalog = workload.catalog;

  std::vector<NodeId> clients, servers;
  for (std::uint32_t c = 0; c < catalog.numClients(); ++c) {
    clients.push_back(catalog.clientNode(c));
  }
  for (std::uint32_t s = 0; s < catalog.numServers(); ++s) {
    servers.push_back(catalog.serverNode(s));
  }

  const SimDuration skewBudget = sec(5);
  auto makePlan = [&]() {
    Rng planRng(1);
    net::FaultPlan::RandomOptions planOptions;
    planOptions.intensity = 0.5;
    planOptions.horizon = workloadOptions.duration;
    planOptions.maxLossProbability = 0.25 * 0.5;
    planOptions.maxClockSkew = skewBudget;
    return std::make_shared<const net::FaultPlan>(
        net::FaultPlan::random(planRng, planOptions, clients, servers));
  };

  auto runFingerprint = [&](proto::Algorithm algorithm,
                            SimDuration sweepPeriod, bool byExpiry) {
    proto::ProtocolConfig config;
    config.algorithm = algorithm;
    config.objectTimeout = sec(120);
    config.volumeTimeout = sec(30);
    config.msgTimeout = sec(5);
    config.readTimeout = sec(15);
    config.clockEpsilon = skewBudget;
    config.leaseSweepPeriod = sweepPeriod;
    config.writeByLeaseExpiry = byExpiry;

    driver::SimOptions sim;
    sim.networkLatency = msec(20);
    sim.faultPlan = makePlan();
    sim.enableOracle = true;
    sim.oracleAuditPeriod = sec(10);
    sim.oracleSkewBound = skewBudget;
    const VolumeId vol = catalog.volumes().front().id;
    sim.migrations.push_back({workloadOptions.duration / 3, vol,
                              catalog.serverNode(1), true});
    sim.migrations.push_back({2 * workloadOptions.duration / 3, vol,
                              catalog.serverNode(0), true});

    driver::Simulation simulation(catalog, config, sim);
    const stats::Metrics& metrics = simulation.run(workload.events);
    EXPECT_EQ(simulation.migrationsApplied(), 2u);
    std::ostringstream os;
    os << "{\n"
       << "  \"finalNow\": " << simulation.scheduler().now() << ",\n"
       << "  \"sent\": " << simulation.network().sentCount() << ",\n"
       << "  \"delivered\": " << simulation.network().deliveredCount()
       << ",\n";
    fingerprintMetrics(os, metrics);
    os << "}\n";
    return os.str();
  };

  for (proto::Algorithm algorithm :
       {proto::Algorithm::kVolumeLease,
        proto::Algorithm::kVolumeDelayedInval}) {
    for (bool byExpiry : {false, true}) {
      const std::string base = runFingerprint(algorithm, 0, byExpiry);
      for (SimDuration period : {msec(500), sec(7)}) {
        EXPECT_EQ(base, runFingerprint(algorithm, period, byExpiry))
            << "sweep period " << period << " changed observable behavior ("
            << proto::algorithmName(algorithm)
            << (byExpiry ? ", byExpiry)" : ")");
      }
    }
  }
}

/// Regroup determinism: the same seed must produce the same volume
/// assignment (object ids preserved), and replaying the chaos trace
/// against the regrouped catalog -- with an online migration riding on
/// top -- must be byte-identical run to run. This pins the federation
/// path (routing table + handoff) to a golden the way the single-server
/// chaos seed is pinned.
TEST(DeterminismGoldenTest, RegroupedFederationByteIdentical) {
  driver::ChaosWorkloadOptions workloadOptions;
  workloadOptions.duration = sec(900);
  const driver::Workload workload =
      driver::buildChaosWorkload(workloadOptions);

  // Same seed => same assignment; a different seed must differ (the
  // grouping is genuinely seed-driven, not constant).
  const trace::Catalog regrouped = trace::regroupVolumes(
      workload.catalog, 3, trace::GroupingStrategy::kRandom, 42);
  const trace::Catalog again = trace::regroupVolumes(
      workload.catalog, 3, trace::GroupingStrategy::kRandom, 42);
  ASSERT_EQ(regrouped.numObjects(), again.numObjects());
  for (const trace::ObjectInfo& info : regrouped.objects()) {
    EXPECT_EQ(raw(info.volume), raw(again.object(info.id).volume));
    EXPECT_EQ(raw(info.server),
              raw(workload.catalog.object(info.id).server));
  }

  proto::ProtocolConfig config;
  config.algorithm = proto::Algorithm::kVolumeLease;
  config.objectTimeout = sec(120);
  config.volumeTimeout = sec(30);
  config.msgTimeout = sec(5);
  config.readTimeout = sec(15);

  auto runFingerprint = [&]() {
    driver::SimOptions sim;
    sim.networkLatency = msec(20);
    sim.enableOracle = true;
    sim.oracleAuditPeriod = sec(10);
    // One online migration mid-run: server 0's first regrouped volume
    // moves to server 1, so the golden covers the handoff machinery.
    sim.migrations.push_back({workloadOptions.duration / 2,
                              regrouped.volumes().front().id,
                              regrouped.serverNode(1), true});
    driver::Simulation simulation(regrouped, config, sim);
    const stats::Metrics& metrics = simulation.run(workload.events);
    EXPECT_EQ(simulation.migrationsApplied(), 1u);
    std::ostringstream os;
    os << "{\n"
       << "  \"firedEvents\": " << simulation.scheduler().firedCount()
       << ",\n"
       << "  \"finalNow\": " << simulation.scheduler().now() << ",\n"
       << "  \"sent\": " << simulation.network().sentCount() << ",\n"
       << "  \"delivered\": " << simulation.network().deliveredCount()
       << ",\n";
    fingerprintMetrics(os, metrics);
    os << "}\n";
    return os.str();
  };

  const std::string first = runFingerprint();
  EXPECT_EQ(first, runFingerprint())
      << "regrouped federation run not reproducible in-process";
  compareOrRegold("chaos_regroup_federation.json", first);
}

/// One sweep grid through the parallel runner (threads=2), rendered with
/// the same Table JSON emitter the bench binaries use, plus the metrics
/// fingerprint of one point.
TEST(DeterminismGoldenTest, SweepPointByteIdentical) {
  driver::WorkloadOptions opts;
  opts.scale = 0.01;
  const driver::Workload workload = driver::buildWorkload(opts);

  driver::SweepSpec spec;
  spec.name = "determinism_golden";
  std::vector<driver::SweepLine> lines;
  for (proto::Algorithm a :
       {proto::Algorithm::kVolumeLease,
        proto::Algorithm::kVolumeDelayedInval}) {
    proto::ProtocolConfig c;
    c.algorithm = a;
    c.volumeTimeout = sec(100);
    lines.push_back({std::string(proto::algorithmName(a)), c});
  }
  spec.points = driver::timeoutGrid(lines, {100, 10'000});
  spec.gridCell = [](const stats::Metrics& m) {
    return driver::Table::num(m.totalMessages());
  };

  driver::ParallelOptions parallel;
  parallel.threads = 2;
  const auto results = driver::runSweep(spec, workload, parallel);

  std::ostringstream os;
  driver::toTable(spec, results).printJson(os);
  os << "{\n";
  fingerprintMetrics(os, results.front().metrics);
  os << "}\n";
  compareOrRegold("sweep_grid.json", os.str());
}

/// Flash crowd + client churn under chaos, pinned to a golden the way
/// the base chaos seed is: the storm's renewal burst, the graceful
/// depart/arrive markers (ClientNode::retire + lazy re-growth), and the
/// fault plan must interleave identically run to run -- checked against
/// the golden, an in-process rerun, and the same point through the
/// parallel sweep runner with threads=3.
TEST(DeterminismGoldenTest, FlashChurnChaosByteIdentical) {
  driver::ChaosWorkloadOptions workloadOptions;
  workloadOptions.duration = sec(900);
  workloadOptions.flashClients = 4;  // every chaos client joins the storm
  workloadOptions.flashAt = sec(300);
  workloadOptions.flashDuration = sec(5);
  workloadOptions.churnPeriod = sec(90);
  workloadOptions.churnDowntime = sec(30);
  const driver::Workload workload =
      driver::buildChaosWorkload(workloadOptions);
  const trace::Catalog& catalog = workload.catalog;

  std::vector<NodeId> clients, servers;
  for (std::uint32_t c = 0; c < catalog.numClients(); ++c) {
    clients.push_back(catalog.clientNode(c));
  }
  for (std::uint32_t s = 0; s < catalog.numServers(); ++s) {
    servers.push_back(catalog.serverNode(s));
  }

  auto makePlan = [&]() {
    Rng planRng(1);
    net::FaultPlan::RandomOptions planOptions;
    planOptions.intensity = 0.5;
    planOptions.horizon = workloadOptions.duration;
    planOptions.maxLossProbability = 0.25 * 0.5;
    return std::make_shared<const net::FaultPlan>(
        net::FaultPlan::random(planRng, planOptions, clients, servers));
  };

  proto::ProtocolConfig config;
  config.algorithm = proto::Algorithm::kVolumeLease;
  config.objectTimeout = sec(120);
  config.volumeTimeout = sec(30);
  config.msgTimeout = sec(5);
  config.readTimeout = sec(15);

  auto makeSim = [&]() {
    driver::SimOptions sim;
    sim.networkLatency = msec(20);
    sim.faultPlan = makePlan();
    sim.enableOracle = true;
    sim.oracleAuditPeriod = sec(10);
    return sim;
  };

  auto runDirect = [&]() {
    driver::Simulation simulation(catalog, config, makeSim());
    const stats::Metrics& metrics = simulation.run(workload.events);
    std::ostringstream os;
    os << "{\n"
       << "  \"firedEvents\": " << simulation.scheduler().firedCount()
       << ",\n"
       << "  \"finalNow\": " << simulation.scheduler().now() << ",\n"
       << "  \"sent\": " << simulation.network().sentCount() << ",\n"
       << "  \"delivered\": " << simulation.network().deliveredCount()
       << ",\n";
    fingerprintMetrics(os, metrics);
    os << "}\n";
    return os.str();
  };

  const std::string first = runDirect();
  EXPECT_EQ(first, runDirect())
      << "flash+churn run not reproducible in-process";

  // Same point through the parallel sweep runner: churn retirements and
  // the storm must not depend on worker scheduling.
  driver::SweepSpec spec;
  spec.name = "flash_churn_determinism";
  for (proto::Algorithm a :
       {proto::Algorithm::kVolumeLease,
        proto::Algorithm::kVolumeDelayedInval}) {
    driver::SweepPoint point;
    point.label = std::string(proto::algorithmName(a)) + " flash+churn";
    point.config = config;
    point.config.algorithm = a;
    point.sim = makeSim();
    point.row = proto::algorithmName(a);
    point.col = "s1";
    spec.points.push_back(std::move(point));
  }
  spec.gridCell = [](const stats::Metrics& m) {
    return driver::Table::num(m.oracleViolations());
  };
  driver::ParallelOptions parallel;
  parallel.threads = 3;
  const auto results = driver::runSweep(spec, workload, parallel);
  ASSERT_EQ(results.size(), 2u);
  std::ostringstream sweepFp;
  fingerprintMetrics(sweepFp, results.front().metrics);
  std::ostringstream directFp;
  {
    driver::Simulation simulation(catalog, config, makeSim());
    fingerprintMetrics(directFp, simulation.run(workload.events));
  }
  EXPECT_EQ(sweepFp.str(), directFp.str())
      << "sweep-runner flash+churn run diverged from the direct run";

  compareOrRegold("chaos_flash_churn_volume.json", first);
}

/// The full composition -- Zipf-skewed chaos workload, flash-crowd
/// storm, client churn, online migrations there and back, random fault
/// plans -- must stay oracle-clean across at least 8 seeds. Graceful
/// departures (retire) discard leases a departed client might otherwise
/// rely on; the storm piles renewals onto one cold object; migrations
/// bump epochs under both: none of it may ever surface a stale read.
TEST(DeterminismGoldenTest, FlashChurnMigrationOracleCleanAcrossSeeds) {
  driver::ChaosWorkloadOptions workloadOptions;
  workloadOptions.duration = sec(600);
  workloadOptions.volumesPerServer = 2;
  workloadOptions.flashClients = 4;
  workloadOptions.flashAt = sec(200);
  workloadOptions.flashDuration = sec(5);
  workloadOptions.churnPeriod = sec(60);
  workloadOptions.churnDowntime = sec(20);
  const driver::Workload workload =
      driver::buildChaosWorkload(workloadOptions);
  const trace::Catalog& catalog = workload.catalog;

  std::vector<NodeId> clients, servers;
  for (std::uint32_t c = 0; c < catalog.numClients(); ++c) {
    clients.push_back(catalog.clientNode(c));
  }
  for (std::uint32_t s = 0; s < catalog.numServers(); ++s) {
    servers.push_back(catalog.serverNode(s));
  }

  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    // Alternate algorithms so both volume variants see 4 seeds each.
    const proto::Algorithm algorithm = (seed % 2 == 1)
                                           ? proto::Algorithm::kVolumeLease
                                           : proto::Algorithm::kVolumeDelayedInval;
    Rng planRng(seed);
    net::FaultPlan::RandomOptions planOptions;
    planOptions.intensity = 0.5;
    planOptions.horizon = workloadOptions.duration;
    planOptions.maxLossProbability = 0.25 * 0.5;
    auto plan = std::make_shared<const net::FaultPlan>(
        net::FaultPlan::random(planRng, planOptions, clients, servers));

    proto::ProtocolConfig config;
    config.algorithm = algorithm;
    config.objectTimeout = sec(120);
    config.volumeTimeout = sec(30);
    config.msgTimeout = sec(5);
    config.readTimeout = sec(15);

    driver::SimOptions sim;
    sim.networkLatency = msec(20);
    sim.faultPlan = plan;
    sim.enableOracle = true;
    sim.oracleAuditPeriod = sec(10);
    // Server 0's first volume migrates away a third of the way in and
    // comes home at two thirds (the vlease_chaos --migrate shape).
    const VolumeId vol = catalog.volumes().front().id;
    sim.migrations.push_back({workloadOptions.duration / 3, vol,
                              catalog.serverNode(1), true});
    sim.migrations.push_back({2 * workloadOptions.duration / 3, vol,
                              catalog.serverNode(0), true});

    driver::Simulation simulation(catalog, config, sim);
    const stats::Metrics& metrics = simulation.run(workload.events);
    EXPECT_EQ(metrics.oracleViolations(), 0)
        << proto::algorithmName(algorithm) << " seed " << seed;
    EXPECT_EQ(metrics.staleReads(), 0)
        << proto::algorithmName(algorithm) << " seed " << seed;
  }
}

}  // namespace
}  // namespace vlease
