// Exactness of the batch lease-expiry sweep: right after every sweep, no
// owned holder record whose grace-extended expiry has passed survives.
// The sweep pops each table's grant order from the oldest end and stops
// at the first live record, so it is exact only while grant order equals
// expiry order; this test drives one seeded run through every path that
// sets, moves or clears a holder record and counts the leftovers by
// brute force. The same run with the sweep off is the negative control:
// at the same instants it must hold expired records.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/volume_server.h"
#include "driver/simulation.h"
#include "driver/workloads.h"
#include "net/fault_plan.h"

namespace vlease::core {
namespace {

/// One observed sweep: the check point after which it was seen, the
/// server that ran it, when it ran, and expiredHolderCount(at) there.
struct Probe {
  std::size_t check = 0;
  std::uint32_t server = 0;
  SimTime at = 0;
  std::size_t expired = 0;
};

/// Replays a seeded chaos workload the way Simulation::run does, with
/// audits on a 100 ms grid and around every trace event. With a sweep
/// period, each audit appends a Probe for every sweep run since the last
/// one. With the sweep off, it fills in `expired` for the probes taken
/// at the same check point of the sweep-on run.
class SweepAuditRun {
 public:
  SweepAuditRun(proto::Algorithm algorithm, SimDuration sweepPeriod)
      : sweepOn_(sweepPeriod > 0), workload_(buildWorkload()) {
    const trace::Catalog& catalog = workload_.catalog;
    const SimDuration duration = kDuration;

    proto::ProtocolConfig config;
    config.algorithm = algorithm;
    config.objectTimeout = sec(60);
    config.volumeTimeout = sec(10);
    config.msgTimeout = sec(5);
    config.readTimeout = sec(15);
    config.clockEpsilon = sec(2);
    config.piggybackVolumeLease = true;
    config.leaseSweepPeriod = sweepPeriod;

    // Server 0 crashes a quarter of the way in (its recovery bumps every
    // epoch, so clients reconnect with RenewObjLeases batches); its
    // first volume migrates away at a third and comes home at two thirds.
    auto plan = std::make_shared<net::FaultPlan>();
    plan->crashAt(duration / 4, catalog.serverNode(0))
        .recoverAt(duration / 4 + sec(20), catalog.serverNode(0));
    driver::SimOptions sim;
    sim.networkLatency = msec(20);
    sim.faultPlan = plan;
    const VolumeId vol = catalog.volumes().front().id;
    sim.migrations.push_back({duration / 3, vol, catalog.serverNode(1), true});
    sim.migrations.push_back(
        {2 * duration / 3, vol, catalog.serverNode(0), true});
    simulation_ =
        std::make_unique<driver::Simulation>(catalog, config, sim);
    lastSeen_.assign(catalog.numServers(), kSimTimeMin);
  }

  void replay(std::vector<Probe>& probes) {
    driver::Simulation& sim = *simulation_;
    for (const trace::TraceEvent& event : workload_.events) {
      for (SimTime t = sim.scheduler().now() + msec(100); t < event.at;
           t += msec(100)) {
        sim.drainTo(t);
        audit(probes);
      }
      sim.drainTo(event.at);
      audit(probes);
      sim.inject(event);
      sim.drainTo(event.at);
      audit(probes);
    }
    sim.finish();
  }

  driver::Simulation& simulation() { return *simulation_; }

 private:
  static constexpr SimDuration kDuration = minutes(15);

  static driver::Workload buildWorkload() {
    driver::ChaosWorkloadOptions options;
    options.seed = 15;
    options.numClients = 12;
    options.duration = kDuration;
    options.writesPerObjectPerSec = 0.05;
    return driver::buildChaosWorkload(options);
  }

  VolumeServer& server(std::uint32_t s) {
    return dynamic_cast<VolumeServer&>(*simulation_->protocol().servers[s]);
  }

  void audit(std::vector<Probe>& probes) {
    if (sweepOn_) {
      for (std::uint32_t s = 0; s < lastSeen_.size(); ++s) {
        const SimTime at = server(s).lastSweepAt();
        if (at == lastSeen_[s]) continue;
        lastSeen_[s] = at;
        probes.push_back(
            Probe{check_, s, at, server(s).expiredHolderCount(at)});
      }
    } else {
      for (; next_ < probes.size() && probes[next_].check == check_; ++next_) {
        Probe& probe = probes[next_];
        probe.expired = server(probe.server).expiredHolderCount(probe.at);
      }
    }
    ++check_;
  }

  const bool sweepOn_;
  driver::Workload workload_;
  std::unique_ptr<driver::Simulation> simulation_;
  std::vector<SimTime> lastSeen_;
  std::size_t check_ = 0;
  std::size_t next_ = 0;
};

std::size_t totalExpired(const std::vector<Probe>& probes) {
  std::size_t n = 0;
  for (const Probe& probe : probes) n += probe.expired;
  return n;
}

class LeaseSweepTest : public ::testing::TestWithParam<proto::Algorithm> {};

TEST_P(LeaseSweepTest, NoExpiredRecordSurvivesASweep) {
  std::vector<Probe> probes;
  SweepAuditRun run(GetParam(), sec(1));
  run.replay(probes);

  // The run reached every path that touches a holder table.
  driver::Simulation& sim = run.simulation();
  const stats::Metrics& metrics = sim.metrics();
  EXPECT_EQ(sim.migrationsApplied(), 2u);
  EXPECT_GT(metrics.messagesOfType(net::payloadIndex<net::ObjLeaseGrant>()), 0);
  EXPECT_GT(metrics.messagesOfType(net::payloadIndex<net::VolLeaseGrant>()), 0);
  EXPECT_GT(metrics.messagesOfType(net::payloadIndex<net::RenewObjLeases>()),
            0);
  EXPECT_GT(metrics.messagesOfType(net::payloadIndex<net::AckInvalidate>()),
            0);
  EXPECT_EQ(metrics.staleReads(), 0);

  // Both servers swept throughout the 15 minutes.
  std::size_t perServer[2] = {0, 0};
  for (const Probe& probe : probes) ++perServer[probe.server];
  EXPECT_GT(perServer[0], 300u);
  EXPECT_GT(perServer[1], 300u);
  for (const Probe& probe : probes) {
    ASSERT_EQ(probe.expired, 0u)
        << "server " << probe.server << " kept expired records after its "
        << "sweep at " << probe.at;
  }
}

/// Negative control: the same run with the sweep off leaves expired
/// records in place, so the exactness check above can fail.
TEST_P(LeaseSweepTest, SweepOffControlHoldsExpiredRecords) {
  std::vector<Probe> probes;
  SweepAuditRun sweepOn(GetParam(), sec(1));
  sweepOn.replay(probes);
  ASSERT_FALSE(probes.empty());
  EXPECT_EQ(totalExpired(probes), 0u);

  SweepAuditRun sweepOff(GetParam(), 0);
  sweepOff.replay(probes);
  EXPECT_GT(totalExpired(probes), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    BothModes, LeaseSweepTest,
    ::testing::Values(proto::Algorithm::kVolumeLease,
                      proto::Algorithm::kVolumeDelayedInval),
    [](const ::testing::TestParamInfo<proto::Algorithm>& info) {
      return info.param == proto::Algorithm::kVolumeLease ? "Immediate"
                                                          : "Delayed";
    });

}  // namespace
}  // namespace vlease::core
