// vlease_chaos: chaos sweep across seeds x algorithms x fault intensity
// with the online ConsistencyOracle as judge.
//
// Every (seed, intensity) pair deterministically derives a FaultPlan
// (crashes, isolations, partitions, loss windows) that is replayed
// against each server-invalidation algorithm over one shared workload;
// the oracle audits reads, writes, and cached state against ground
// truth while the faults play out. The tool prints a violation grid and
// exits non-zero if ANY violation was found, so it can gate CI.
//
//   $ vlease_chaos --seeds 16 --intensity high
//   $ vlease_chaos --seeds 8 --intensity low --algorithms lease,volume
//   $ vlease_chaos --seeds 4 --break-invalidation   # oracle must bark
//   $ vlease_chaos --seeds 16 --skew high           # |skew| <= epsilon: clean
//   $ vlease_chaos --seeds 16 --skew high --epsilon-ms 0  # must bark
//   $ vlease_chaos --seeds 8 --migrate              # online handoff: clean
//   $ vlease_chaos --seeds 4 --migrate --break-epoch-handoff  # must bark
//   $ vlease_chaos --seeds 8 --cache-capacity 2     # LRU eviction: clean
//   $ vlease_chaos --seeds 8 --algorithms delay --discard-sec 60
//   $ vlease_chaos --seeds 8 --by-expiry            # invalidate by waiting
//   $ vlease_chaos --seeds 8 --piggyback            # volume renewals ride
//                                                   # object-lease replies
#include <cstdio>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "driver/consistency_oracle.h"
#include "driver/sweep.h"
#include "net/fault_plan.h"
#include "util/check.h"
#include "util/flags.h"

using namespace vlease;

namespace {

/// Clock-skew budget B by named intensity. The budget is the bound on
/// every node's |skew| (FaultPlan::random guarantees it); sized against
/// the tool's volumeTimeout = 30s so high skew is a third of t_v.
std::optional<SimDuration> parseSkew(const std::string& name) {
  if (name == "off") return SimDuration{0};
  if (name == "low") return sec(2);
  if (name == "medium") return sec(5);
  if (name == "high") return sec(10);
  return std::nullopt;
}

/// Inactive-discard bound d in whole seconds: "inf" (the default, the
/// paper's d = infinity) or a non-negative integer of at most 9 digits.
std::optional<SimDuration> parseDiscard(const std::string& text) {
  if (text == "inf") return kNever;
  if (text.empty() || text.size() > 9 ||
      text.find_first_not_of("0123456789") != std::string::npos)
    return std::nullopt;
  return sec(std::stoll(text));
}

std::vector<std::string> splitCsv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.addInt("seeds", 8, "number of fault-plan seeds per algorithm");
  flags.addInt("seed-base", 1, "first seed (plans are seed-deterministic)");
  flags.addString("intensity", "medium", "fault intensity: low|medium|high");
  flags.addString("algorithms", "callback,lease,volume,delay",
                  "comma list: callback|lease|volume|delay|best-effort");
  flags.addInt("duration-sec", 1800, "workload + fault horizon, seconds");
  flags.addString("skew", "off",
                  "clock-skew intensity: off|low|medium|high (per-node "
                  "|skew| budget of 0/2/5/10 seconds)");
  flags.addInt("epsilon-ms", -1,
               "clock-skew safety margin epsilon in milliseconds; -1 = "
               "match the skew budget (safe), 0 = margin disabled "
               "(negative control: the skew-aware oracle must fire)");
  flags.addBool("break-invalidation", false,
                "fault-inject clients that ack invalidations without "
                "applying them (the oracle MUST report violations)");
  flags.addInt("servers", 2, "federated volume servers in the workload");
  flags.addInt("volumes-per-server", 2,
               "volumes per server; >= 2 exercises cross-volume dispatch "
               "(objects spread round-robin, so traffic is no longer "
               "keyed to each server's volume 0)");
  flags.addBool("migrate", false,
                "online volume migration: move server 0's first volume "
                "to server 1 a third of the way in and back at two "
                "thirds (volume algorithms only; the oracle must stay "
                "clean through both handoffs)");
  flags.addBool("break-epoch-handoff", false,
                "with --migrate: skip the adopter's epoch bump, so "
                "pre-migration leases survive the handoff (negative "
                "control: the oracle MUST report violations)");
  flags.addInt("sweep-ms", 0,
               "batch lease-expiry sweep period in milliseconds for the "
               "volume algorithms (0 = off); observationally equivalent, "
               "so the oracle verdict must not change");
  flags.addInt("flash-crowd", 0,
               "flash crowd: this many distinct clients storm the "
               "coldest object ten minutes in (0 = off); appended after "
               "the base draws, so the base trace stays bit-identical");
  flags.addInt("churn-sec", 0,
               "client churn period in seconds: one graceful depart + "
               "re-arrive per period (0 = off)");
  flags.addInt("cache-capacity", 0,
               "client cache entries before LRU eviction (0 = the "
               "paper's infinite caches)");
  flags.addBool("by-expiry", false,
                "writes invalidate by waiting out leases instead of "
                "sending invalidations (writeByLeaseExpiry)");
  flags.addBool("piggyback", false,
                "volume algorithms: piggyback volume-lease renewals on "
                "object-lease requests and replies (piggybackVolumeLease)");
  flags.addString("discard-sec", "inf",
                  "Delayed Invalidations: seconds an Inactive client "
                  "keeps its pending list before it becomes Unreachable "
                  "(inactiveDiscard d; inf = never)");
  driver::addRunnerFlags(flags);  // --threads --csv --json
  if (!flags.parse(argc, argv)) return 1;

  const auto intensity =
      net::FaultPlan::intensityByName(flags.getString("intensity"));
  if (!intensity) {
    std::fprintf(stderr, "unknown intensity '%s' (low|medium|high)\n",
                 flags.getString("intensity").c_str());
    return 1;
  }
  const auto skewBudget = parseSkew(flags.getString("skew"));
  if (!skewBudget) {
    std::fprintf(stderr, "unknown skew '%s' (off|low|medium|high)\n",
                 flags.getString("skew").c_str());
    return 1;
  }
  const std::int64_t epsilonMs = flags.getInt("epsilon-ms");
  const SimDuration epsilon =
      epsilonMs < 0 ? *skewBudget : msec(epsilonMs);
  std::vector<proto::Algorithm> algorithms;
  for (const std::string& name : splitCsv(flags.getString("algorithms"))) {
    const auto algorithm = proto::algorithmByName(name);
    if (!algorithm) {
      std::fprintf(stderr, "unknown algorithm '%s'\n", name.c_str());
      return 1;
    }
    if (*algorithm == proto::Algorithm::kPollEachRead ||
        *algorithm == proto::Algorithm::kPoll ||
        *algorithm == proto::Algorithm::kPollAdaptive) {
      std::fprintf(stderr,
                   "'%s' is a poll baseline; vlease_chaos runs the "
                   "server-invalidation algorithms only "
                   "(callback|lease|volume|delay|best-effort)\n",
                   name.c_str());
      return 1;
    }
    algorithms.push_back(*algorithm);
  }
  const auto seeds = flags.getInt("seeds");
  const auto seedBase = flags.getInt("seed-base");
  if (algorithms.empty() || seeds <= 0) {
    std::fprintf(stderr, "nothing to run\n");
    return 1;
  }

  const std::int64_t cacheCapacity = flags.getInt("cache-capacity");
  if (cacheCapacity < 0) {
    std::fprintf(stderr, "--cache-capacity must be >= 0\n");
    return 1;
  }

  const auto discard = parseDiscard(flags.getString("discard-sec"));
  if (!discard) {
    std::fprintf(stderr,
                 "--discard-sec must be a non-negative integer or inf, "
                 "got '%s'\n",
                 flags.getString("discard-sec").c_str());
    return 1;
  }
  const bool byExpiry = flags.getBool("by-expiry");
  const bool piggyback = flags.getBool("piggyback");

  const bool migrate = flags.getBool("migrate");
  const bool breakEpochHandoff = flags.getBool("break-epoch-handoff");
  if (breakEpochHandoff && !migrate) {
    std::fprintf(stderr, "--break-epoch-handoff requires --migrate\n");
    return 1;
  }

  // One shared workload: every (algorithm, seed) point replays the same
  // reads and writes, so differences come only from faults + protocol.
  driver::ChaosWorkloadOptions workloadOptions;
  workloadOptions.duration = sec(flags.getInt("duration-sec"));
  workloadOptions.numServers =
      static_cast<std::uint32_t>(flags.getInt("servers"));
  workloadOptions.volumesPerServer =
      static_cast<std::uint32_t>(flags.getInt("volumes-per-server"));
  const std::int64_t flashClients = flags.getInt("flash-crowd");
  if (flashClients < 0 || flashClients > workloadOptions.numClients) {
    std::fprintf(stderr,
                 "--flash-crowd must be between 0 and the client count "
                 "(%u)\n",
                 workloadOptions.numClients);
    return 1;
  }
  workloadOptions.flashClients = static_cast<std::uint32_t>(flashClients);
  workloadOptions.churnPeriod = sec(flags.getInt("churn-sec"));
  if (workloadOptions.numServers < 1 ||
      (migrate && workloadOptions.numServers < 2)) {
    std::fprintf(stderr, "--migrate needs at least 2 servers\n");
    return 1;
  }
  const driver::Workload workload =
      driver::buildChaosWorkload(workloadOptions);
  const trace::Catalog& catalog = workload.catalog;

  // Regression guard for the old "everything keys to volume 0" bug:
  // with >= 2 volumes per server the merged trace must actually reach
  // at least two distinct volumes.
  if (workloadOptions.volumesPerServer >= 2 &&
      workloadOptions.objectsPerServer >= 2) {
    std::set<std::uint64_t> touched;
    for (const trace::TraceEvent& e : workload.events) {
      touched.insert(raw(catalog.object(e.obj).volume));
    }
    VL_CHECK_MSG(touched.size() >= 2,
                 "vlease_chaos: chaos traffic reached fewer than 2 volumes");
  }

  std::vector<NodeId> clients, servers;
  for (std::uint32_t c = 0; c < catalog.numClients(); ++c) {
    clients.push_back(catalog.clientNode(c));
  }
  for (std::uint32_t s = 0; s < catalog.numServers(); ++s) {
    servers.push_back(catalog.serverNode(s));
  }

  // Short lease timeouts relative to the fault windows, so plenty of
  // lease expiries, renewals, and reconnections happen under fire.
  proto::ProtocolConfig base;
  base.objectTimeout = sec(120);
  base.volumeTimeout = sec(30);
  base.msgTimeout = sec(5);
  base.readTimeout = sec(15);
  base.clockEpsilon = epsilon;
  base.faultInjectIgnoreInvalidations = flags.getBool("break-invalidation");
  base.leaseSweepPeriod = msec(flags.getInt("sweep-ms"));
  base.clientCacheCapacity = static_cast<std::size_t>(cacheCapacity);
  base.writeByLeaseExpiry = byExpiry;
  base.piggybackVolumeLease = piggyback;
  base.inactiveDiscard = *discard;

  // Fixed migration schedule shared by every seed (the fault plans
  // vary per seed, so across the sweep the handoffs land inside many
  // different crash/partition/skew windows): server 0's first volume
  // moves out a third of the way in and comes home at two thirds,
  // which also exercises the migrate-away-then-return epoch ratchet.
  std::vector<driver::MigrationEvent> migrations;
  if (migrate) {
    VolumeId migratedVol{};
    bool found = false;
    for (const trace::VolumeInfo& info : catalog.volumes()) {
      if (info.server == catalog.serverNode(0)) {
        migratedVol = info.id;
        found = true;
        break;
      }
    }
    VL_CHECK_MSG(found, "server 0 owns no volume to migrate");
    const SimDuration third = workloadOptions.duration / 3;
    migrations.push_back(
        {third, migratedVol, catalog.serverNode(1), !breakEpochHandoff});
    migrations.push_back(
        {2 * third, migratedVol, catalog.serverNode(0), !breakEpochHandoff});
  }

  driver::SweepSpec spec;
  spec.name = "chaos";
  for (std::int64_t s = 0; s < seeds; ++s) {
    const std::uint64_t seed = static_cast<std::uint64_t>(seedBase + s);
    // The plan depends only on (seed, intensity): every algorithm faces
    // the identical fault schedule, and rerunning a pair reproduces the
    // run bit for bit.
    Rng planRng(seed);
    net::FaultPlan::RandomOptions planOptions;
    planOptions.intensity = *intensity;
    planOptions.horizon = workloadOptions.duration;
    planOptions.maxLossProbability = 0.25 * *intensity;
    planOptions.maxClockSkew = *skewBudget;
    auto plan = std::make_shared<const net::FaultPlan>(
        net::FaultPlan::random(planRng, planOptions, clients, servers));

    driver::SimOptions sim;
    sim.networkLatency = msec(20);
    sim.faultPlan = plan;
    sim.enableOracle = true;
    sim.oracleAuditPeriod = sec(10);
    sim.oracleSkewBound = *skewBudget;

    for (const proto::Algorithm algorithm : algorithms) {
      proto::ProtocolConfig config = base;
      config.algorithm = algorithm;
      driver::SweepPoint point;
      point.label = std::string(proto::algorithmName(algorithm)) +
                    " seed=" + std::to_string(seed);
      point.config = config;
      point.sim = sim;
      // Migration is a volume-algorithm feature (the baselines have no
      // epoch machinery to hand off); other rows run unmigrated.
      if (!migrations.empty() &&
          (algorithm == proto::Algorithm::kVolumeLease ||
           algorithm == proto::Algorithm::kVolumeDelayedInval)) {
        point.sim.migrations = migrations;
      }
      point.row = proto::algorithmName(algorithm);
      point.col = "s" + std::to_string(seed);
      spec.points.push_back(std::move(point));
    }
  }
  spec.gridRowHeader = "algorithm";
  spec.gridCell = [](const stats::Metrics& m) {
    return driver::Table::num(m.oracleViolations());
  };

  const auto results =
      driver::runSweep(spec, workload, driver::parallelFromFlags(flags));

  std::int64_t totalViolations = 0;
  std::map<std::string, std::int64_t> byAlgorithm;
  for (const auto& result : results) {
    totalViolations += result.metrics.oracleViolations();
    byAlgorithm[result.row] += result.metrics.oracleViolations();
  }

  driver::emitTable(driver::toTable(spec, results), flags);
  if (!flags.getBool("csv") && !flags.getBool("json")) {
    std::printf("\nintensity=%s skew=%s epsilon=%s servers=%lld "
                "volumes/server=%lld migrate=%s cache=%lld "
                "by-expiry=%s piggyback=%s discard=%s seeds=%lld..%lld  "
                "(%zu plans x %zu "
                "algorithms, %lld reads, %lld writes)\n",
                flags.getString("intensity").c_str(),
                flags.getString("skew").c_str(),
                formatSimTime(epsilon).c_str(),
                static_cast<long long>(flags.getInt("servers")),
                static_cast<long long>(flags.getInt("volumes-per-server")),
                migrate ? (breakEpochHandoff ? "broken" : "on") : "off",
                static_cast<long long>(cacheCapacity),
                byExpiry ? "on" : "off", piggyback ? "on" : "off",
                *discard == kNever ? "inf" : formatSimTime(*discard).c_str(),
                static_cast<long long>(seedBase),
                static_cast<long long>(seedBase + seeds - 1),
                static_cast<std::size_t>(seeds), algorithms.size(),
                static_cast<long long>(workload.readCount),
                static_cast<long long>(workload.writeCount));
    for (const auto& [name, count] : byAlgorithm) {
      std::printf("  %-12s %s\n", name.c_str(),
                  count == 0 ? "ok"
                             : (std::to_string(count) + " violation(s)")
                                   .c_str());
    }
    std::printf("verdict: %s\n",
                totalViolations == 0 ? "CONSISTENT"
                                     : "VIOLATIONS DETECTED");
  }
  return totalViolations == 0 ? 0 : 1;
}
