// vlease_rt: real-process chaos parity harness for the rt layer.
//
// Parent mode (default) runs, per seed: spawn one worker PROCESS per
// protocol node (this same binary with --node i), all exchanging real
// TCP frames through rt::TcpTransport on loopback; derive the identical
// (workload, net::FaultPlan) the simulator would use from the seed; then
// execute the plan against the live deployment --
//   * crash/recover  -> rt::FaultInjector SIGKILLs the worker and
//                       re-execs it (servers restart with --cold-restart:
//                       resume epoch/versions from the durable log and
//                       refuse writes for one volume-lease term + epsilon
//                       of real wall-clock silence, paper section 3.1.2);
//   * partition/isolate/loss -> each worker's rt::FaultShim drops or
//                       truncates frames at the socket;
//   * skew/drift     -> each worker's RealTimeDriver clock is offset.
// Workers append their observable events (write issues/commits, read
// completions, epochs) to per-node logs; the parent merges them, audits
// them with rt::checkRealRun (the ConsistencyOracle's verdicts recast
// over wall-clock records), replays the SAME (workload, plan, seed)
// through driver::Simulation with the oracle enabled, and requires both
// sides to be violation-free. --break-invalidation is the negative
// control: it must FAIL the parity check.
//
//   $ vlease_rt --seeds 8 --intensity low
//   $ vlease_rt --seeds 8 --intensity medium --algorithm delay
//   $ vlease_rt --scenario recovery            # deterministic mid-run
//                                              # server SIGKILL + restart
//   $ vlease_rt --break-invalidation           # must exit non-zero
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/volume_client.h"
#include "core/volume_server.h"
#include "driver/consistency_oracle.h"
#include "driver/simulation.h"
#include "driver/workloads.h"
#include "net/fault_plan.h"
#include "rt/fault_injector.h"
#include "rt/parity.h"
#include "rt/real_time.h"
#include "rt/tcp_transport.h"
#include "util/flags.h"

using namespace vlease;

namespace {

std::int64_t steadyNowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------
// shared run derivation (parent and workers compute the identical thing)
// ---------------------------------------------------------------------

struct HarnessRun {
  explicit HarnessRun(driver::Workload w) : workload(std::move(w)) {}

  std::uint64_t seed = 0;
  SimDuration duration = 0;
  SimDuration drain = 0;
  SimDuration skewBudget = 0;
  driver::Workload workload;
  net::FaultPlan plan;
  proto::ProtocolConfig config;
  std::vector<NodeId> clients;
  std::vector<NodeId> servers;
};

HarnessRun buildRun(std::uint64_t seed, const Flags& flags) {
  const SimDuration duration = msec(flags.getInt("duration-ms"));

  driver::ChaosWorkloadOptions w;
  w.seed = seed;
  w.numClients = static_cast<std::uint32_t>(flags.getInt("clients"));
  w.numServers = 1;
  w.objectsPerServer = static_cast<std::uint32_t>(flags.getInt("objects"));
  w.volumesPerServer =
      static_cast<std::uint32_t>(flags.getInt("volumes-per-server"));
  w.duration = duration;
  // Dense enough that second-scale fault windows overlap plenty of
  // reads, writes, renewals, and reconnections.
  w.readsPerClientPerSec = 8.0;
  w.writesPerObjectPerSec = 0.4;

  HarnessRun run(driver::buildChaosWorkload(w));

  // Regression guard: with a multi-volume server the generated traffic
  // must actually reach >= 2 volumes, or the per-volume epoch machinery
  // runs untested (the old harness keyed every message to volume 0).
  if (w.volumesPerServer >= 2 && w.objectsPerServer >= 2) {
    std::vector<std::uint8_t> seen(run.workload.catalog.numVolumes(), 0);
    std::size_t distinct = 0;
    for (const trace::TraceEvent& ev : run.workload.events) {
      std::uint8_t& hit = seen[raw(run.workload.catalog.object(ev.obj).volume)];
      if (hit == 0) {
        hit = 1;
        ++distinct;
      }
    }
    VL_CHECK_MSG(distinct >= 2,
                 "vlease_rt: chaos traffic reached fewer than 2 volumes");
  }
  run.seed = seed;
  run.duration = duration;
  run.skewBudget = msec(flags.getInt("skew-ms"));

  const trace::Catalog& catalog = run.workload.catalog;
  for (std::uint32_t c = 0; c < catalog.numClients(); ++c) {
    run.clients.push_back(catalog.clientNode(c));
  }
  for (std::uint32_t s = 0; s < catalog.numServers(); ++s) {
    run.servers.push_back(catalog.serverNode(s));
  }

  // Second-scale leases so expiry, renewal, and the recovery wait all
  // happen inside a seconds-long real run.
  proto::ProtocolConfig& config = run.config;
  config.algorithm = *proto::algorithmByName(flags.getString("algorithm"));
  config.objectTimeout = msec(3000);
  config.volumeTimeout = msec(800);
  config.msgTimeout = msec(400);
  config.readTimeout = msec(1500);
  config.clockEpsilon = std::max<SimDuration>(run.skewBudget, msec(100));
  config.faultInjectIgnoreInvalidations = flags.getBool("break-invalidation");

  run.drain = config.readTimeout + msec(1000);

  if (flags.getString("scenario") == "recovery") {
    // Deterministic acceptance scenario: SIGKILL the server a third of
    // the way in, restart it after an outage longer than t_v, and let
    // the checker prove no write commits inside the silence window and
    // no read goes stale across the reboot.
    const SimTime crashAt = run.duration / 3;
    const SimDuration outage = std::max<SimDuration>(
        msec(1200), config.volumeTimeout + config.clockEpsilon + msec(300));
    run.plan.crashWindow(crashAt, crashAt + outage, run.servers[0]);
  } else {
    Rng planRng(seed);
    net::FaultPlan::RandomOptions po;
    po.intensity =
        *net::FaultPlan::intensityByName(flags.getString("intensity"));
    po.horizon = run.duration;
    po.maxLossProbability = 0.25 * po.intensity;
    po.maxClockSkew = run.skewBudget;
    // The generator's window means are tuned for half-hour simulated
    // horizons; scale them into this run's seconds-long horizon.
    po.windowScale = toSeconds(run.duration) / 120.0;
    po.minWindow = msec(500);
    run.plan = net::FaultPlan::random(planRng, po, run.clients, run.servers);
  }
  return run;
}

rt::CheckerOptions checkerOptionsFor(const HarnessRun& run) {
  rt::CheckerOptions o;
  o.writeWaitBase =
      std::min(run.config.objectTimeout, run.config.volumeTimeout);
  o.volumeTimeout = run.config.volumeTimeout;
  o.clockEpsilon = run.config.clockEpsilon;
  o.msgTimeout = run.config.msgTimeout;
  o.slack = msec(600);
  o.skewBudget = run.skewBudget;
  o.horizon = run.duration;
  o.plan = run.plan;
  o.servers = run.servers;
  return o;
}

std::string nodeLogPath(const std::string& dir, std::uint32_t node) {
  return dir + "/node" + std::to_string(node) + ".log";
}

/// Create `dir` unless it already is a directory; on failure print why,
/// naming the path, and return false.
bool makeLogDir(const std::string& dir) {
  struct stat st;
  if (::mkdir(dir.c_str(), 0755) == 0 ||
      (errno == EEXIST && ::stat(dir.c_str(), &st) == 0 &&
       S_ISDIR(st.st_mode))) {
    return true;
  }
  std::fprintf(stderr, "cannot create log directory '%s': %s\n", dir.c_str(),
               errno == EEXIST ? "not a directory" : std::strerror(errno));
  return false;
}

// ---------------------------------------------------------------------
// worker mode: host ONE protocol node against real sockets
// ---------------------------------------------------------------------

std::vector<std::uint16_t> parsePorts(const std::string& csv) {
  std::vector<std::uint16_t> ports;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) {
      ports.push_back(static_cast<std::uint16_t>(std::stoul(item)));
    }
  }
  return ports;
}

int workerMain(const Flags& flags) {
  const auto nodeIdx = static_cast<std::uint32_t>(flags.getInt("node"));
  const bool coldRestart = flags.getBool("cold-restart");
  const HarnessRun run =
      buildRun(static_cast<std::uint64_t>(flags.getInt("run-seed")), flags);
  const trace::Catalog& catalog = run.workload.catalog;
  const std::uint32_t numServers = catalog.numServers();
  const NodeId self = makeNodeId(nodeIdx);
  const std::vector<std::uint16_t> ports = parsePorts(flags.getString("ports"));
  if (nodeIdx >= catalog.numNodes() || ports.size() != catalog.numNodes()) {
    std::fprintf(stderr, "vlease_rt worker: bad --node/--ports\n");
    return 2;
  }
  const std::string logPath =
      nodeLogPath(flags.getString("log-dir"), nodeIdx);

  rt::RealTimeDriver driver;
  driver.alignStart(flags.getInt("t0-micros"));
  stats::Metrics metrics;

  rt::TcpTransport::Options topts;
  topts.connectTimeoutMs = 250;
  topts.retryBackoffCapMs = 40;
  topts.maxRetries = 2;
  topts.writeStallTimeoutMs = 250;
  topts.jitterSeed = run.seed * 0x9e3779b97f4a7c15ull + nodeIdx;
  rt::TcpTransport transport(driver, metrics, ports[nodeIdx], topts);
  for (std::uint32_t j = 0; j < catalog.numNodes(); ++j) {
    if (j != nodeIdx) transport.addPeer(makeNodeId(j), "127.0.0.1", ports[j]);
  }

  rt::FaultShim shim(run.plan, self, &driver,
                     run.seed ^ (0x517cc1b727220a95ull * (nodeIdx + 1)));
  transport.setFaultHook(&shim);
  driver.setStepHook([&shim](SimTime rawNow) { shim.advance(rawNow); });

  proto::ProtocolContext ctx{driver.scheduler(), transport, metrics, catalog,
                             nullptr};

  std::FILE* log = std::fopen(logPath.c_str(), "a");
  if (log == nullptr) {
    std::fprintf(stderr, "vlease_rt worker: cannot open %s\n",
                 logPath.c_str());
    return 2;
  }
  const auto append = [log](const std::string& line) {
    std::fwrite(line.data(), 1, line.size(), log);
    std::fflush(log);  // a SIGKILL loses at most the current line
  };

  // A respawned worker joins mid-timeline: events from before its birth
  // belong to the dead incarnation and are skipped.
  const SimTime resumeFrom = std::max<SimTime>(driver.elapsed(), 0);
  const SimTime stopAt = run.duration + run.drain;
  int exitCode = 0;

  if (nodeIdx < numServers) {
    const auto mode =
        run.config.algorithm == proto::Algorithm::kVolumeDelayedInval
            ? core::InvalidationMode::kDelayed
            : core::InvalidationMode::kImmediate;

    // "Stable storage" = the durable log of the previous incarnations:
    // restore versions past anything a client might have seen (+2
    // covers one in-flight bump the crash may have lost) and present
    // a bumped epoch so reconnecting clients run MUST_RENEW_ALL. The
    // recovery rule runs on real wall clock: silent for one volume-
    // lease term + epsilon from THIS process's start.
    std::vector<std::pair<ObjectId, Version>> versions;
    std::vector<std::pair<VolumeId, Epoch>> epochs;
    SimTime recoverUntil = 0;
    if (coldRestart) {
      const rt::RunLog prior = rt::loadRunLog(logPath);
      std::vector<std::pair<std::uint64_t, Version>> maxV;
      for (const rt::WriteRecord& w : prior.writes) {
        bool found = false;
        for (auto& [obj, v] : maxV) {
          if (obj == raw(w.obj)) {
            v = std::max(v, w.version);
            found = true;
          }
        }
        if (!found) maxV.emplace_back(raw(w.obj), w.version);
      }
      for (const auto& [obj, v] : maxV) {
        versions.emplace_back(makeObjectId(obj), v + 2);
      }
      // Per-volume epoch resume: each volume continues from ITS last
      // logged value (+1 for the crash), not a server-wide scalar -- a
      // shared counter would let a quiet volume's epoch ride a busy
      // volume's crashes and mask a real regression.
      for (std::size_t v = 0; v < catalog.numVolumes(); ++v) {
        const VolumeId volId = makeVolumeId(v);
        if (catalog.volume(volId).server != self) continue;
        Epoch last = 1;
        for (const rt::EpochRecord& rec : prior.epochs) {
          if (rec.vol == volId) last = rec.epoch;  // log order: latest wins
        }
        epochs.emplace_back(volId, last + 1);
      }
      recoverUntil = addSat(std::max<SimTime>(driver.elapsed(), 0),
                            run.config.volumeTimeout + run.config.clockEpsilon);
    }

    core::VolumeServer server(ctx, self, run.config, mode);
    transport.attach(self, &server);
    if (coldRestart) {
      server.restoreAfterRestart(versions, epochs, recoverUntil);
    }
    // One epoch line per owned volume (the old harness logged only
    // volume 0, hiding every other volume from the ratchet check).
    for (std::size_t v = 0; v < catalog.numVolumes(); ++v) {
      const VolumeId vol = makeVolumeId(v);
      if (catalog.volume(vol).server != self) continue;
      append(rt::formatEpochLine(vol, server.volumeEpoch(vol)));
    }
    sim::Scheduler& sched = driver.scheduler();
    for (const trace::TraceEvent& ev : run.workload.events) {
      if (ev.kind != trace::EventKind::kWrite) continue;
      if (catalog.object(ev.obj).server != self) continue;
      if (ev.at <= resumeFrom) continue;
      const ObjectId obj = ev.obj;
      sched.scheduleAt(ev.at, [&sched, &server, &append, obj]() {
        const SimTime issuedAt = sched.now();
        append(rt::formatWriteIssueLine(obj, issuedAt));
        server.write(obj, [&sched, &append, obj,
                           issuedAt](const proto::WriteResult& r) {
          rt::WriteRecord w;
          w.obj = obj;
          w.version = r.newVersion;
          w.issuedAt = issuedAt;
          w.completedAt = sched.now();
          w.delay = r.delay;
          append(rt::formatWriteLine(w));
        });
      });
    }
    sched.scheduleAt(stopAt, [&driver]() { driver.stop(); });
    driver.run();
  } else {
    core::VolumeClient client(ctx, self, run.config);
    transport.attach(self, &client);
    for (const trace::TraceEvent& ev : run.workload.events) {
      if (ev.kind != trace::EventKind::kRead) continue;
      if (ev.client != self) continue;
      if (ev.at <= resumeFrom) continue;
      const ObjectId obj = ev.obj;
      driver.scheduler().scheduleAt(
          ev.at, [&driver, &client, &append, obj, self]() {
            const SimTime issuedAt = driver.scheduler().now();
            client.read(obj, [&driver, &append, obj, self,
                              issuedAt](const proto::ReadResult& r) {
              rt::ReadRecord rec;
              rec.client = self;
              rec.obj = obj;
              rec.issuedAt = issuedAt;
              rec.completedAt = driver.scheduler().now();
              rec.ok = r.ok;
              rec.usedNetwork = r.usedNetwork;
              rec.version = r.version;
              append(rt::formatReadLine(rec));
            });
          });
    }
    driver.scheduler().scheduleAt(stopAt, [&driver]() { driver.stop(); });
    driver.run();
  }

  std::fclose(log);
  return exitCode;
}

// ---------------------------------------------------------------------
// parent mode: spawn workers, execute the plan, audit, replay in sim
// ---------------------------------------------------------------------

struct WorkerSpec {
  std::string execPath;
  std::vector<std::string> sharedArgs;  // everything but --node/--cold-restart
};

pid_t spawnWorker(const WorkerSpec& spec, std::uint32_t node,
                  bool coldRestart) {
  std::vector<std::string> args;
  args.push_back(spec.execPath);
  args.insert(args.end(), spec.sharedArgs.begin(), spec.sharedArgs.end());
  args.push_back("--node");
  args.push_back(std::to_string(node));
  if (coldRestart) args.push_back("--cold-restart");

  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  ::execv(spec.execPath.c_str(), argv.data());
  std::perror("execv");
  ::_exit(127);
}

/// Reserve N distinct free loopback ports (bind 0, record, close). A
/// tiny race with other processes exists; workers that lose it abort
/// and the seed fails loudly rather than silently.
std::vector<std::uint16_t> probePorts(std::size_t n) {
  std::vector<std::uint16_t> ports;
  std::vector<int> fds;
  for (std::size_t i = 0; i < n; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) break;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      break;
    }
    socklen_t len = sizeof(addr);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    ports.push_back(ntohs(addr.sin_port));
    fds.push_back(fd);  // hold until all are picked, so they're distinct
  }
  for (const int fd : fds) ::close(fd);
  return ports;
}

struct SeedVerdict {
  std::uint64_t seed = 0;
  rt::ParityCounts real;
  std::int64_t simStale = 0;
  std::int64_t simLost = 0;
  std::int64_t simDelay = 0;
  std::vector<std::string> notes;
  bool workerTrouble = false;  // a worker exited non-zero unexpectedly

  std::int64_t simTotal() const { return simStale + simLost + simDelay; }
  bool pass() const {
    return !workerTrouble && real.total() == 0 && simTotal() == 0;
  }
};

SeedVerdict runSeed(std::uint64_t seed, const Flags& flags,
                    const std::string& logRoot, const std::string& execPath) {
  SeedVerdict verdict;
  verdict.seed = seed;
  const HarnessRun run = buildRun(seed, flags);
  const trace::Catalog& catalog = run.workload.catalog;
  const std::uint32_t numNodes = catalog.numNodes();
  const std::uint32_t numServers = catalog.numServers();

  const std::string logDir = logRoot + "/seed" + std::to_string(seed);
  if (!makeLogDir(logDir)) {
    verdict.workerTrouble = true;
    return verdict;
  }

  const std::vector<std::uint16_t> ports = probePorts(numNodes);
  if (ports.size() != numNodes) {
    std::fprintf(stderr, "seed %llu: could not reserve %u ports\n",
                 static_cast<unsigned long long>(seed), numNodes);
    verdict.workerTrouble = true;
    return verdict;
  }
  std::string portsCsv;
  for (std::size_t i = 0; i < ports.size(); ++i) {
    if (i > 0) portsCsv += ",";
    portsCsv += std::to_string(ports[i]);
  }

  // Everything workers need to re-derive the identical run. t0 sits
  // slightly in the future so all workers are listening before the
  // shared timeline starts.
  const std::int64_t t0 = steadyNowMicros() + 400'000;
  WorkerSpec spec;
  spec.execPath = execPath;
  spec.sharedArgs = {
      "--run-seed",      std::to_string(seed),
      "--intensity",     flags.getString("intensity"),
      "--algorithm",     flags.getString("algorithm"),
      "--scenario",      flags.getString("scenario"),
      "--duration-ms",   std::to_string(flags.getInt("duration-ms")),
      "--skew-ms",       std::to_string(flags.getInt("skew-ms")),
      "--clients",       std::to_string(flags.getInt("clients")),
      "--objects",       std::to_string(flags.getInt("objects")),
      "--volumes-per-server",
      std::to_string(flags.getInt("volumes-per-server")),
      "--ports",         portsCsv,
      "--t0-micros",     std::to_string(t0),
      "--log-dir",       logDir,
  };
  if (flags.getBool("break-invalidation")) {
    spec.sharedArgs.push_back("--break-invalidation");
  }

  std::vector<pid_t> pids(numNodes, -1);
  for (std::uint32_t i = 0; i < numNodes; ++i) {
    pids[i] = spawnWorker(spec, i, /*coldRestart=*/false);
  }

  // Execute the crash/recover lane against the live processes on the
  // shared raw timeline.
  rt::FaultInjector::Callbacks callbacks;
  callbacks.kill = [&](NodeId node, SimTime) {
    const std::uint32_t i = raw(node);
    if (i >= numNodes || pids[i] <= 0) return;
    ::kill(pids[i], SIGKILL);
    ::waitpid(pids[i], nullptr, 0);
    pids[i] = -1;
  };
  callbacks.respawn = [&](NodeId node, SimTime) {
    const std::uint32_t i = raw(node);
    if (i >= numNodes || pids[i] > 0) return;
    // Servers resume from their durable log; clients restart cold (a
    // fresh client process IS the cold cache).
    pids[i] = spawnWorker(spec, i, /*coldRestart=*/i < numServers);
  };
  rt::FaultInjector injector(run.plan, callbacks);

  const SimTime horizon = run.duration + run.drain;
  for (;;) {
    const SimTime now = steadyNowMicros() - t0;
    injector.advance(now);
    if (now >= horizon) break;
    ::usleep(5000);
  }

  // Workers self-stop at horizon; give them a moment, then force.
  const std::int64_t reapDeadline = steadyNowMicros() + 3'000'000;
  for (std::uint32_t i = 0; i < numNodes; ++i) {
    if (pids[i] <= 0) continue;
    for (;;) {
      int status = 0;
      const pid_t r = ::waitpid(pids[i], &status, WNOHANG);
      if (r == pids[i]) {
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
          std::fprintf(stderr, "seed %llu: worker %u exited abnormally\n",
                       static_cast<unsigned long long>(seed), i);
          verdict.workerTrouble = true;
        }
        break;
      }
      if (r < 0) break;  // already reaped (killed by the injector)
      if (steadyNowMicros() > reapDeadline) {
        ::kill(pids[i], SIGKILL);
        ::waitpid(pids[i], nullptr, 0);
        std::fprintf(stderr, "seed %llu: worker %u hung past drain\n",
                     static_cast<unsigned long long>(seed), i);
        verdict.workerTrouble = true;
        break;
      }
      ::usleep(10'000);
    }
  }

  // ---- audit the real run ----
  rt::RunLog merged;
  for (std::uint32_t i = 0; i < numNodes; ++i) {
    merged.merge(rt::loadRunLog(nodeLogPath(logDir, i)));
  }
  verdict.real = rt::checkRealRun(merged, checkerOptionsFor(run),
                                  &verdict.notes);

  // ---- replay the identical (workload, plan, seed) in the simulator ----
  driver::SimOptions sim;
  sim.networkLatency = msec(5);
  sim.faultPlan = std::make_shared<const net::FaultPlan>(run.plan);
  sim.enableOracle = true;
  sim.oracleAuditPeriod = msec(500);
  sim.oracleSkewBound = run.skewBudget;
  driver::Simulation replay(catalog, run.config, sim);
  replay.run(run.workload.events);
  const driver::ConsistencyOracle* oracle = replay.oracle();
  verdict.simStale =
      oracle->violations(driver::ViolationKind::kStaleRead) +
      oracle->violations(driver::ViolationKind::kCacheInconsistency);
  verdict.simLost = oracle->violations(driver::ViolationKind::kLostWrite);
  verdict.simDelay =
      oracle->violations(driver::ViolationKind::kWriteDelayBound) +
      oracle->violations(driver::ViolationKind::kBlockedWrite);
  return verdict;
}

int parentMain(const Flags& flags, const std::string& execPath) {
  std::string logRoot = flags.getString("log-dir");
  const bool madeRoot = logRoot.empty();
  if (madeRoot) {
    char tmpl[] = "/tmp/vlease_rt.XXXXXX";
    const char* dir = ::mkdtemp(tmpl);
    if (dir == nullptr) {
      std::fprintf(stderr, "mkdtemp failed\n");
      return 1;
    }
    logRoot = dir;
  } else if (!makeLogDir(logRoot)) {
    return 1;
  }

  const std::int64_t seeds = flags.getInt("seeds");
  const std::int64_t seedBase = flags.getInt("seed-base");
  std::printf("vlease_rt: %lld seed(s), intensity=%s, algorithm=%s, "
              "scenario=%s, duration=%lldms, logs in %s\n",
              static_cast<long long>(seeds),
              flags.getString("intensity").c_str(),
              flags.getString("algorithm").c_str(),
              flags.getString("scenario").c_str(),
              static_cast<long long>(flags.getInt("duration-ms")),
              logRoot.c_str());
  std::printf("%-8s %-28s %-28s %s\n", "seed", "real(stale/lost/delay/rec/ep)",
              "sim(stale/lost/delay)", "verdict");

  int failures = 0;
  for (std::int64_t s = 0; s < seeds; ++s) {
    const auto seed = static_cast<std::uint64_t>(seedBase + s);
    const SeedVerdict v = runSeed(seed, flags, logRoot, execPath);
    char realCol[64];
    std::snprintf(realCol, sizeof(realCol),
                  "%lld/%lld/%lld/%lld/%lld",
                  static_cast<long long>(v.real.staleReads),
                  static_cast<long long>(v.real.lostWrites),
                  static_cast<long long>(v.real.writeDelays),
                  static_cast<long long>(v.real.earlyRecoveryWrites),
                  static_cast<long long>(v.real.epochRegressions));
    char simCol[64];
    std::snprintf(simCol, sizeof(simCol), "%lld/%lld/%lld",
                  static_cast<long long>(v.simStale),
                  static_cast<long long>(v.simLost),
                  static_cast<long long>(v.simDelay));
    std::printf("%-8llu %-28s %-28s %s%s\n",
                static_cast<unsigned long long>(seed), realCol, simCol,
                v.pass() ? "PASS" : "FAIL",
                v.workerTrouble ? " (worker trouble)" : "");
    for (const std::string& note : v.notes) {
      std::printf("         %s\n", note.c_str());
    }
    if (!v.pass()) ++failures;
  }
  std::printf("parity: %s\n", failures == 0 ? "CONSISTENT" : "DIVERGED");
  if (failures > 0) {
    std::printf("logs kept in %s\n", logRoot.c_str());
    return 1;
  }
  // A root this run made holds nothing worth keeping once every seed
  // passed; a --log-dir root belongs to the caller.
  if (madeRoot) {
    std::error_code ec;
    std::filesystem::remove_all(logRoot, ec);
    if (ec) {
      std::fprintf(stderr, "cannot remove '%s': %s\n", logRoot.c_str(),
                   ec.message().c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.addInt("seeds", 8, "number of fault-plan seeds");
  flags.addInt("seed-base", 1, "first seed");
  flags.addString("intensity", "low", "fault intensity: low|medium|high");
  flags.addString("algorithm", "volume", "volume|delay");
  flags.addString("scenario", "chaos",
                  "chaos (seeded FaultPlan) | recovery (deterministic "
                  "mid-run server SIGKILL + cold restart)");
  flags.addInt("duration-ms", 6000, "workload + fault horizon per seed");
  flags.addInt("skew-ms", 200,
               "per-node clock-skew budget executed by offsetting worker "
               "RealTimeDriver clocks (0 = off)");
  flags.addInt("clients", 3, "client processes per seed");
  flags.addInt("objects", 5, "objects on the server");
  flags.addInt("volumes-per-server", 2,
               "volumes on the server; objects spread round-robin, so the "
               "default exercises cross-volume dispatch and per-volume "
               "epochs (1 = the old single-volume harness)");
  flags.addBool("break-invalidation", false,
                "negative control: clients ack invalidations without "
                "applying them; the parity check MUST fail");
  flags.addString("log-dir", "",
                  "run-log directory (parent: root, default a mkdtemp "
                  "root removed when every seed passes; "
                  "workers: their seed's directory)");
  // worker mode
  flags.addInt("node", -1, "worker mode: host node index");
  flags.addInt("run-seed", 0, "worker mode: the seed being run");
  flags.addString("ports", "", "worker mode: csv of per-node ports");
  flags.addInt("t0-micros", 0,
               "worker mode: shared steady-clock zero instant");
  flags.addBool("cold-restart", false,
                "worker mode: server resumes from its durable log and "
                "waits out one lease term + epsilon before writing");
  if (!flags.parse(argc, argv)) return 1;
  const std::string algorithm = flags.getString("algorithm");
  const auto selected = proto::algorithmByName(algorithm);
  if (!selected) {
    std::fprintf(stderr, "unknown algorithm '%s' (volume|delay)\n",
                 algorithm.c_str());
    return 1;
  }
  if (*selected != proto::Algorithm::kVolumeLease &&
      *selected != proto::Algorithm::kVolumeDelayedInval) {
    std::fprintf(stderr,
                 "'%s' is not a volume algorithm; vlease_rt runs "
                 "volume|delay only\n",
                 algorithm.c_str());
    return 1;
  }
  if (!net::FaultPlan::intensityByName(flags.getString("intensity"))) {
    std::fprintf(stderr, "unknown intensity '%s' (low|medium|high)\n",
                 flags.getString("intensity").c_str());
    return 1;
  }
  const std::string scenario = flags.getString("scenario");
  if (scenario != "chaos" && scenario != "recovery") {
    std::fprintf(stderr, "unknown scenario '%s' (chaos|recovery)\n",
                 scenario.c_str());
    return 1;
  }

  if (flags.getInt("node") >= 0) return workerMain(flags);

  char exe[4096];
  const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (n <= 0) {
    std::fprintf(stderr, "cannot resolve /proc/self/exe\n");
    return 1;
  }
  exe[n] = '\0';
  return parentMain(flags, exe);
}
