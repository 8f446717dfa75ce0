// scale_renew and chaos_writes: streaming replays of a seeded
// trace::EventStream through driver::Simulation's incremental interface,
// event by event, the way tools/vlease_scale drives it.
//
// A "case" is one (catalog, stream, config, fault plan) tuple; a cycle
// replays every case of the workload once. Untraced runs first make one
// model cycle (reads and writes issued through issueRead/issueWrite with
// callbacks, for the simulated latency distributions), then time a fixed
// number of shipped-path cycles (inject/drainTo only) that depends on
// --seconds alone, with a host probe every kEventsPerProbe events. Every
// cycle's simulated counters must equal the model cycle's. Traced runs
// compare one untraced cycle with one traced cycle and add the
// workload's extra layer measurements.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>

#include "common.h"
#include "driver/simulation.h"
#include "net/fault_plan.h"
#include "trace/stream.h"
#include "util/rng.h"

namespace vlbench {

using namespace vlease;

namespace {

constexpr std::size_t kTypes = net::kNumPayloadTypes;

struct SimCase {
  std::unique_ptr<trace::Catalog> catalog;
  std::vector<ObjectId> objects;
  trace::StreamOptions stream;
  proto::ProtocolConfig config;
  driver::SimOptions sim;
};

// scale_renew is the vlease_scale gate point (`--clients 50000`, 100 us
// interarrival) shrunk 25x in population and stretched 25x in spacing:
// each client still reads every 5 s and revisits a (client, object) pair
// every 320 s, as at the gate, but the pass covers 2500 s of simulated
// time. Object leases (120 s) and volume leases (30 s) therefore expire
// between visits, the 1 s sweep finds expired records, and each pair is
// revisited about eight times, so most reads are renewals of an expired
// lease rather than first fetches. scaleFlags() must stay in step.
constexpr std::uint32_t kScaleClients = 2'000;
constexpr std::int64_t kScaleEvents = 1'000'000;
constexpr std::int64_t kScaleInterarrivalUs = 2'500;

SimCase makeScaleCase(std::uint64_t seed) {
  SimCase c;
  c.catalog = std::make_unique<trace::Catalog>(1, kScaleClients);
  std::vector<VolumeId> volumes;
  for (int v = 0; v < 4; ++v) {
    volumes.push_back(c.catalog->addVolume(c.catalog->serverNode(0)));
  }
  for (std::uint64_t o = 0; o < 64; ++o) {
    c.objects.push_back(
        c.catalog->addObject(volumes[o % volumes.size()], 8 << 10));
  }
  c.stream.seed = seed;
  c.stream.events = kScaleEvents;
  c.stream.numClients = kScaleClients;
  c.stream.interarrival = usec(kScaleInterarrivalUs);
  c.stream.writeEvery = 8192;
  c.stream.flashAt = c.stream.interarrival * (kScaleEvents / 2);
  c.stream.flashDuration = msec(2000);
  c.stream.diurnalPeriod = sec(3600);

  c.config.algorithm = proto::Algorithm::kVolumeLease;
  c.config.objectTimeout = sec(120);
  c.config.volumeTimeout = sec(30);
  c.config.msgTimeout = sec(5);
  c.config.readTimeout = sec(15);
  c.config.piggybackVolumeLease = true;
  c.config.leaseSweepPeriod = msec(1000);
  c.sim.networkLatency = msec(1);
  return c;
}

std::vector<std::string> scaleFlags(std::uint64_t seed) {
  return {"--clients",         std::to_string(kScaleClients),
          "--events",          std::to_string(kScaleEvents),
          "--interarrival-us", std::to_string(kScaleInterarrivalUs),
          "--seed",            std::to_string(seed)};
}

// chaos_writes: 2 servers x 2 volumes, Zipf(0.9) over 512 objects, one
// write per 16 events, Delay + piggybacked renewals, a random fault plan
// at intensity 0.5 and one away-and-back migration, oracle on.
constexpr std::uint32_t kChaosClients = 5'000;
constexpr std::int64_t kChaosEvents = 200'000;
// The fault plans are fixed; --seed draws the event streams. Plan seeds
// 2 and 7 are the two schedules on which stale reads under Delay +
// piggybacked renewals were first reproduced; keeping them fixed means
// every run replays those schedules, and run-to-run spread measures the
// program rather than the plan draw (one plan crashes a server for
// minutes, another barely isolates a client).
constexpr int kChaosCases = 2;
constexpr std::uint64_t kChaosPlanSeeds[kChaosCases] = {2, 7};

SimCase makeChaosCase(std::uint64_t streamSeed, std::uint64_t planSeed,
                      bool ignoreInvalidations, bool oracle) {
  SimCase c;
  c.catalog = std::make_unique<trace::Catalog>(2, kChaosClients);
  std::vector<VolumeId> volumes;
  for (std::uint32_t s = 0; s < 2; ++s) {
    for (int v = 0; v < 2; ++v) {
      volumes.push_back(c.catalog->addVolume(c.catalog->serverNode(s)));
    }
  }
  for (std::uint64_t o = 0; o < 512; ++o) {
    c.objects.push_back(
        c.catalog->addObject(volumes[o % volumes.size()], 8 << 10));
  }
  c.stream.seed = streamSeed;
  c.stream.events = kChaosEvents;
  c.stream.numClients = kChaosClients;
  c.stream.interarrival = msec(1);
  c.stream.writeEvery = 16;
  c.stream.zipfSkew = 0.9;

  c.config.algorithm = proto::Algorithm::kVolumeDelayedInval;
  c.config.objectTimeout = sec(120);
  c.config.volumeTimeout = sec(10);
  c.config.msgTimeout = sec(5);
  c.config.readTimeout = sec(15);
  c.config.piggybackVolumeLease = true;
  c.config.faultInjectIgnoreInvalidations = ignoreInvalidations;

  const SimTime horizon = c.stream.interarrival * kChaosEvents;
  std::vector<NodeId> clients, servers;
  for (std::uint32_t i = 0; i < c.catalog->numClients(); ++i) {
    clients.push_back(c.catalog->clientNode(i));
  }
  for (std::uint32_t i = 0; i < c.catalog->numServers(); ++i) {
    servers.push_back(c.catalog->serverNode(i));
  }
  Rng planRng(planSeed);
  net::FaultPlan::RandomOptions plan;
  plan.intensity = 0.5;
  plan.horizon = horizon;
  plan.maxLossProbability = 0.25 * plan.intensity;
  c.sim.faultPlan = std::make_shared<const net::FaultPlan>(
      net::FaultPlan::random(planRng, plan, clients, servers));
  c.sim.networkLatency = msec(5);
  c.sim.enableOracle = oracle;
  c.sim.oracleAuditPeriod = sec(10);
  // Server 0's first volume moves to server 1 a third of the way in and
  // comes home at two thirds.
  c.sim.migrations.push_back(
      {horizon / 3, volumes[0], c.catalog->serverNode(1), true});
  c.sim.migrations.push_back(
      {2 * horizon / 3, volumes[0], c.catalog->serverNode(0), true});
  return c;
}

/// Without the oracle its audit timer no longer fires, so neither the
/// fired count nor the violation count can match an oracle-on run.
bool sameWithoutOracle(SimCounters a, SimCounters b) {
  a.fired = b.fired = 0;
  a.oracleViolations = b.oracleViolations = 0;
  return a == b;
}

SimCounters simCounters(driver::Simulation& sim, const trace::Catalog& catalog,
                        const SimCounters& trace) {
  SimCounters c = countersOf(sim.metrics(), catalog);
  c.fired = sim.scheduler().firedCount();
  c.events = trace.events;
  c.readEvents = trace.readEvents;
  c.writeEvents = trace.writeEvents;
  return c;
}

void countEvent(const trace::TraceEvent& e, SimCounters& c) {
  ++c.events;
  if (e.kind == trace::EventKind::kRead) ++c.readEvents;
  if (e.kind == trace::EventKind::kWrite) ++c.writeEvents;
}

using CaseFactory = std::function<SimCase(int index)>;

/// Set-ups timed after each timed cycle.
constexpr int kSetupsPerCycle = 40;

/// A run that takes this many times --seconds stops timing cycles early
/// (and says so) instead of overrunning the run's time limit.
constexpr double kMaxStretch = 2.5;

/// A probed replay runs a host probe after every this many events.
constexpr std::int64_t kEventsPerProbe = 16'384;

struct Pass {
  SimCounters counters;
  double buildSec = 0;  // catalog, objects, fault plan, EventStream
  double replaySec = 0;  // wall time, probes left out
  /// The replay's thread CPU time, probes left out, and the probes'.
  ProbedTime cpu;
};

/// The shipped path: exactly tools/vlease_scale's loop. With `probed`,
/// the loop pauses for a host probe every kEventsPerProbe events.
Pass replayShipped(const CaseFactory& factory, int index, bool probed = false) {
  Pass p;
  const std::int64_t s0 = nowNs();
  SimCase c = factory(index);
  trace::EventStream events(c.stream, *c.catalog, c.objects);
  const std::int64_t sb = nowNs();
  driver::Simulation sim(*c.catalog, c.config, c.sim);
  const std::int64_t s1 = nowNs();
  std::int64_t sliceStart = threadCpuNs();
  std::int64_t sliceEvents = 0, probeWallNs = 0;
  trace::TraceEvent event;
  while (events.next(event)) {
    sim.drainTo(event.at);
    sim.inject(event);
    sim.drainTo(event.at);
    countEvent(event, p.counters);
    if (probed && ++sliceEvents == kEventsPerProbe) {
      p.cpu.workNs += threadCpuNs() - sliceStart;
      const std::int64_t w0 = nowNs();
      p.cpu.probeNs += HostProbe::instance().run();
      ++p.cpu.probes;
      probeWallNs += nowNs() - w0;
      sliceEvents = 0;
      sliceStart = threadCpuNs();
    }
  }
  sim.finish();
  p.cpu.workNs += threadCpuNs() - sliceStart;
  const std::int64_t s2 = nowNs();
  p.counters = simCounters(sim, *c.catalog, p.counters);
  p.buildSec = static_cast<double>(sb - s0) * 1e-9;
  p.replaySec = static_cast<double>(s2 - s1 - probeWallNs) * 1e-9;
  return p;
}

/// Returns the heap a finished pass freed to the system, so every
/// set-up starts from the same state (its pages not yet mapped) and peak
/// RSS reflects one pass, not how fragmented many passes left the heap.
void releaseFreedMemory() { ::malloc_trim(0); }

/// Everything the model (and traced) replay measures besides counters.
struct ModelOut {
  Pass pass;
  std::vector<double> readLatencyMs;  // sim time, successful reads
  std::vector<double> writeDelayMs;   // WriteResult::delay
  std::int64_t pendingPeak = 0;
  /// Read events whose (client, object) pair the trace had not produced
  /// before: with no cache limit and no faults, every other read is
  /// either served locally or a renewal.
  std::int64_t firstTouchReads = 0;
};

struct TraceCtx {
  Tracer* tracer = nullptr;
  MessageSample* sample = nullptr;
};

/// Reads and writes go through issueRead/issueWrite with callbacks so
/// the simulated read latency and write delay can be recorded. With a
/// tracer, every node's sink is wrapped in a TracedSink and the
/// benchmark's calls into trace/driver are spanned.
ModelOut replayModel(const CaseFactory& factory, int index, TraceCtx tc,
                     std::uint64_t opBase) {
  ModelOut out;
  const std::int64_t s0 = nowNs();
  SimCase c = factory(index);
  trace::EventStream events(c.stream, *c.catalog, c.objects);
  const std::int64_t sb = nowNs();
  driver::Simulation sim(*c.catalog, c.config, c.sim);
  const std::int64_t s1 = nowNs();

  Tracer* tr = tc.tracer;
  std::vector<std::unique_ptr<TracedSink>> sinks;
  std::uint32_t nNext = 0, nStep = 0, nDrain = 0, nInject = 0, nRead = 0,
                nWrite = 0;
  std::array<std::uint32_t, kTypes> serverNames{}, clientNames{};
  if (tr != nullptr) {
    nNext = tr->nameId("trace.next");
    nStep = tr->nameId("driver.step");
    nDrain = tr->nameId("driver.drainTo");
    nInject = tr->nameId("driver.inject");
    nRead = tr->nameId("driver.issueRead");
    nWrite = tr->nameId("driver.issueWrite");
    serverNames = deliverNames(*tr, "core.server_deliver");
    clientNames = deliverNames(*tr, "core.client_deliver");
    proto::ProtocolInstance& proto = sim.protocol();
    for (auto& s : proto.servers) {
      sinks.push_back(std::make_unique<TracedSink>(*s, *tr, serverNames,
                                                   tc.sample));
      sim.network().attach(s->id(), sinks.back().get());
    }
    for (auto& cl : proto.clients) {
      sinks.push_back(std::make_unique<TracedSink>(*cl, *tr, clientNames,
                                                   tc.sample));
      sim.network().attach(cl->id(), sinks.back().get());
    }
  }

  sim::Scheduler& sched = sim.scheduler();
  std::vector<double>& readLat = out.readLatencyMs;
  std::vector<double>& writeDelay = out.writeDelayMs;
  std::unordered_set<std::uint64_t> touched;
  std::int64_t pendingPeak = 0;
  std::uint64_t op = opBase;
  trace::TraceEvent event;
  for (;;) {
    if (tr != nullptr) {
      tr->setOp(++op);
      tr->open(nNext);
    }
    const bool more = events.next(event);
    if (tr != nullptr) tr->close();
    if (!more) break;
    if (tr != nullptr) tr->open(nStep);
    {
      if (tr != nullptr) tr->open(nDrain);
      sim.drainTo(event.at);
      if (tr != nullptr) tr->close();
      if (event.kind == trace::EventKind::kRead) {
        if (tr == nullptr &&
            touched.insert(static_cast<std::uint64_t>(raw(event.client)) << 32 |
                           raw(event.obj))
                .second) {
          ++out.firstTouchReads;
        }
        if (tr != nullptr) tr->open(nRead);
        const SimTime issued = sched.now();
        sim.issueRead(event.client, event.obj,
                      [&readLat, &sched, issued](const proto::ReadResult& r) {
                        if (r.ok) {
                          readLat.push_back(
                              static_cast<double>(sched.now() - issued) /
                              1e3);
                        }
                      });
      } else if (event.kind == trace::EventKind::kWrite) {
        if (tr != nullptr) tr->open(nWrite);
        sim.issueWrite(event.obj,
                       [&writeDelay](const proto::WriteResult& w) {
                         writeDelay.push_back(static_cast<double>(w.delay) /
                                              1e3);
                       });
      } else {
        if (tr != nullptr) tr->open(nInject);
        sim.inject(event);
      }
      if (tr != nullptr) tr->close();
      if (tr != nullptr) tr->open(nDrain);
      sim.drainTo(event.at);
      if (tr != nullptr) tr->close();
    }
    if (tr != nullptr) tr->close();
    pendingPeak = std::max<std::int64_t>(
        pendingPeak, static_cast<std::int64_t>(sched.pendingCount()));
    countEvent(event, out.pass.counters);
  }
  if (tr != nullptr) tr->open(tr->nameId("driver.finish"));
  sim.finish();
  if (tr != nullptr) tr->close();
  const std::int64_t s2 = nowNs();
  out.pass.counters = simCounters(sim, *c.catalog, out.pass.counters);
  out.pass.buildSec = static_cast<double>(sb - s0) * 1e-9;
  out.pass.replaySec = static_cast<double>(s2 - s1) * 1e-9;
  out.pendingPeak = pendingPeak;
  // Every committed write must have reached its callback.
  if (out.pass.counters.writes != static_cast<std::int64_t>(writeDelay.size())) {
    out.pass.counters.writes = -1;  // forces a counter mismatch
  }
  return out;
}

struct Workload {
  int cases = 1;
  /// Timed cycles per second of --seconds, fixed so that the work a run
  /// times depends on --seconds only; chosen so that a run fits its time
  /// budget on the recording host (perfbench/README.md).
  double cyclesPerSecond = 1;
  CaseFactory factory;
  CaseFactory controlFactory;   // chaos: invalidations ignored
  CaseFactory oracleOffFactory; // chaos: same cases, oracle off
  bool crossCheckScale = false;
  /// Report the first-touch and renewal read shares. They only add up
  /// without faults, where a read is local, a first fetch or a renewal.
  bool faultFree = false;
};

/// Runs the workload's vlease_scale twin and compares its JSON counters.
void crossCheckScale(const Args& args, const SimCounters& mine, Result& r) {
  std::string cmd = "'" + args.toolsDir + "/vlease_scale'";
  for (const std::string& f : scaleFlags(args.seed)) cmd += " " + f;
  std::FILE* p = ::popen(cmd.c_str(), "r");
  if (p == nullptr) {
    r.fail("vlease_scale cross-check: cannot start " + cmd);
    return;
  }
  std::string json;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, p)) > 0) json.append(buf, n);
  const int status = ::pclose(p);
  if (status != 0) {
    r.fail("vlease_scale cross-check: exit status " + std::to_string(status));
    return;
  }
  auto field = [&json](const std::string& key) -> std::optional<long long> {
    const std::string pat = "\"" + key + "\": ";
    const std::size_t at = json.find(pat);
    if (at == std::string::npos) return std::nullopt;
    return std::atoll(json.c_str() + at + pat.size());
  };
  const struct {
    const char* key;
    std::int64_t mine;
  } expect[] = {{"fired_events", mine.fired},
                {"messages", mine.messages},
                {"reads", mine.reads},
                {"cache_local_reads", mine.localReads},
                {"writes", mine.writes},
                {"failed_reads", mine.failedReads},
                {"emitted_events", mine.events}};
  bool match = true;
  for (const auto& e : expect) {
    const auto theirs = field(e.key);
    if (!theirs || *theirs != e.mine) {
      match = false;
      r.fail(std::string("vlease_scale cross-check: ") + e.key + " " +
             (theirs ? std::to_string(*theirs) : "missing") + " != " +
             std::to_string(e.mine));
    }
  }
  std::string flags;
  for (const std::string& f : scaleFlags(args.seed)) flags += " " + f;
  r.notes.push_back("vlease_scale" + flags + " cross-check: " +
                    (match ? "match" : "MISMATCH"));
}

void addSimCounterMetrics(const SimCounters& total, Result& r) {
  addCounterMetrics(total, total.failedOps(/*staleIsFailure=*/true), r);
  r.add("sim.fired", static_cast<double>(total.fired), "count");
  r.add("sim.fired_per_event",
        static_cast<double>(total.fired) / static_cast<double>(total.events),
        "fired/event");
}

Result runSim(const Args& args, const Workload& w) {
  Result r;
  std::vector<double> setups, builds;
  if (!args.trace) {
    // Model cycle: simulated latencies plus the reference counters.
    std::vector<SimCounters> reference;
    SimCounters total;
    std::vector<double> readLat, writeDelay;
    std::int64_t pendingPeak = 0, firstTouch = 0;
    for (int i = 0; i < w.cases; ++i) {
      ModelOut m = replayModel(w.factory, i, {}, 0);
      releaseFreedMemory();
      reference.push_back(m.pass.counters);
      total.add(m.pass.counters);
      readLat.insert(readLat.end(), m.readLatencyMs.begin(),
                     m.readLatencyMs.end());
      writeDelay.insert(writeDelay.end(), m.writeDelayMs.begin(),
                        m.writeDelayMs.end());
      pendingPeak = std::max(pendingPeak, m.pendingPeak);
      firstTouch += m.firstTouchReads;
    }
    // Timed shipped-path cycles, probed. Their number depends on
    // --seconds alone; each metric is the median cycle's.
    std::vector<double> cycleRates, cpuRates, normRates, hostFactors;
    const int planned =
        std::max(2, static_cast<int>(std::lround(args.seconds * w.cyclesPerSecond)));
    const std::int64_t t0 = nowNs();
    for (int cycle = 0; cycle < planned; ++cycle) {
      if (cycle >= 2 &&
          static_cast<double>(nowNs() - t0) * 1e-9 > kMaxStretch * args.seconds) {
        r.notes.push_back("host too slow: timed " + std::to_string(cycle) +
                          " of " + std::to_string(planned) + " cycles");
        break;
      }
      std::int64_t cycleEvents = 0;
      double cycleSec = 0;
      ProbedTime cycleCpu;
      for (int i = 0; i < w.cases; ++i) {
        Pass p = replayShipped(w.factory, i, /*probed=*/true);
        releaseFreedMemory();
        cycleEvents += p.counters.events;
        cycleSec += p.replaySec;
        cycleCpu.add(p.cpu);
        if (!(p.counters == reference[static_cast<std::size_t>(i)])) {
          r.fail("case " + std::to_string(i) +
                 ": counters differ between replays: " +
                 p.counters.describe() + " vs " +
                 reference[static_cast<std::size_t>(i)].describe());
        }
      }
      const auto events = static_cast<double>(cycleEvents);
      cycleRates.push_back(events / cycleSec);
      cpuRates.push_back(events / (static_cast<double>(cycleCpu.workNs) * 1e-9));
      normRates.push_back(events / cycleCpu.referenceSec());
      hostFactors.push_back(cycleCpu.hostFactor());

      // Set-ups alone, back to back after every cycle, so the set-up
      // median rests on many samples spread over the whole run. All but
      // the first of each group start from a warm heap (a trimmed heap
      // adds page-fault time, which follows the host's memory load).
      // Timed like the cycles: thread CPU time in reference seconds, at
      // the host factor the cycle just measured.
      for (int k = 0; k < kSetupsPerCycle; ++k) {
        const std::int64_t s0 = threadCpuNs();
        SimCase c = w.factory(k % w.cases);
        trace::EventStream stream(c.stream, *c.catalog, c.objects);
        driver::Simulation sim(*c.catalog, c.config, c.sim);
        setups.push_back(static_cast<double>(threadCpuNs() - s0) * 1e-9 /
                         cycleCpu.hostFactor());
      }
      releaseFreedMemory();
    }
    r.add("events_per_norm_cpu_s", median(normRates), "events/s");
    r.add("events_per_cpu_s", median(cpuRates), "events/s");
    r.add("events_per_s", median(cycleRates), "events/s");
    r.add("host.probe_factor", median(hostFactors), "ratio");
    r.add("cycles", static_cast<double>(cycleRates.size()), "count");
    r.add("setup_s", median(setups), "s");
    r.add("setups", static_cast<double>(setups.size()), "count");
    addSimCounterMetrics(total, r);
    if (w.faultFree) {
      const double reads = static_cast<double>(total.readEvents);
      r.add("trace.first_touch_read_ratio",
            static_cast<double>(firstTouch) / reads, "ratio");
      r.add("core.renewal_read_ratio",
            static_cast<double>(total.reads - total.localReads - firstTouch) /
                reads,
            "ratio");
    }
    const Dist read = summarize(readLat);
    r.add("sim_read_p99_ms", read.p99, "ms");
    addDist(r, "sim_read_ms", read, "ms");
    const Dist wd = summarize(writeDelay);
    r.add("sim_write_delay_p99_ms", wd.p99, "ms");
    addDist(r, "sim_write_delay_ms", wd, "ms");
    r.add("sim.pending_peak", static_cast<double>(pendingPeak), "count");
    r.add("peak_rss_mb", peakRssMb(), "MB");
    return r;
  }

  // ---- traced run ----
  Tracer tracer;
  MessageSample sample;
  SimCounters traced;
  double untracedSec = 0, tracedSec = 0;
  std::int64_t pendingPeak = 0;
  std::vector<SimCounters> untracedCases;
  for (int i = 0; i < w.cases; ++i) {
    Pass p = replayShipped(w.factory, i);
    untracedSec += p.replaySec;
    untracedCases.push_back(p.counters);
    builds.push_back(p.buildSec);
  }
  std::uint64_t opBase = 0;
  for (int i = 0; i < w.cases; ++i) {
    ModelOut m = replayModel(w.factory, i, {&tracer, &sample}, opBase);
    opBase += static_cast<std::uint64_t>(m.pass.counters.events) + 1;
    tracedSec += m.pass.replaySec;
    traced.add(m.pass.counters);
    pendingPeak = std::max(pendingPeak, m.pendingPeak);
    if (!(m.pass.counters == untracedCases[static_cast<std::size_t>(i)])) {
      r.fail("case " + std::to_string(i) +
             ": traced counters differ from untraced: " +
             m.pass.counters.describe() + " vs " +
             untracedCases[static_cast<std::size_t>(i)].describe());
    }
  }
  addSimCounterMetrics(traced, r);
  r.add("sim.pending_peak", static_cast<double>(pendingPeak), "count");
  r.add("trace_overhead", tracedSec / untracedSec - 1.0, "ratio");

  const double events = static_cast<double>(traced.events);
  const auto& next = tracer.totals("trace.next");
  r.add("trace.next_ns", static_cast<double>(next.totalNs) / static_cast<double>(next.count),
        "ns");
  r.add("trace.build_s", median(builds), "s");
  const auto& step = tracer.totals("driver.step");
  r.add("driver.step_ns", static_cast<double>(step.totalNs) / events, "ns");
  const auto& drain = tracer.totals("driver.drainTo");
  const auto& finish = tracer.totals("driver.finish");
  r.add("sim.self_ns_per_fired",
        static_cast<double>(drain.selfNs + finish.selfNs) /
            static_cast<double>(traced.fired),
        "ns");
  addDeliverMetrics(tracer, "core.server_deliver", "core.server_deliver", r);
  addDeliverMetrics(tracer, "core.client_deliver", "core.client_deliver", r);
  timeWireCodec(sample, r);

  if (w.oracleOffFactory) {
    double offSec = 0;
    for (int i = 0; i < w.cases; ++i) {
      Pass p = replayShipped(w.oracleOffFactory, i);
      offSec += p.replaySec;
      if (!sameWithoutOracle(p.counters,
                             untracedCases[static_cast<std::size_t>(i)])) {
        r.fail("case " + std::to_string(i) +
               ": oracle-off counters differ from oracle-on");
      }
    }
    r.add("driver.oracle_share", 1.0 - offSec / untracedSec, "ratio");
  }
  if (w.controlFactory) {
    Pass p = replayShipped(w.controlFactory, 0);
    const std::int64_t seen = untracedCases[0].staleReads;
    r.add("driver.control_stale_reads", static_cast<double>(p.counters.staleReads),
          "count");
    r.add("driver.control_oracle_violations",
          static_cast<double>(p.counters.oracleViolations), "count");
    r.check(p.counters.staleReads >= 10 * (seen + 1),
            "negative control: ignoring invalidations gave only " +
                std::to_string(p.counters.staleReads) + " stale reads (seed case: " +
                std::to_string(seen) + ")");
  }
  if (w.crossCheckScale) crossCheckScale(args, untracedCases[0], r);

  r.add("trace.spans_kept", static_cast<double>(tracer.spans().size()), "count");
  r.add("trace.spans_dropped", static_cast<double>(tracer.droppedSpans()), "count");
  if (!tracer.write(outPath(args, "spans.tsv"))) {
    r.notes.push_back("could not write " + outPath(args, "spans.tsv"));
  }
  return r;
}

}  // namespace

Result runScaleRenew(const Args& args) {
  Workload w;
  w.cyclesPerSecond = 0.3;
  w.factory = [seed = args.seed](int) { return makeScaleCase(seed); };
  w.crossCheckScale = true;
  w.faultFree = true;
  return runSim(args, w);
}

Result runChaosWrites(const Args& args) {
  Workload w;
  w.cases = kChaosCases;
  w.cyclesPerSecond = 0.2;
  const std::uint64_t base = args.seed * kChaosCases;
  auto make = [base](int i, bool ignoreInvalidations, bool oracle) {
    return makeChaosCase(base + static_cast<std::uint64_t>(i),
                         kChaosPlanSeeds[i], ignoreInvalidations, oracle);
  };
  w.factory = [make](int i) { return make(i, false, true); };
  w.oracleOffFactory = [make](int i) { return make(i, false, false); };
  w.controlFactory = [make](int i) { return make(i, true, true); };
  return runSim(args, w);
}

}  // namespace vlbench
