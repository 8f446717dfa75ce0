// vlease_scale: streaming large-population replay that exercises the
// scheduler's timer cancellation and the batch lease-expiry sweep at
// scale.
//
// The point is the timer plane, not the workload: a large client
// population (up to millions) cycles reads against a small shared
// object set, so every read renews volume/object leases, arms a
// read-timeout timer that the response cancels, and parks session
// timers. Short lease timeouts relative to the inter-visit gap mean most
// holder records are expired soft state, which the periodic sweep
// (one timer per server) trims instead of letting writes
// walk ever-growing tables.
//
// Events come from trace::EventStream, an O(1)-memory generator: they
// are produced and injected one at a time through the incremental
// Simulation interface (inject/drainTo/finish), so --events 100000000
// costs no event memory. Everything is seed-deterministic. On top of
// the fixed-cadence base stream the engine composes Zipfian popularity
// (--zipf), a flash-crowd renewal storm (--flash-crowd), client churn
// (--churn), and a diurnal rate curve (--diurnal); all default off,
// which reproduces the original replay bit for bit.
//
//   $ vlease_scale                                    # smoke config
//   $ vlease_scale --clients 1000000 --events 100000000   # the big run
//   $ vlease_scale --zipf 0.8 --flash-crowd 2000 --track-load
//   $ vlease_scale --clients 50000 --events 5000000 --oracle  # 0 violations
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>

#include "core/volume_client.h"
#include "driver/simulation.h"
#include "trace/stream.h"
#include "util/flags.h"
#include "util/rng.h"

using namespace vlease;

namespace {

/// Peak resident set in kilobytes from /proc/self/status (0 if the
/// field is unavailable, e.g. on a non-Linux host).
long peakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string word;
  while (status >> word) {
    if (word == "VmHWM:") {
      long kb = 0;
      status >> kb;
      return kb;
    }
  }
  return 0;
}

/// Sum of all tracked servers' per-second load buckets over the window
/// [from, to) (whole-second buckets of sim time).
std::int64_t windowLoad(const stats::Metrics& m, const trace::Catalog& catalog,
                        SimTime from, SimTime to) {
  std::int64_t total = 0;
  for (std::uint32_t s = 0; s < catalog.numServers(); ++s) {
    const NodeId node = catalog.serverNode(s);
    if (!m.hasLoadSeries(node)) continue;
    for (const auto& [bucket, count] : m.loadSeries(node).buckets()) {
      if (bucket >= secondBucket(from) && bucket < secondBucket(to)) {
        total += count;
      }
    }
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.addInt("clients", 20'000, "client population");
  flags.addInt("events", 2'000'000, "trace events to stream");
  flags.addInt("objects", 64, "shared objects (low ids keep tables small)");
  flags.addInt("servers", 1, "federated volume servers");
  flags.addInt("volumes", 4, "volumes per server");
  flags.addBool("migrate", false,
                "online migration: halfway through, move server 0's "
                "first volume to server 1 (needs --servers >= 2)");
  flags.addInt("write-every", 8192, "one write per this many events");
  flags.addInt("interarrival-us", 100, "fixed event spacing, microseconds");
  flags.addInt("latency-ms", 1, "one-way network latency, milliseconds");
  flags.addInt("sweep-ms", 1000, "lease-expiry sweep period (0 = off)");
  flags.addInt("seed", 1, "event-stream seed");
  flags.addDouble("zipf", 0.0,
                  "Zipf skew for object popularity (0 = uniform)");
  flags.addInt("flash-crowd", 0,
               "flash crowd: this many distinct clients storm the "
               "coldest object (0 = off)");
  flags.addInt("flash-at-sec", -1,
               "flash-crowd start, sim seconds (-1 = run midpoint)");
  flags.addInt("flash-duration-ms", 2000, "flash-crowd spread");
  flags.addInt("churn", 0,
               "client churn: one depart + one arrive every this many "
               "events (0 = off)");
  flags.addDouble("diurnal", 0.0,
                  "diurnal rate-curve amplitude in [0, 1) (0 = flat)");
  flags.addInt("diurnal-period-sec", 3600, "diurnal period, sim seconds");
  flags.addBool("track-load", false,
                "per-second server load series (flash-window reporting)");
  flags.addBool("oracle", false,
                "run the online consistency oracle (oracle_violations)");
  flags.addBool("break-invalidation", false,
                "NEGATIVE CONTROL: clients ack invalidations without "
                "applying them (the oracle must report violations)");
  flags.addBool("progress", false, "print progress ticks to stderr");
  if (!flags.parse(argc, argv)) return 1;
  // Sizes the catalog, the stream and the network need: a usage error
  // here, not a failed check (or a division by zero) deep in the run.
  const std::pair<const char*, std::int64_t> minimums[] = {
      {"clients", 1}, {"events", 0},          {"objects", 1},
      {"servers", 1}, {"volumes", 1},         {"interarrival-us", 1},
      {"latency-ms", 0}, {"sweep-ms", 0}};
  for (const auto& [name, min] : minimums) {
    if (flags.getInt(name) < min) {
      std::fprintf(stderr, "--%s must be >= %lld\n", name,
                   static_cast<long long>(min));
      return 1;
    }
  }

  const auto numClients = static_cast<std::uint32_t>(flags.getInt("clients"));
  const auto numEvents = flags.getInt("events");
  const auto numObjects = static_cast<std::uint64_t>(flags.getInt("objects"));
  const auto numServers = static_cast<std::uint32_t>(flags.getInt("servers"));
  const auto numVolumes = static_cast<std::uint32_t>(flags.getInt("volumes"));
  const auto writeEvery = flags.getInt("write-every");
  const SimDuration interarrival = usec(flags.getInt("interarrival-us"));
  const bool migrate = flags.getBool("migrate");
  const bool trackLoad = flags.getBool("track-load");
  if (migrate && numServers < 2) {
    std::fprintf(stderr, "--migrate needs --servers >= 2\n");
    return 1;
  }

  // Objects spread round-robin across all servers' volumes, so a
  // multi-server run drives the routing table on every read.
  trace::Catalog catalog(numServers, numClients);
  std::vector<ObjectId> objects;
  objects.reserve(numObjects);
  {
    std::vector<VolumeId> volumes;
    for (std::uint32_t s = 0; s < numServers; ++s) {
      for (std::uint32_t v = 0; v < numVolumes; ++v) {
        volumes.push_back(catalog.addVolume(catalog.serverNode(s)));
      }
    }
    for (std::uint64_t o = 0; o < numObjects; ++o) {
      objects.push_back(catalog.addObject(volumes[o % volumes.size()], 8 << 10));
    }
  }

  trace::StreamOptions stream;
  stream.seed = static_cast<std::uint64_t>(flags.getInt("seed"));
  stream.events = numEvents;
  stream.numClients = numClients;
  stream.interarrival = interarrival;
  stream.writeEvery = writeEvery;
  stream.zipfSkew = flags.getDouble("zipf");
  stream.flashClients = flags.getInt("flash-crowd");
  const std::int64_t flashAtSec = flags.getInt("flash-at-sec");
  stream.flashAt = flashAtSec >= 0 ? sec(flashAtSec)
                                   : interarrival * (numEvents / 2);
  stream.flashDuration = msec(flags.getInt("flash-duration-ms"));
  stream.churnEvery = flags.getInt("churn");
  stream.diurnalAmplitude = flags.getDouble("diurnal");
  stream.diurnalPeriod = sec(flags.getInt("diurnal-period-sec"));

  // Short leases relative to a client's revisit gap (population x
  // interarrival), so nearly every read is a renewal round trip and the
  // holder tables are dominated by expired records for the sweep.
  proto::ProtocolConfig config;
  config.algorithm = proto::Algorithm::kVolumeLease;
  config.objectTimeout = sec(120);
  config.volumeTimeout = sec(30);
  config.msgTimeout = sec(5);
  config.readTimeout = sec(15);
  config.piggybackVolumeLease = true;  // one round trip per cold read
  config.leaseSweepPeriod = msec(flags.getInt("sweep-ms"));
  config.faultInjectIgnoreInvalidations = flags.getBool("break-invalidation");

  driver::SimOptions sim;
  sim.networkLatency = msec(flags.getInt("latency-ms"));
  // The oracle is opt-in (--oracle): by default this is a throughput/
  // footprint run. Its audit cost grows with the entries the caches
  // hold, so it can check a full-population run. The load series is
  // opt-in (--track-load) for the flash-crowd window reporting.
  sim.enableOracle = flags.getBool("oracle");
  sim.trackServerLoad = trackLoad;
  if (migrate) {
    driver::MigrationEvent m;
    m.at = interarrival * (numEvents / 2);
    m.vol = catalog.volumes().front().id;  // server 0's first volume
    m.dstServer = catalog.serverNode(1);
    sim.migrations.push_back(m);
  }

  driver::Simulation simulation(catalog, config,
                                std::move(sim));

  trace::EventStream events(stream, catalog, objects);
  const bool progress = flags.getBool("progress");
  const auto t0 = std::chrono::steady_clock::now();
  std::int64_t arrivals = 0, departs = 0;
  trace::TraceEvent event;
  while (events.next(event)) {
    simulation.drainTo(event.at);
    simulation.inject(event);
    simulation.drainTo(event.at);
    if (event.kind == trace::EventKind::kArrive) ++arrivals;
    if (event.kind == trace::EventKind::kDepart) ++departs;
    if (progress && numEvents >= 10 &&
        events.baseEmitted() % (numEvents / 10) == 0 &&
        event.kind == trace::EventKind::kRead) {
      std::fprintf(
          stderr, "  %3lld%%  (%lld events)\n",
          static_cast<long long>(events.baseEmitted() * 100 / numEvents),
          static_cast<long long>(events.baseEmitted()));
    }
  }
  simulation.finish();
  const auto t1 = std::chrono::steady_clock::now();
  const double wall =
      std::chrono::duration<double>(t1 - t0).count();

  const stats::Metrics& m = simulation.metrics();
  // The flash window and a same-width control window immediately before
  // it: a real storm shows up as windowed server load far above the
  // control, and a no-flash run of the same seed shows no such step.
  std::int64_t flashLoad = -1, controlLoad = -1;
  if (trackLoad) {
    const SimDuration width =
        std::max<SimDuration>(stream.flashDuration, sec(1));
    flashLoad = windowLoad(m, catalog, stream.flashAt,
                           stream.flashAt + width);
    controlLoad = windowLoad(m, catalog, stream.flashAt - width,
                             stream.flashAt);
  }
  // Per-component byte ledger, client caches first: the heap each
  // client's LeaseCache reserves, and the entries it holds. Every
  // client is a VolumeClient (config.algorithm above).
  std::size_t cacheBytes = 0, cacheEntries = 0;
  for (const auto& c : simulation.protocol().clients) {
    const auto& cache = static_cast<const core::VolumeClient&>(*c).cache();
    cacheBytes += cache.memoryBytes();
    cacheEntries += cache.size();
  }
  std::printf(
      "{\n"
      "  \"clients\": %u,\n"
      "  \"events\": %lld,\n"
      "  \"emitted_events\": %lld,\n"
      "  \"arrivals\": %lld,\n"
      "  \"departs\": %lld,\n"
      "  \"objects\": %llu,\n"
      "  \"servers\": %u,\n"
      "  \"migrations\": %zu,\n"
      "  \"volumes\": %u,\n"
      "  \"sweep_ms\": %lld,\n"
      "  \"zipf\": %.2f,\n"
      "  \"flash_crowd\": %lld,\n"
      "  \"flash_window_load\": %lld,\n"
      "  \"control_window_load\": %lld,\n"
      "  \"churn\": %lld,\n"
      "  \"diurnal\": %.2f,\n"
      "  \"sim_horizon_sec\": %.0f,\n"
      "  \"fired_events\": %lld,\n"
      "  \"messages\": %lld,\n"
      "  \"reads\": %lld,\n"
      "  \"cache_local_reads\": %lld,\n"
      "  \"writes\": %lld,\n"
      "  \"failed_reads\": %lld,\n"
      "  \"oracle_violations\": %lld,\n"
      "  \"wall_seconds\": %.3f,\n"
      "  \"events_per_second\": %.0f,\n"
      "  \"fired_per_second\": %.0f,\n"
      "  \"client_cache_bytes\": %zu,\n"
      "  \"client_cache_entries\": %zu,\n"
      "  \"peak_rss_mb\": %.1f\n"
      "}\n",
      numClients, static_cast<long long>(numEvents),
      static_cast<long long>(events.emitted()),
      static_cast<long long>(arrivals), static_cast<long long>(departs),
      static_cast<unsigned long long>(numObjects), numServers,
      simulation.migrationsApplied(), numVolumes,
      static_cast<long long>(flags.getInt("sweep-ms")),
      stream.zipfSkew, static_cast<long long>(stream.flashClients),
      static_cast<long long>(flashLoad), static_cast<long long>(controlLoad),
      static_cast<long long>(stream.churnEvery), stream.diurnalAmplitude,
      static_cast<double>(simulation.scheduler().now()) / 1e6,
      static_cast<long long>(simulation.scheduler().firedCount()),
      static_cast<long long>(m.totalMessages()),
      static_cast<long long>(m.reads()),
      static_cast<long long>(m.cacheLocalReads()),
      static_cast<long long>(m.writes()),
      static_cast<long long>(m.failedReads()),
      static_cast<long long>(m.oracleViolations()), wall,
      static_cast<double>(numEvents) / wall,
      static_cast<double>(simulation.scheduler().firedCount()) / wall,
      cacheBytes, cacheEntries, static_cast<double>(peakRssKb()) / 1024.0);
  return 0;
}
