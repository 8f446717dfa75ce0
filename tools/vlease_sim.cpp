// vlease_sim: run any consistency algorithm over a trace (from a VLTRACE
// file or generated on the fly) and print a full metrics report --
// messages, bytes, per-type breakdown, staleness, write delays, and the
// consistency state / load at the busiest servers.
//
// Internally this is a one-point driver::Sweep; the same SweepSpec with
// more points is what the bench binaries run.
//
//   $ vlease_sim --algorithm delay --t 100000 --tv 100
//   $ vlease_sim --trace trace.vlt --algorithm lease --t 100 --csv
//   $ vlease_sim --algorithm volume --latency-ms 40 --loss 0.01
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "driver/sweep.h"
#include "net/message.h"
#include "trace/trace_io.h"
#include "util/flags.h"

using namespace vlease;

int main(int argc, char** argv) {
  Flags flags;
  flags.addString("trace", "", "VLTRACE file (empty: generate a workload)");
  flags.addString("algorithm", "volume",
                  "poll-each-read|poll|poll-adaptive|callback|lease|"
                  "best-effort|volume|delay");
  flags.addInt("t", 100'000, "object lease / poll timeout, seconds");
  flags.addInt("tv", 100, "volume lease timeout, seconds");
  flags.addInt("d", -1, "Delay's inactive-discard d, seconds (-1 = inf)");
  flags.addInt("msg-timeout", 10, "server ack-wait floor, seconds");
  flags.addBool("piggyback", false, "piggyback volume renewals (ablation)");
  flags.addBool("write-by-expiry", false,
                "invalidate-by-waiting writes (no invalidation messages)");
  flags.addInt("cache", 0, "client LRU cache capacity (0 = infinite)");
  flags.addInt("retries", 0, "Liu-Cao invalidation retransmissions "
                             "(best-effort only)");
  flags.addInt("latency-ms", 0, "one-way network latency, milliseconds");
  flags.addDouble("loss", 0.0, "message loss probability");
  flags.addBool("bursty", false, "generated bursty-write workload");
  flags.addInt("top", 3, "report state/load for the top-K servers");
  driver::addSweepFlags(flags);  // --scale --seed --threads --csv --json
  if (!flags.parse(argc, argv)) return 1;

  auto algorithm = proto::algorithmByName(flags.getString("algorithm"));
  if (!algorithm) {
    std::fprintf(stderr, "unknown algorithm '%s'\n",
                 flags.getString("algorithm").c_str());
    return 1;
  }

  // ---- load or generate the workload ----
  auto makeWorkload = [&]() -> std::optional<driver::Workload> {
    if (!flags.getString("trace").empty()) {
      std::string error;
      auto loaded = trace::readTraceFromFile(flags.getString("trace"), &error);
      if (!loaded) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return std::nullopt;
      }
      return driver::Workload{std::move(loaded->catalog),
                              std::move(loaded->events), 0, 0, {}};
    }
    driver::WorkloadOptions opts = driver::workloadFromFlags(flags);
    opts.burstyWrites = flags.getBool("bursty");
    return driver::buildWorkload(opts);
  };
  std::optional<driver::Workload> maybeWorkload = makeWorkload();
  if (!maybeWorkload) return 1;
  driver::Workload& workload = *maybeWorkload;
  const trace::Catalog& catalog = workload.catalog;

  // ---- declare the (single-point) sweep and run it ----
  proto::ProtocolConfig config;
  config.algorithm = *algorithm;
  config.objectTimeout = sec(flags.getInt("t"));
  config.volumeTimeout = sec(flags.getInt("tv"));
  config.inactiveDiscard =
      flags.getInt("d") < 0 ? kNever : sec(flags.getInt("d"));
  config.msgTimeout = sec(flags.getInt("msg-timeout"));
  config.piggybackVolumeLease = flags.getBool("piggyback");
  config.writeByLeaseExpiry = flags.getBool("write-by-expiry");
  config.clientCacheCapacity =
      static_cast<std::size_t>(flags.getInt("cache"));
  config.bestEffortRetries = static_cast<int>(flags.getInt("retries"));

  driver::SimOptions simOpts;
  simOpts.networkLatency = msec(flags.getInt("latency-ms"));
  simOpts.lossProbability = flags.getDouble("loss");
  simOpts.trackServerLoad = true;

  driver::SweepSpec spec;
  spec.name = "vlsim";
  spec.points.push_back(
      {proto::algorithmName(*algorithm), config, simOpts, "", "", nullptr});

  const auto results =
      driver::runSweep(spec, workload, driver::parallelFromFlags(flags));
  const stats::Metrics& m = results.front().metrics;

  // ---- report ----
  if (flags.getBool("csv") || flags.getBool("json")) {
    driver::Table summary(
        {"algorithm", "t", "tv", "messages", "bytes", "reads", "cacheLocal",
         "stale", "failed", "writes", "delayed", "blocked", "maxDelaySec"});
    summary.addRow({proto::algorithmName(*algorithm),
                    driver::Table::num(flags.getInt("t")),
                    driver::Table::num(flags.getInt("tv")),
                    driver::Table::num(m.totalMessages()),
                    driver::Table::num(m.totalBytes()),
                    driver::Table::num(m.reads()),
                    driver::Table::num(m.cacheLocalReads()),
                    driver::Table::num(m.staleReads()),
                    driver::Table::num(m.failedReads()),
                    driver::Table::num(m.writes()),
                    driver::Table::num(m.delayedWrites()),
                    driver::Table::num(m.blockedWrites()),
                    driver::Table::num(m.writeDelay().max(), 3)});
    driver::emitTable(summary, flags);
    return 0;
  }

  const std::string dText =
      flags.getInt("d") < 0 ? "inf" : std::to_string(flags.getInt("d"));
  std::printf("algorithm: %s  t=%llds tv=%llds d=%s\n",
              proto::algorithmName(*algorithm),
              static_cast<long long>(flags.getInt("t")),
              static_cast<long long>(flags.getInt("tv")), dText.c_str());
  std::printf("trace: %zu objects / %zu volumes / %u servers / %u clients, "
              "horizon %s\n",
              catalog.numObjects(), catalog.numVolumes(),
              catalog.numServers(), catalog.numClients(),
              formatSimTime(m.horizon()).c_str());
  std::printf("\nmessages: %lld total, %lld bytes, %lld dropped\n",
              static_cast<long long>(m.totalMessages()),
              static_cast<long long>(m.totalBytes()),
              static_cast<long long>(m.droppedMessages()));
  driver::Table byType({"message type", "count"});
  for (std::size_t i = 0; i < net::kNumPayloadTypes; ++i) {
    if (m.messagesOfType(i) > 0) {
      byType.addRow({net::payloadTypeName(i),
                     driver::Table::num(m.messagesOfType(i))});
    }
  }
  byType.print(std::cout);

  std::printf("\nreads: %lld (%lld cache-local, %lld stale, %lld failed)\n",
              static_cast<long long>(m.reads()),
              static_cast<long long>(m.cacheLocalReads()),
              static_cast<long long>(m.staleReads()),
              static_cast<long long>(m.failedReads()));
  std::printf(
      "writes: %lld (%lld waited, %lld blocked, max wait %.3fs, mean "
      "%.4fs)\n",
      static_cast<long long>(m.writes()),
      static_cast<long long>(m.delayedWrites()),
      static_cast<long long>(m.blockedWrites()), m.writeDelay().max(),
      m.writeDelay().mean());

  const auto topK = static_cast<std::size_t>(flags.getInt("top"));
  driver::Table busiest(
      {"server", "messages", "avg state bytes", "peak msgs/s"});
  auto order = m.nodesByTraffic();
  std::size_t shown = 0;
  for (NodeId node : order) {
    if (!catalog.isServer(node)) continue;
    busiest.addRow({std::to_string(raw(node)),
                    driver::Table::num(m.node(node).messages()),
                    driver::Table::num(m.avgStateBytes(node), 1),
                    driver::Table::num(m.loadSeries(node).maxValue())});
    if (++shown >= topK) break;
  }
  std::printf("\nbusiest servers:\n");
  busiest.print(std::cout);
  return 0;
}
