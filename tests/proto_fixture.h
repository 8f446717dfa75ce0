// Shared harness for protocol tests: a small catalog plus a wired
// Simulation, with helpers to run synchronous (zero-latency) reads and
// writes and inspect the outcome.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "driver/simulation.h"
#include "trace/catalog.h"

namespace vlease::testing {

struct ProtoHarness {
  /// `objectsPerVolume` objects in one volume per server.
  ProtoHarness(proto::ProtocolConfig config, std::uint32_t numServers = 1,
               std::uint32_t numClients = 2,
               std::uint32_t objectsPerVolume = 3,
               std::int64_t objectBytes = 1000)
      : catalog(numServers, numClients) {
    for (std::uint32_t s = 0; s < numServers; ++s) {
      VolumeId vol = catalog.addVolume(catalog.serverNode(s));
      for (std::uint32_t i = 0; i < objectsPerVolume; ++i) {
        catalog.addObject(vol, objectBytes);
      }
    }
    sim = std::make_unique<driver::Simulation>(catalog, config);
  }

  /// Advance virtual time to `t` (processing everything due).
  void advanceTo(SimDuration t) { sim->drainTo(t); }

  /// Read and drain same-instant activity; returns the result (which is
  /// resolved immediately at zero latency, or after draining to the read
  /// timeout otherwise).
  proto::ReadResult read(std::uint32_t clientIdx, std::uint64_t objIdx) {
    std::optional<proto::ReadResult> result;
    sim->issueRead(catalog.clientNode(clientIdx), makeObjectId(objIdx),
                   [&](const proto::ReadResult& r) { result = r; });
    sim->drainTo(sim->scheduler().now());
    if (!result.has_value()) {
      // Blocked (failure/latency): run the clock out to the timeout.
      sim->drainTo(sim->scheduler().now() + instanceConfig().readTimeout +
                   sec(1));
    }
    EXPECT_TRUE(result.has_value()) << "read never resolved";
    return result.value_or(proto::ReadResult{});
  }

  /// Write and drain; returns the result once the write commits (runs
  /// the clock forward as far as needed).
  proto::WriteResult write(std::uint64_t objIdx) {
    std::optional<proto::WriteResult> result;
    sim->issueWrite(makeObjectId(objIdx),
                    [&](const proto::WriteResult& w) { result = w; });
    sim->drainTo(sim->scheduler().now());
    if (!result.has_value()) {
      // Waiting on acks/lease expiry: let the scheduler run dry.
      while (!result.has_value() && sim->scheduler().step()) {
      }
    }
    EXPECT_TRUE(result.has_value()) << "write never committed";
    return result.value_or(proto::WriteResult{});
  }

  /// Fire-and-forget write (commit may be pending).
  void writeAsync(std::uint64_t objIdx) {
    sim->issueWrite(makeObjectId(objIdx), nullptr);
    sim->drainTo(sim->scheduler().now());
  }

  const proto::ProtocolConfig& instanceConfig() const {
    return *sim->protocol().sharedConfig;
  }
  stats::Metrics& metrics() { return sim->metrics(); }
  net::SimNetwork& network() { return sim->network(); }
  sim::Scheduler& scheduler() { return sim->scheduler(); }
  NodeId client(std::uint32_t idx) const { return catalog.clientNode(idx); }
  NodeId server(std::uint32_t idx = 0) const {
    return catalog.serverNode(idx);
  }
  proto::ServerNode& serverNode(std::uint32_t idx = 0) {
    return *sim->protocol().servers[idx];
  }
  proto::ClientNode& clientNode(std::uint32_t idx) {
    return *sim->protocol().clients[idx];
  }

  trace::Catalog catalog;
  std::unique_ptr<driver::Simulation> sim;
};

}  // namespace vlease::testing
