// Canonical experiment workloads: the BU-like read trace plus the
// paper's synthetic write model, merged into the single stream every
// figure runs on. All benches and integration tests share these so the
// algorithms are compared on identical inputs.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/catalog.h"
#include "trace/events.h"
#include "trace/generator.h"
#include "trace/write_synth.h"

namespace vlease::driver {

struct WorkloadOptions {
  std::uint64_t seed = 1998;
  /// Scales object and read counts; 1.0 reproduces the paper's volumes
  /// (~69k objects, ~1.03M reads, ~210k writes over 120 days).
  double scale = 1.0;
  std::uint32_t numClients = 33;
  std::uint32_t numServers = 1000;
  SimDuration duration = days(120);
  /// Fig. 9: each write drags k ~ Exp(10) same-volume writes.
  bool burstyWrites = false;
};

struct Workload {
  trace::Catalog catalog;
  std::vector<trace::TraceEvent> events;  // reads + writes, merged
  std::int64_t readCount = 0;
  std::int64_t writeCount = 0;
  std::vector<std::int64_t> readsPerServer;  // by server index
};

Workload buildWorkload(const WorkloadOptions& options);

/// Small, dense workload for chaos runs: a handful of clients hammering
/// a couple of servers with short think times, so the fault windows of a
/// net::FaultPlan overlap plenty of protocol activity. Objects are
/// picked Zipf-style (shared hot objects make stale reads detectable).
/// Deterministic from the seed.
struct ChaosWorkloadOptions {
  std::uint64_t seed = 7;
  std::uint32_t numClients = 4;
  std::uint32_t numServers = 2;
  std::uint32_t objectsPerServer = 6;
  /// Volumes per server; objects spread round-robin across a server's
  /// volumes, so >= 2 makes traffic exercise per-volume state and
  /// epochs instead of keying every message to each server's volume 0. Default 1 keeps the original
  /// single-volume catalogs (and their goldens) bit-identical.
  std::uint32_t volumesPerServer = 1;
  SimDuration duration = minutes(30);
  double readsPerClientPerSec = 0.5;
  double writesPerObjectPerSec = 0.02;
  /// Flash crowd: this many distinct clients read the coldest object
  /// (the last catalog id, the bottom Zipf rank) in a burst spread over
  /// flashDuration from flashAt. 0 = off. Flash reads are appended
  /// after the base draws and consume no base randomness, so enabling
  /// them leaves the base trace -- and every pre-existing golden --
  /// bit-identical.
  std::uint32_t flashClients = 0;
  SimTime flashAt = minutes(10);
  SimDuration flashDuration = sec(5);
  /// Client churn: every churnPeriod one client departs gracefully
  /// (EventKind::kDepart -> ClientNode::retire(), distinct from a
  /// FaultPlan crash) and re-arrives churnDowntime later. 0 = off.
  SimDuration churnPeriod = 0;
  SimDuration churnDowntime = minutes(2);
};

Workload buildChaosWorkload(const ChaosWorkloadOptions& options);

/// Index (into catalog server numbering) of the k-th busiest server by
/// read count (k = 0 is the most popular).
std::uint32_t nthBusiestServer(const Workload& workload, std::size_t k);

}  // namespace vlease::driver
