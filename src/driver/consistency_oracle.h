// Online consistency oracle for chaos runs.
//
// The oracle shadows a simulation with ground truth and checks, while
// the run is still going, that the algorithm under test delivers the
// consistency it promises *under the faults actually injected*:
//
//   * kStaleRead -- a server-invalidation algorithm (Callback, Lease,
//     Volume, VolumeDelay) served a read whose version differs from the
//     server's authoritative version at completion time.
//   * kCacheInconsistency -- the periodic whole-cache audit found a
//     client that WOULD serve an object locally (valid lease(s)) with a
//     version different from the server's. This is the invariant the
//     lease protocols maintain at every instant: a server only commits
//     a write after every holder acked or every covering lease drained,
//     so a valid-lease cache entry must always match. It also catches a
//     reconnection exchange that left the cache inconsistent.
//   * kWriteDelayBound -- a write waited longer than the paper's ack
//     bound min(t, t_v) (t for Lease) plus msgTimeout, plus a crash-
//     recovery allowance when the owning server rebooted.
//   * kBlockedWrite -- a non-Callback write reported blocked (only a
//     crash, which force-completes in-flight writes, may do that).
//   * kLostWrite -- a write was issued but never completed and the
//     owning server never crashed (crashes legitimately kill in-flight
//     writes; anything else losing one is a protocol bug).
//
// Expected-breakage exemptions (so a clean protocol yields ZERO
// violations even under heavy chaos): Callback is genuinely broken by
// crashes and by force-completed blocked writes -- the paper counts
// that against it -- so the oracle taints the affected objects instead
// of flagging them. The fault-injection flag
// ProtocolConfig::faultInjectIgnoreInvalidations gets NO exemption:
// it exists precisely to prove the oracle fires.
//
// The Poll family is NOT exempt from staleness checks; it is *bounded*:
// Poll's contract (paper §2.2) is that a read never serves data more
// than one validity window stale. The oracle tracks when each version
// was superseded and flags a Poll read/cache entry only when its
// version was superseded more than
//   window + validationLatency + skewBound + slack
// ago, where window is 0 (Poll Each Read), t (Poll), or adaptiveMaxTtl
// (Adaptive Poll's clamp), and validationLatency covers the round trip
// a validation needs to observe a new version. BestEffortLease keeps a
// full exemption: its staleness under partitions is unbounded by
// design (the paper's point), so there is no contract to check.
//
// On each violation the oracle dumps the last-K events (reads, writes,
// faults) from a ring buffer via VL_LOG_WARN, capped so a pathological
// run cannot flood the log. The total lands in
// stats::Metrics::oracleViolations(), which sweeps and tools export.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/fault_plan.h"
#include "proto/protocol.h"
#include "sim/local_clock.h"
#include "stats/metrics.h"
#include "trace/catalog.h"
#include "util/time.h"

namespace vlease::driver {

enum class ViolationKind {
  kStaleRead = 0,
  kCacheInconsistency,
  kWriteDelayBound,
  kBlockedWrite,
  kLostWrite,
};
inline constexpr std::size_t kNumViolationKinds = 5;

const char* violationKindName(ViolationKind kind);

class ConsistencyOracle {
 public:
  struct Options {
    /// Period of the whole-cache audit (Simulation schedules it).
    SimDuration auditPeriod = sec(30);
    /// Events kept for post-mortem dumps.
    std::size_t ringCapacity = 64;
    /// Tolerance added to the write-delay bound (timer granularity and
    /// same-instant scheduling are exact here, but keep the check
    /// honest rather than knife-edge).
    SimDuration slack = sec(1);
    /// Full ring dumps emitted per run before going quiet.
    int maxDumps = 4;
    /// Skew-aware mode: the simulation's per-node clock views (null =
    /// nobody is skewed) plus the deployment's skew budget. A stale
    /// read or cache mismatch by a client whose |skew| is WITHIN the
    /// budget is a hard violation -- the configured epsilon margin was
    /// supposed to cover it; a client skewed beyond the budget is out
    /// of contract, so its staleness is recorded but not flagged.
    const sim::ClockMap* clocks = nullptr;
    SimDuration skewBound = 0;
    /// Poll family only: how long a validation's answer may already be
    /// stale when it arrives (a reply reports the version the server
    /// held when it sent it). Simulation sets this to a full round
    /// trip, 2 x networkLatency; 0 reproduces the sequential model.
    SimDuration validationLatency = 0;
    /// Federation: the driver's live volume -> server table, so the
    /// oracle asks the *current* owner for authoritative versions after
    /// an online migration. Null = the catalog home assignment.
    const proto::Routing* routing = nullptr;
  };

  ConsistencyOracle(const trace::Catalog& catalog,
                    const proto::ProtocolConfig& config,
                    stats::Metrics& metrics, Options options);
  ConsistencyOracle(const trace::Catalog& catalog,
                    const proto::ProtocolConfig& config,
                    stats::Metrics& metrics)
      : ConsistencyOracle(catalog, config, metrics, Options{}) {}

  // ---- hooks (driver::Simulation calls these) ----

  /// A read completed. `authoritative` is the server's version at
  /// completion (ignored when !result.ok).
  void onRead(NodeId client, ObjectId obj, const proto::ReadResult& result,
              Version authoritative, SimTime now);
  void onWriteIssued(ObjectId obj, SimTime now);
  void onWriteComplete(ObjectId obj, const proto::WriteResult& result,
                       SimTime now);
  /// A fault-plan event fired (called before it is applied).
  void onFault(const net::FaultEvent& event, SimTime now);

  /// Instant-by-instant invariant: every client cache entry that would
  /// be served under valid leases matches the server's version.
  void audit(proto::ProtocolInstance& protocol, SimTime now);
  /// End of run: one last audit plus the lost-write sweep.
  void finalAudit(proto::ProtocolInstance& protocol, SimTime now);

  // ---- verdict ----

  std::int64_t violations() const { return total_; }
  std::int64_t violations(ViolationKind kind) const {
    return counts_[static_cast<std::size_t>(kind)];
  }
  /// "ok" or a per-kind breakdown ("stale-read:3 lost-write:1").
  std::string summary() const;

  const Options& options() const { return options_; }

 private:
  struct WriteTrack {
    /// Issue times, FIFO (writes to one object serialize; this holds
    /// the few in flight, so popping the front is cheap).
    std::vector<SimTime> outstanding;
    SimTime lastCompletion = kSimTimeMin;
  };
  struct ServerFaults {
    bool everCrashed = false;
    SimTime lastCrashAt = kSimTimeMin;
    /// Latest instant by which post-crash recovery waits must be over:
    /// max over crashes of (crashAt + recovery bound).
    SimTime graceEnd = kSimTimeMin;
  };
  /// One ring record. The per-event kinds (reads and writes) are a few
  /// plain stores and are formatted only when the ring is dumped; rare
  /// records (faults, taints, exemptions, violations) keep their text.
  struct RingEntry {
    enum class Tag : std::uint8_t {
      kText,
      kRead,
      kReadFailed,
      kWriteIssued,
      kWriteDone,
    };
    SimTime at = 0;
    Tag tag = Tag::kText;
    bool flag = false;  // kRead: stale; kWriteDone: blocked
    NodeId client{};
    ObjectId obj{};
    Version version = kNoVersion;
    Version serverVersion = kNoVersion;  // kRead only
    std::string text;                    // kText only
  };

  /// Longest a write may legitimately wait before the msgTimeout floor
  /// (paper Fig. 3 / §2.3): min(t, t_v) for volume algorithms, t for
  /// Lease and BestEffort, 0 for Callback and the Poll family.
  SimDuration writeWaitBase() const;
  /// How long after a crash the server may keep delaying writes.
  SimDuration recoveryBound() const;
  /// Callback-only: staleness of `obj` is expected breakage (blocked
  /// write tainted it, or its server crashed).
  bool callbackExempt(ObjectId obj) const;
  /// Skew-aware mode: true when `client`'s clock is skewed beyond the
  /// configured budget at `now` (its staleness is out of contract).
  bool skewExempt(NodeId client, SimTime now) const;
  /// Poll family: staleness is bounded rather than forbidden.
  bool pollBounded() const { return pollWindow_ >= 0; }
  /// Latest instant at which serving `served` of `obj` is still within
  /// the Poll contract; kNever when the superseding write was never
  /// observed (nothing to anchor the bound on).
  SimTime pollServeDeadline(ObjectId obj, Version served) const;
  /// Current owner of `obj`'s volume (routing-aware; falls back to the
  /// catalog home server when no table is installed).
  NodeId serverOf(ObjectId obj) const {
    const trace::ObjectInfo& info = catalog_.object(obj);
    return options_.routing != nullptr ? options_.routing->serverOf(info.volume)
                                       : info.server;
  }

  /// Claim the next ring slot for a record made at `at`.
  RingEntry& nextRingEntry(SimTime at, RingEntry::Tag tag);
  void record(SimTime at, std::string text);
  void reportViolation(ViolationKind kind, SimTime now,
                       const std::string& detail);
  std::string dumpRing() const;
  static std::string formatRingEntry(const RingEntry& entry);

  WriteTrack& writeTrack(ObjectId obj);
  /// `server`'s fault record, or null when it never crashed.
  const ServerFaults* crashedServer(NodeId server) const;
  /// Flag tables by raw id (crashed nodes, Callback taints), grown on
  /// first set; an id past the end is unflagged.
  static bool flagAt(const std::vector<char>& flags, std::uint64_t i) {
    return i < flags.size() && flags[i] != 0;
  }
  static void setFlagAt(std::vector<char>& flags, std::uint64_t i, bool on);

  const trace::Catalog& catalog_;
  const proto::ProtocolConfig config_;
  stats::Metrics& metrics_;
  const Options options_;
  const bool strong_;
  /// Poll family's validity window (-1 = not a Poll algorithm): 0 for
  /// Poll Each Read, t for Poll, the adaptiveMaxTtl clamp for Adaptive.
  const SimDuration pollWindow_;

  // Per-object and per-node state, dense by raw id so that every walk
  // over it runs in id order (its ring lines and reports are output).
  std::vector<WriteTrack> writes_;           // by raw(ObjectId)
  std::vector<ServerFaults> serverFaults_;   // by raw(NodeId)
  std::vector<char> crashedNow_;             // by raw(NodeId)
  /// When each (obj, version) was superseded by the next write commit;
  /// anchors the Poll staleness bound. Keyed (raw(obj) << 32) | version.
  std::unordered_map<std::uint64_t, SimTime> supersededAt_;

  // Callback expected-breakage taints.
  std::vector<char> taintedObjects_;  // by raw(ObjectId)
  std::vector<char> taintedServers_;  // by raw(NodeId)

  /// (client, obj) pairs already flagged by the audit, so a persistent
  /// mismatch counts once instead of once per audit tick.
  std::unordered_set<std::uint64_t> auditFlagged_;
  /// Audit scratch: one client's servable entries, reused across calls.
  std::vector<proto::ClientNode::Servable> servable_;

  // Ring buffer of recent events.
  std::vector<RingEntry> ring_;
  std::size_t ringNext_ = 0;
  bool ringWrapped_ = false;

  std::array<std::int64_t, kNumViolationKinds> counts_{};
  std::int64_t total_ = 0;
  int dumpsEmitted_ = 0;
};

}  // namespace vlease::driver
