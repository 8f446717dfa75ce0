// Consistency-protocol framework: the interfaces every algorithm
// implements, the shared configuration, and the result types the driver
// consumes.
//
// An algorithm is a (ClientNode, ServerNode) pair of message-driven state
// machines. They communicate only through net::Transport and take time
// only from sim::Scheduler, so the same code runs under the trace driver,
// the failure tests, and the examples.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/transport.h"
#include "proto/routing.h"
#include "sim/local_clock.h"
#include "sim/scheduler.h"
#include "stats/metrics.h"
#include "trace/catalog.h"
#include "util/ids.h"
#include "util/lifo_index_map.h"
#include "util/time.h"

namespace vlease::proto {

/// Everything an endpoint needs from its environment.
struct ProtocolContext {
  sim::Scheduler& scheduler;
  net::Transport& transport;
  stats::Metrics& metrics;
  const trace::Catalog& catalog;
  /// Per-node clock views for skew experiments; null (the default) means
  /// every node reads the scheduler's global clock exactly.
  const sim::ClockMap* clocks = nullptr;
  /// Volume -> server routing table for federation; null (the default)
  /// means the catalog's static home-server assignment is authoritative
  /// (single-server bindings, rt workers). The driver that performs
  /// online migration owns the table and installs a pointer here.
  const Routing* routing = nullptr;

  /// Current owner of a volume / of an object's volume.
  NodeId serverOf(VolumeId vol) const {
    return routing != nullptr ? routing->serverOf(vol)
                              : catalog.volume(vol).server;
  }
  NodeId serverOf(ObjectId obj) const {
    return serverOf(catalog.object(obj).volume);
  }
};

/// Outcome of a client read.
struct ReadResult {
  /// False when the server was unreachable and the read could not be
  /// served with its consistency guarantee. The paper leaves the
  /// reaction application-specific (error, or stale data + warning); we
  /// surface the failure and let callers decide.
  bool ok = false;
  /// True when satisfying the read required at least one message (the
  /// "read cost" figure of merit in Table 1 is the fraction of reads
  /// with usedNetwork == true).
  bool usedNetwork = false;
  /// True when the read pulled a fresh copy of the data (as opposed to
  /// validating or reusing the cached copy).
  bool fetchedData = false;
  /// The version the client believes it read; the driver compares this
  /// against the server's authoritative version to count stale reads.
  Version version = kNoVersion;
};
using ReadCallback = std::function<void(const ReadResult&)>;

/// Outcome of a server write.
struct WriteResult {
  /// Time the write spent waiting for invalidation acks or lease expiry
  /// (the "ack wait delay" column of Table 1).
  SimDuration delay = 0;
  /// Callback only: the write wanted to wait indefinitely for an
  /// unreachable client. The simulator force-completes it after the
  /// ack-wait bound so the trace can continue, but flags the violation.
  bool blocked = false;
  Version newVersion = kNoVersion;
};
using WriteCallback = std::function<void(const WriteResult&)>;

/// Algorithm selector (Table 1 rows).
enum class Algorithm {
  kPollEachRead,
  kPoll,
  kPollAdaptive,
  kCallback,
  kLease,
  kBestEffortLease,
  kVolumeLease,
  kVolumeDelayedInval,
};

const char* algorithmName(Algorithm algorithm);

/// The tools' --algorithm names and their aliases: poll-each-read (per),
/// poll, poll-adaptive (adaptive), callback, lease, best-effort
/// (besteffort), volume, delay (delayed, volume-delay); nullopt for any
/// other name.
std::optional<Algorithm> algorithmByName(const std::string& name);

struct ProtocolConfig {
  Algorithm algorithm = Algorithm::kVolumeLease;

  /// Object-lease length t (Poll reuses it as the poll timeout).
  SimDuration objectTimeout = sec(100'000);
  /// Volume-lease length t_v (volume algorithms only).
  SimDuration volumeTimeout = sec(100);
  /// Delayed Invalidations' d: how long a client may stay Inactive
  /// (pending list retained) before being moved to Unreachable and its
  /// pending list discarded. kNever = keep forever (the paper's d = inf).
  SimDuration inactiveDiscard = kNever;

  /// Floor on how long a server waits for invalidation acks before
  /// declaring a client unreachable (paper's msgTimeout).
  SimDuration msgTimeout = sec(10);
  /// Client-side give-up bound on a read whose server never answers.
  SimDuration readTimeout = sec(30);

  /// Clock-skew safety margin epsilon. The paper's write-after-
  /// min(t, t_v) rule implicitly assumes client and server clocks
  /// agree; with per-node skew injected (sim::ClockMap) the rule only
  /// holds if both sides back off by epsilon:
  ///   * client-conservative: a client treats a lease as dead once its
  ///     local clock reads expiry - epsilon;
  ///   * server-conservative: a server treats a holder's lease as
  ///     possibly live until expiry + epsilon before writing.
  /// A commit then never precedes a serve-from-cache under any per-node
  /// |skew| <= epsilon (relative skew <= 2*epsilon). Zero (the default)
  /// reproduces the paper's exact arithmetic.
  SimDuration clockEpsilon = 0;

  /// Client cache capacity in objects; 0 = infinite (the paper's §4.1
  /// simplifying assumption). Nonzero enables LRU eviction, which adds
  /// capacity misses and re-fetches the paper's setup factors out.
  std::size_t clientCacheCapacity = 0;

  /// Adaptive Poll (Gwertzman-Seltzer's adaptive TTL, paper §2.2): the
  /// validity window is adaptiveFactor x (object age at validation),
  /// clamped to [adaptiveMinTtl, adaptiveMaxTtl]. Stable objects are
  /// polled rarely, fresh ones often.
  double adaptiveFactor = 0.2;
  SimDuration adaptiveMinTtl = sec(10);
  SimDuration adaptiveMaxTtl = days(7);

  /// Ablation: when true, an object-lease request implicitly renews the
  /// volume lease and the grant carries both (single round trip). The
  /// paper's protocol uses separate volume/object messages.
  bool piggybackVolumeLease = false;

  /// FAULT INJECTION (testing only): clients acknowledge invalidations
  /// without applying them to their caches. This deliberately breaks
  /// every server-invalidation algorithm's consistency guarantee; it
  /// exists so chaos runs can prove the ConsistencyOracle actually
  /// detects violations (a watchdog that never barks is untested).
  bool faultInjectIgnoreInvalidations = false;

  /// Liu & Cao's retransmission scheme (paper §6): BestEffortLease only.
  /// When bestEffortRetries > 0, clients acknowledge invalidations and
  /// the server retransmits unacknowledged ones every retryInterval, up
  /// to the retry budget. Writes still never wait -- retransmission
  /// shrinks the staleness window but (as the paper notes of Liu & Cao)
  /// cannot guarantee strong consistency under partitions.
  int bestEffortRetries = 0;
  SimDuration retryInterval = sec(30);

  /// Batch lease-expiry sweep period for VolumeServer: every period the
  /// server pops from the oldest end of each holder table's grant
  /// (= expiry) order the records whose grace-extended expiry has
  /// passed, accruing them, instead of keeping expired soft state
  /// around until the next write or crash walks over it. 0 (the
  /// default) disables the sweep; any period is observationally
  /// equivalent -- every consumer of a holder record already checks
  /// graceExpire(expire) > now first, so removing a drained record can
  /// never change protocol behavior, only trim the tables writes
  /// iterate. Driven by one self-rearming timer per server, not one
  /// per lease.
  SimDuration leaseSweepPeriod = 0;

  /// Extension (paper §2.4's unexplored option): instead of sending
  /// invalidation messages, the server simply waits for all outstanding
  /// leases on the object (and, for volume algorithms, the volume) to
  /// expire before writing. Zero invalidation traffic, but every write
  /// to a leased object waits out the full remaining lease. Honored by
  /// Lease and the volume algorithms; Callback has no lease to wait out
  /// and BestEffort's point is not waiting, so both ignore it.
  bool writeByLeaseExpiry = false;
};

/// Everything a server hands over when a volume migrates to another
/// server. Holder/lease soft state deliberately stays behind: the
/// epoch bump forces every old holder through the MUST_RENEW_ALL
/// reconnection exchange at the new owner, and `volLeaseBound` tells
/// the new owner how long it must treat unknown pre-migration holders
/// as possibly live before committing a write (the same conservatism
/// the paper's crash recovery applies server-wide).
struct VolumeHandoff {
  VolumeId vol{};
  /// Source's epoch for the volume at handoff (pre-bump; the adopter
  /// ratchets against its own durable memory and applies the bump).
  Epoch epoch = 0;
  /// Upper bound on every pre-migration holder's volume-lease expiry
  /// (grace NOT applied; the adopter applies its own epsilon).
  SimTime volLeaseBound = kSimTimeMin;
  struct ObjectEntry {
    ObjectId obj{};
    Version version = kNoVersion;
  };
  std::vector<ObjectEntry> objects;
};

/// Server endpoint: owns the authoritative copies of the objects in its
/// volumes and drives invalidations.
class ServerNode : public net::MessageSink {
 public:
  ServerNode(ProtocolContext& ctx, NodeId id)
      : ctx_(ctx), id_(id), numServers_(ctx.catalog.numServers()) {
    ctx_.transport.attach(id_, this);
  }
  ~ServerNode() override { ctx_.transport.detach(id_); }

  ServerNode(const ServerNode&) = delete;
  ServerNode& operator=(const ServerNode&) = delete;

  NodeId id() const { return id_; }

  /// Apply a write to an object this server owns. `cb` fires when the
  /// write commits (possibly after waiting for acks / lease expiry);
  /// it may fire synchronously. cb may be null.
  virtual void write(ObjectId obj, WriteCallback cb) = 0;

  /// Authoritative current version (the staleness oracle; not a message).
  virtual Version currentVersion(ObjectId obj) const = 0;

  /// Simulate a crash+reboot losing all in-memory consistency state.
  /// Volume servers implement the paper's epoch-based recovery; the
  /// default (for baselines that keep no recoverable guarantee) clears
  /// nothing and is overridden per algorithm as appropriate.
  virtual void crashAndReboot() {}

  /// Flush time-weighted state accounting up to `now` (end of run).
  virtual void finalizeAccounting(SimTime now) { (void)now; }

  /// Stop self-rearming maintenance timers (e.g. the lease-expiry
  /// sweep) so the driver can drain the scheduler at end of run without
  /// housekeeping extending the horizon. Irreversible for this node.
  virtual void quiesce() {}

  // ---- online volume migration (federation) ----
  // Only the volume-lease server implements these; the baselines have
  // no epoch machinery to hand off safely, so the driver restricts
  // migration to algorithms that advertise support.

  virtual bool supportsMigration() const { return false; }

  /// True when `vol` can be handed off right now: no write is pending
  /// or deferred against it. The driver polls and retries until quiet.
  virtual bool volumeQuiescent(VolumeId vol) const {
    (void)vol;
    return true;
  }

  /// Release ownership of `vol`: discard its lease soft state (accruing
  /// the state integral, like a crash would) and return the durable
  /// facts the new owner needs. Requires volumeQuiescent(vol).
  virtual VolumeHandoff migrateOut(VolumeId vol) {
    (void)vol;
    VL_CHECK_MSG(false, "this server type does not support migration");
    return {};
  }

  /// Take ownership of a migrated volume. The epoch ratchets to
  /// max(local durable epoch, handoff epoch) and -- unless `bumpEpoch`
  /// is false (negative-control hook) -- is bumped past both, so every
  /// pre-migration holder fails the epoch check and reconnects.
  virtual void adoptVolume(const VolumeHandoff& handoff, bool bumpEpoch) {
    (void)handoff;
    (void)bumpEpoch;
    VL_CHECK_MSG(false, "this server type does not support migration");
  }

 protected:
  /// One client's lease on an object or a volume.
  struct LeaseRecord {
    SimTime expire = kSimTimeMin;
    SimTime lastAccounted = 0;
  };
  /// A holder table, keyed by dense client index. It iterates newest-
  /// insertion-first, so every server family fans out in one order.
  using Holders = util::LifoIndexMap<LeaseRecord>;

  std::uint32_t clientIdx(NodeId client) const {
    return raw(client) - numServers_;
  }
  NodeId clientNode(std::uint32_t ci) const {
    return makeNodeId(numServers_ + ci);
  }
  /// The dense slot of an object homed on this server: its catalog
  /// localIndex.
  std::uint32_t nativeSlot(ObjectId obj) const {
    const trace::ObjectInfo& info = ctx_.catalog.object(obj);
    VL_CHECK_MSG(info.server == id_, "object not homed on this server");
    return info.localIndex;
  }

  /// Grant `ci` a lease of `term` from now in `holders` (accruing the
  /// record it replaces) and move it to the newest end of the table's
  /// grant order. Every holder-record expiry is set here.
  const LeaseRecord& renewHolder(Holders& holders, std::uint32_t ci,
                                 SimDuration term);
  /// Accrue and drop `ci`'s record in `holders`, if it has one.
  void removeHolder(Holders& holders, std::uint32_t ci);
  /// Accrue every record in `holders` up to `now`.
  void accrueHolders(Holders& holders, SimTime now);

  ProtocolContext& ctx_;

 private:
  NodeId id_;
  std::uint32_t numServers_;
};

/// Client endpoint: per-client cache plus the algorithm's validation /
/// lease logic.
class ClientNode : public net::MessageSink {
 public:
  ClientNode(ProtocolContext& ctx, NodeId id) : ctx_(ctx), id_(id) {
    ctx_.transport.attach(id_, this);
  }
  ~ClientNode() override { ctx_.transport.detach(id_); }

  ClientNode(const ClientNode&) = delete;
  ClientNode& operator=(const ClientNode&) = delete;

  NodeId id() const { return id_; }

  /// Read an object with the algorithm's consistency guarantee. `cb`
  /// may fire synchronously (cache hit / zero-latency exchange).
  virtual void read(ObjectId obj, ReadCallback cb) = 0;

  /// Drop all cached data and leases (simulates a client restart).
  virtual void dropCache() = 0;

  /// Graceful departure (client churn): like dropCache(), but the
  /// client is expected to stay cold for a while, so implementations
  /// should also return lazily grown storage. Distinct from a crash --
  /// nothing is abrupt, no fault is injected, and the server simply
  /// lets the departed client's leases expire.
  virtual void retire() { dropCache(); }

  /// One cached copy a read would serve without any messages.
  struct Servable {
    ObjectId obj;
    Version version;
  };
  /// Append every (object, version) a read issued at `now` would serve
  /// straight from cache, in no particular order. Pure inspection --
  /// must not touch LRU state or issue requests. The ConsistencyOracle
  /// audits these against the servers' authoritative versions, so each
  /// override walks only the entries its cache holds.
  virtual void servable(SimTime now, std::vector<Servable>& out) const = 0;

 protected:
  /// This client's own reading of global instant `globalNow` (identity
  /// when no ClockMap is installed). Lease-validity checks go through
  /// this; timers and retransmission bookkeeping stay on the global
  /// scheduler clock, which keeps replays deterministic.
  SimTime localTime(SimTime globalNow) const {
    return ctx_.clocks ? ctx_.clocks->localNow(id_, globalNow) : globalNow;
  }
  SimTime localNow() const { return localTime(ctx_.scheduler.now()); }

  ProtocolContext& ctx_;

 private:
  NodeId id_;
};

/// A fully wired protocol deployment: one server endpoint per catalog
/// server, one client endpoint per catalog client.
struct ProtocolInstance {
  /// Stable home of the effective (post-ablation) config: client
  /// endpoints hold pointers into it instead of per-client copies, so
  /// it must outlive them -- shared_ptr keeps the storage put even when
  /// the instance itself is moved.
  std::shared_ptr<const ProtocolConfig> sharedConfig;
  std::vector<std::unique_ptr<ServerNode>> servers;  // by server index
  std::vector<std::unique_ptr<ClientNode>> clients;  // by client index

  /// Static (catalog home-server) lookup; correct whenever no routing
  /// table is installed or no migration has happened.
  ServerNode& serverFor(const trace::Catalog& catalog, ObjectId obj) {
    return *servers[raw(catalog.object(obj).server)];
  }
  /// Routing-aware lookup: the current owner of the object's volume.
  ServerNode& serverFor(const ProtocolContext& ctx, ObjectId obj) {
    return *servers[raw(ctx.serverOf(obj))];
  }
  ServerNode& serverAt(NodeId node) { return *servers[raw(node)]; }
  ClientNode& client(const trace::Catalog& catalog, NodeId node) {
    return *clients[raw(node) - catalog.numServers()];
  }

  void finalizeAccounting(SimTime now) {
    for (auto& s : servers) s->finalizeAccounting(now);
  }

  void quiesce() {
    for (auto& s : servers) s->quiesce();
  }
};

}  // namespace vlease::proto
