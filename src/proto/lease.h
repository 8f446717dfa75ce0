// Server-driven baselines (paper §2.3-2.4): Callback, Lease, and the
// conclusion's Best Effort Lease, as one parameterized implementation.
//
//   * Lease(t): clients hold object leases of length t; before writing,
//     the server invalidates every valid lease holder and waits for acks
//     or lease expiry (Gray & Cheriton).
//   * Callback: the degenerate never-expiring lease. Writes want to wait
//     indefinitely for unreachable clients; the simulator force-commits
//     after msgTimeout and flags the write as blocked (see
//     WriteResult::blocked) so traces can continue.
//   * BestEffortLease(t): invalidations are fire-and-forget -- writes
//     never wait and clients do not ack. An unreachable client can read
//     stale data until its lease expires (staleness bounded by t).
//
// Grant requests arriving while a write to the same object is in flight
// are deferred until the write commits, so a lease is never granted on a
// version about to be replaced.
//
// State layout: the volume server's dense state (DESIGN.md §4). Objects
// are a vector indexed by catalog localIndex; each holds its holder
// table (ServerNode::Holders, keyed by client index, fanned out newest-
// grant-first) and the in-flight write, if any. A write's ack wait is a
// vector of client indices in send order; an ack finds its entry by a
// linear scan, which is cheap at the baselines' client counts.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "proto/client_cache.h"
#include "proto/protocol.h"

namespace vlease::proto {

enum class LeaseMode { kLease, kCallback, kBestEffort };

class LeaseServer final : public ServerNode {
 public:
  LeaseServer(ProtocolContext& ctx, NodeId id, const ProtocolConfig& config,
              LeaseMode mode)
      : ServerNode(ctx, id),
        config_(config),
        mode_(mode),
        objects_(ctx.catalog.objectsOnServer(id)) {}

  void write(ObjectId obj, WriteCallback cb) override;
  Version currentVersion(ObjectId obj) const override;
  void deliver(const net::Message& msg) override;
  void crashAndReboot() override;
  void finalizeAccounting(SimTime now) override;

 private:
  struct PendingWrite {
    WriteCallback cb;
    SimTime startedAt = 0;
    std::vector<std::uint32_t> waiting;  // client indices, in send order
    sim::TimerHandle timer;
    std::vector<net::Message> deferredRequests;
    std::vector<WriteCallback> queuedWrites;
  };
  struct ObjState {
    Version version = 1;
    /// Aggregate "time by which all current leases will have expired".
    SimTime expire = kSimTimeMin;
    Holders holders;  // by client index
    std::unique_ptr<PendingWrite> pending;  // the in-flight write
  };

  ObjState& state(ObjectId obj) { return objects_[nativeSlot(obj)]; }
  SimTime leaseLength() const {
    return mode_ == LeaseMode::kCallback ? kNever : config_.objectTimeout;
  }
  /// Server-conservative expiry: for write-blocking decisions a lease
  /// counts as possibly live until expire + epsilon, covering holders
  /// whose clocks run up to epsilon slow (ProtocolConfig::clockEpsilon).
  SimTime graceExpire(SimTime expire) const {
    return addSat(expire, config_.clockEpsilon);
  }
  void handleLeaseRequest(const net::Message& msg);
  void writeInternal(ObjectId obj, WriteCallback cb, SimTime requestedAt);
  void startWrite(ObjectId obj, WriteCallback cb, SimTime requestedAt);
  void commitWrite(ObjectId obj, bool viaTimeout);

  /// Liu-Cao retransmission state (BestEffort with retries): one entry
  /// per unacknowledged invalidation.
  struct RetryState {
    int remaining;
    sim::TimerHandle timer;
  };
  void scheduleRetry(ObjectId obj, NodeId client, int remaining);

  const ProtocolConfig config_;
  const LeaseMode mode_;
  std::vector<ObjState> objects_;  // by catalog localIndex
  std::map<std::pair<ObjectId, NodeId>, RetryState> retries_;
  /// Gray & Cheriton's recovery rule: after a reboot (lease state lost)
  /// the server must not write until every lease it could have granted
  /// has expired. Callback has no such bound -- a crash genuinely breaks
  /// its consistency, which the paper counts against it.
  SimTime recoveryUntil_ = kSimTimeMin;
};

class LeaseClient final : public ClientNode {
 public:
  /// `config` is captured by reference and must outlive the client (the
  /// factory's ProtocolInstance::sharedConfig).
  LeaseClient(ProtocolContext& ctx, NodeId id, const ProtocolConfig& config,
              LeaseMode mode)
      : ClientNode(ctx, id),
        config_(&config),
        mode_(mode),
        cache_(config.clientCacheCapacity),
        pending_(ctx.scheduler) {}

  void read(ObjectId obj, ReadCallback cb) override;
  void dropCache() override { cache_.clear(); }
  void deliver(const net::Message& msg) override;
  void servable(SimTime now, std::vector<Servable>& out) const override {
    const SimTime guard = leaseGuard(now);
    cache_.forEach([&](ObjectId obj, const LeaseCache::Entry& entry) {
      if (entry.valid(guard)) out.push_back({obj, entry.version()});
    });
  }

 private:
  /// Client-conservative expiry clock: validity is evaluated against
  /// this client's own (possibly skewed) reading of `globalNow` plus
  /// epsilon, so a lease dies epsilon early on the local clock.
  SimTime leaseGuard(SimTime globalNow) const {
    return addSat(localTime(globalNow), config_->clockEpsilon);
  }

  const ProtocolConfig* config_;
  const LeaseMode mode_;
  LeaseCache cache_;
  PendingReads pending_;
};

}  // namespace vlease::proto
