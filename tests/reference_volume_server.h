// REFERENCE COPY for the randomized differential test: the pre-dense
// hash-map VolumeServer, frozen as-is. Do not optimize this file; its
// job is to preserve the original node-based-container behavior that
// core::VolumeServer must reproduce.
//
// The server grants long leases on objects and short leases on volumes;
// a write may proceed as soon as EITHER lease has expired for every
// non-acknowledging client. Two modes:
//
//   * kImmediate (paper's "Volume Leases"): writes invalidate every
//     valid object-lease holder (cost C_o) and wait for acks until
//     min(volume-expiry, object-expiry), with a msgTimeout floor;
//     non-ackers join the volume's Unreachable set.
//
//   * kDelayed ("Volume Leases with Delayed Invalidations"): holders
//     whose volume lease has expired are not contacted (cost C_v).
//     Their invalidations queue on a per-client Pending list; the batch
//     is delivered -- and acknowledged -- when the client next renews
//     the volume. After d seconds of inactivity the client moves to
//     Unreachable and its pending list is discarded.
//
// Fault tolerance follows the paper exactly:
//   * Unreachable clients renewing a volume run the reconnection
//     exchange (MUST_RENEW_ALL -> RENEW_OBJ_LEASES -> batch
//     invalidate/renew -> ack -> volume grant) that repairs their
//     object-lease state (§3.1.1);
//   * crashAndReboot() bumps every volume's epoch, discards all lease
//     state, and delays writes until the longest granted volume lease
//     has drained ("stable storage" keeps only that high-water mark and
//     the epoch counters, §3.1.2); clients presenting a stale epoch are
//     treated as unreachable.
//
// Consistency guards beyond the pseudocode (needed once messages have
// real latency; no-ops in the paper's zero-latency sequential model):
//   * while a write is in flight, object-lease requests for that object
//     and all volume-lease traffic for its volume are deferred until
//     commit, so no lease is granted on a version about to change;
//   * a client mid-flush (pending-list delivery) counts as an immediate
//     invalidation target for concurrent writes.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/volume_server.h"  // for core::InvalidationMode
#include "proto/protocol.h"

namespace vlease::testref {

class RefVolumeServer final : public proto::ServerNode {
 public:
  RefVolumeServer(proto::ProtocolContext& ctx, NodeId id,
               const proto::ProtocolConfig& config, core::InvalidationMode mode)
      : ServerNode(ctx, id), config_(config), mode_(mode) {}

  void write(ObjectId obj, proto::WriteCallback cb) override;
  Version currentVersion(ObjectId obj) const override;
  void deliver(const net::Message& msg) override;
  void crashAndReboot() override;
  void finalizeAccounting(SimTime now) override;

  // ---- introspection hooks for tests ----
  bool isUnreachable(NodeId client, VolumeId vol) const;
  bool isInactive(NodeId client, VolumeId vol) const;
  std::size_t pendingMessageCount(NodeId client, VolumeId vol) const;
  Epoch volumeEpoch(VolumeId vol) const;
  std::size_t validObjectHolders(ObjectId obj) const;
  std::size_t validVolumeHolders(VolumeId vol) const;
  SimTime recoveryUntil() const { return recoveryUntil_; }

 private:
  struct LeaseRecord {
    SimTime expire = kSimTimeMin;
    SimTime lastAccounted = 0;
  };
  struct PendingMsg {
    ObjectId obj;
    SimTime lastAccounted;
    SimTime discardAt;  // volExpiredAt + d (kNever when d = inf)
  };
  struct InactiveClient {
    SimTime volExpiredAt;
    std::vector<PendingMsg> pending;
  };
  struct VolState {
    Epoch epoch = 1;
    SimTime expire = kSimTimeMin;  // aggregate lease horizon
    std::unordered_map<NodeId, LeaseRecord> holders;
    std::unordered_set<NodeId> unreachable;
    std::unordered_map<NodeId, InactiveClient> inactive;
    /// Writes currently in flight on objects of this volume; volume
    /// grant / reconnection traffic defers while > 0.
    int pendingWrites = 0;
    std::deque<std::function<void()>> deferred;
  };
  struct ObjState {
    Version version = 1;
    SimTime expire = kSimTimeMin;  // aggregate lease horizon
    std::unordered_map<NodeId, LeaseRecord> holders;
  };
  struct PendingWrite {
    proto::WriteCallback cb;
    SimTime requestedAt = 0;
    std::unordered_set<NodeId> waiting;
    sim::TimerHandle timer;
    std::deque<net::Message> deferredObjRequests;
    std::deque<proto::WriteCallback> queuedWrites;
    /// Invalidate-by-waiting (writeByLeaseExpiry): no messages were
    /// sent; at commit, holders whose object leases are still valid owe
    /// an invalidation via the pending-list / Unreachable machinery.
    bool byExpiry = false;
    /// Holders skipped because they are Unreachable still gate the
    /// commit until min(their volume expiry, their object expiry): an
    /// unreachable client with both leases valid can serve reads, so
    /// committing on acks alone would let it serve the old version.
    SimTime skipBound = kSimTimeMin;
  };
  /// In-flight multi-step exchange with one client on one volume:
  /// reconnection (after MUST_RENEW_ALL) or pending-list flush.
  struct Session {
    enum class Kind { kReconnect, kFlush } kind;
    bool awaitingAck = false;  // batch sent, ack not yet received
    /// When this exchange began. A RenewObjLeases that reached the
    /// server before this instant answers an EARLIER MustRenewAll (it
    /// sat on the volume's deferred queue behind a pending write) and
    /// describes a stale cache snapshot; reconciling against it would
    /// skip objects the client acquired since, leaving them un-renewed
    /// AND un-invalidated -- a stale read once the volume is granted.
    SimTime startedAt = kSimTimeMin;
    sim::TimerHandle timer;
  };

  /// Server-conservative expiry: for write-blocking decisions a
  /// holder's lease counts as possibly live until expire + epsilon, so
  /// a client whose clock runs up to epsilon slow has stopped serving
  /// by the time the write commits. Zero epsilon reproduces the paper's
  /// exact write-after-min(t, t_v) arithmetic.
  SimTime graceExpire(SimTime expire) const {
    return addSat(expire, config_.clockEpsilon);
  }

  VolState& vol(VolumeId id) { return volumes_[id]; }
  ObjState& objState(ObjectId id) { return objects_[id]; }
  VolumeId volumeOf(ObjectId obj) const {
    return ctx_.catalog.object(obj).volume;
  }

  // message handlers
  void handleReqVolLease(const net::Message& msg);
  void handleReqObjLease(const net::Message& msg);
  void handleRenewObjLeases(const net::Message& msg);
  /// `arrivedAt`: when the message first reached the server (deferral
  /// behind a pending write preserves it; see Session::startedAt).
  void processRenewObjLeases(const net::Message& msg, SimTime arrivedAt);
  void handleAckInvalidate(const net::Message& msg);
  void handleAckBatch(const net::Message& msg);

  /// Re-validates (unreachable? pending flush? write in flight?) and
  /// then grants, reconnects, or flushes as appropriate.
  void maybeGrantVolume(NodeId client, VolumeId volId);
  void grantVolume(NodeId client, VolumeId volId);
  void grantObject(const net::Message& msg);
  void startReconnect(NodeId client, VolumeId volId);
  void startFlush(NodeId client, VolumeId volId);
  void endSession(NodeId client, VolumeId volId);
  Session* findSession(NodeId client, VolumeId volId);

  void writeInternal(ObjectId obj, proto::WriteCallback cb,
                     SimTime requestedAt);
  void startWrite(ObjectId obj, proto::WriteCallback cb, SimTime requestedAt);
  void commitWrite(ObjectId obj);
  void drainVolumeDeferred(VolumeId volId);

  void removeObjHolder(ObjState& st, NodeId client);
  void removeVolHolder(VolState& st, NodeId client);
  void discardPending(VolState& st, NodeId client);
  /// Append `obj` to `in`'s pending list unless it is already there.
  void queuePending(InactiveClient& in, ObjectId obj, SimTime now);
  /// Move an inactive-past-d client to Unreachable (lazy d enforcement).
  void demoteIfExpired(VolState& st, NodeId client, SimTime now);

  const proto::ProtocolConfig config_;
  const core::InvalidationMode mode_;

  std::unordered_map<VolumeId, VolState> volumes_;
  std::unordered_map<ObjectId, ObjState> objects_;
  std::unordered_map<ObjectId, PendingWrite> pendingWrites_;
  std::map<std::pair<NodeId, VolumeId>, Session> sessions_;

  /// "Stable storage" (survives crashAndReboot): the high-water mark of
  /// granted volume leases, used to bound the recovery wait. Versions
  /// and epochs live with the data and also survive; only lease state
  /// is lost on a crash.
  SimTime maxVolExpireGranted_ = kSimTimeMin;
  SimTime recoveryUntil_ = kSimTimeMin;
};

}  // namespace vlease::testref
