// Volume-lease server (paper §3, Figs. 2-3): the paper's primary
// contribution.
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
//     Their invalidations queue on a per-client Pending list, one entry
//     per object however often it is written meanwhile; the batch
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
//
// State layout (see DESIGN.md "Dense protocol state"): everything is
// index-addressed. Volumes and objects live in one slot store per kind:
// a native id's slot is its catalog localIndex; a volume adopted from
// another server (federation) and its objects are appended after the
// native slots and found through a raw-id map; one owned flag per slot
// marks the live ones. Holder sets, the Inactive table, and the
// Unreachable set are keyed by the dense client index;
// in-flight writes live in a recycled slot pool referenced from the
// object's state; sessions use a packed (client, volume) 64-bit key in
// a util::FlatMap. Which objects wait on which client's pending list is
// mirrored in one server-wide bitmap -- a row of client bits per object
// that was ever queued, its index kept in the object's state -- so a
// write answers "already pending?" with one load. Steady-state protocol
// traffic allocates nothing.
#pragma once

#include <vector>

#include "proto/protocol.h"
#include "util/flat_map.h"
#include "util/inplace_function.h"
#include "util/lifo_index_map.h"

namespace vlease::core {

enum class InvalidationMode { kImmediate, kDelayed };

class VolumeServer final : public proto::ServerNode {
 public:
  VolumeServer(proto::ProtocolContext& ctx, NodeId id,
               const proto::ProtocolConfig& config, InvalidationMode mode);

  void write(ObjectId obj, proto::WriteCallback cb) override;
  Version currentVersion(ObjectId obj) const override;
  void deliver(const net::Message& msg) override;
  void crashAndReboot() override;
  void finalizeAccounting(SimTime now) override;
  void quiesce() override;

  // ---- online volume migration (federation) ----
  bool supportsMigration() const override { return true; }
  bool volumeQuiescent(VolumeId vol) const override;
  proto::VolumeHandoff migrateOut(VolumeId vol) override;
  void adoptVolume(const proto::VolumeHandoff& handoff,
                   bool bumpEpoch) override;
  /// Whether this server currently owns `vol` (native or adopted).
  bool ownsVolume(VolumeId vol) const { return volLookup(vol) != nullptr; }

  /// Cold process restart (tools/vlease_rt): a brand-new process resumes
  /// this server from "stable storage" -- durably logged versions and the
  /// per-volume epoch counters. All lease state was volatile and is gone;
  /// the epochs are presented pre-bumped by the caller so reconnecting
  /// clients run MUST_RENEW_ALL, and writes refuse to commit until
  /// `recoverUntil` on the new process's clock. When even the
  /// granted-lease high-water mark died with the old process, the caller
  /// must pass one full volume-lease term + epsilon of silence -- the
  /// paper's §3.1.2 recovery rule executed on real wall-clock time.
  /// Restored versions and epochs only ratchet upward (the constructor's
  /// defaults are the floor; a volume returning to a server whose
  /// durable log holds an older epoch must never regress).
  void restoreAfterRestart(
      const std::vector<std::pair<ObjectId, Version>>& versions,
      const std::vector<std::pair<VolumeId, Epoch>>& epochs,
      SimTime recoverUntil);

  // ---- introspection hooks for tests ----
  bool isUnreachable(NodeId client, VolumeId vol) const;
  bool isInactive(NodeId client, VolumeId vol) const;
  std::size_t pendingMessageCount(NodeId client, VolumeId vol) const;
  Epoch volumeEpoch(VolumeId vol) const;
  std::size_t validObjectHolders(ObjectId obj) const;
  std::size_t validVolumeHolders(VolumeId vol) const;
  SimTime recoveryUntil() const { return recoveryUntil_; }
  /// Owned holder records (volume and object) whose grace-extended
  /// expiry is at or before `now`, counted by walking every table: the
  /// records the expiry sweep exists to reclaim.
  std::size_t expiredHolderCount(SimTime now) const;
  /// When the expiry sweep last ran (kSimTimeMin: never).
  SimTime lastSweepAt() const { return lastSweepAt_; }

 private:
  /// Inline capacity for deferred protocol actions: the largest closure
  /// captures [this, net::Message, SimTime] (a deferred RenewObjLeases).
  static constexpr std::size_t kDeferredClosureBytes = 96;
  using DeferredFn = util::InplaceFunction<void(), kDeferredClosureBytes, 8>;

  struct PendingMsg {
    ObjectId obj;
    SimTime lastAccounted;
    SimTime discardAt;  // volExpiredAt + d (kNever when d = inf)
  };
  struct InactiveClient {
    SimTime volExpiredAt = 0;
    std::vector<PendingMsg> pending;  // capacity recycled via the pool
  };
  /// FIFO queue over a flat vector with a consumed-prefix cursor: the
  /// deque's semantics without its per-chunk allocations. Actions
  /// appended mid-drain land behind the cursor and run in order.
  struct DeferredQueue {
    std::vector<DeferredFn> items;
    std::size_t head = 0;
    bool empty() const { return head == items.size(); }
  };
  struct VolState {
    Epoch epoch = 1;
    SimTime expire = kSimTimeMin;  // aggregate lease horizon
    Holders holders;                              // by client index
    std::vector<std::uint8_t> unreachable;        // by client index
    util::LifoIndexMap<InactiveClient> inactive;  // by client index
    /// Writes currently in flight on objects of this volume; volume
    /// grant / reconnection traffic defers while > 0.
    int pendingWrites = 0;
    DeferredQueue deferred;
    /// Whether any protocol activity ever reached this volume. The old
    /// hash-map state created entries lazily, and crashAndReboot bumped
    /// the epoch of existing entries only; preserving that distinction
    /// keeps epoch values bit-identical across the representations.
    bool touched = false;
    /// Delayed mode only, maintained while the expiry sweep is active:
    /// the expiry of a client's last volume lease after the sweep
    /// removed its (drained) holder record -- the one datum the
    /// delayed-invalidation paths still read from expired records (the
    /// Inactive entry's volExpiredAt). kNever = no swept record.
    /// Invalidated by a fresh grant, cleared wholesale on crash.
    std::vector<SimTime> sweptExpire;  // by client index
    /// Migration handoff bound: holders granted by the PREVIOUS owner
    /// are invisible to this server's holder tables, but their
    /// min(volume, object) lease pairs all expire by this instant (the
    /// source's aggregate volume-lease horizon at handoff). Until
    /// graceExpire(handoffBound) passes, writes must treat the volume as
    /// if an unreachable holder with that expiry existed. Never reset:
    /// comparisons are against `now`, so it ages out naturally.
    SimTime handoffBound = kSimTimeMin;
    /// Writes parked on the crash-recovery delay timer (not yet in the
    /// pending-write pool). Migration must wait for these too: the
    /// parked closure re-enters writeInternal on this server.
    int recoveryWrites = 0;
  };
  struct ObjState {
    Version version = 1;
    SimTime expire = kSimTimeMin;  // aggregate lease horizon
    Holders holders;  // by client index
    /// Slot of the in-flight write in pwPool_, kNilIdx when none.
    std::uint32_t pendingWrite = util::kNilIdx;
    /// This object's row of queuedBits_, assigned when it is first
    /// queued on a pending list; kNilIdx while it never was.
    std::uint32_t queuedRow = util::kNilIdx;
  };
  // queuedRow fills the padding after pendingWrite: one ObjState per
  // object, so growing it shows in peak RSS.
  static_assert(sizeof(ObjState) <= 96, "ObjState grew");
  /// Pool slot for an in-flight write. Slots are recycled; the byte-per-
  /// client `waiting` mask is all-zero between uses (ack handling and
  /// commit clear the bits they consume).
  struct PendingWrite {
    proto::WriteCallback cb;
    SimTime requestedAt = 0;
    std::vector<std::uint8_t> waiting;  // by client index
    std::uint32_t waitingCount = 0;
    sim::TimerHandle timer;
    std::vector<net::Message> deferredObjRequests;
    std::vector<proto::WriteCallback> queuedWrites;
    /// Invalidate-by-waiting (writeByLeaseExpiry): no messages were
    /// sent; at commit, holders whose object leases are still valid owe
    /// an invalidation via the pending-list / Unreachable machinery.
    bool byExpiry = false;
    /// Holders skipped because they are Unreachable still gate the
    /// commit until min(their volume expiry, their object expiry): an
    /// unreachable client with both leases valid can serve reads, so
    /// committing on acks alone would let it serve the old version.
    SimTime skipBound = kSimTimeMin;
    bool active = false;
  };
  /// In-flight multi-step exchange with one client on one volume:
  /// reconnection (after MUST_RENEW_ALL) or pending-list flush.
  struct Session {
    enum class Kind { kReconnect, kFlush } kind = Kind::kReconnect;
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

  // ---- dense id plumbing ----
  static std::uint64_t sessionKey(std::uint32_t clientIdx, VolumeId vol) {
    return (static_cast<std::uint64_t>(clientIdx) << 32) | raw(vol);
  }
  /// The slot of a volume/object in volumes_/objects_: its catalog
  /// localIndex when it is native here (no hashing), else the slot it
  /// was adopted into; kNilIdx when this server never held it.
  std::uint32_t volSlot(VolumeId volId) const {
    const trace::VolumeInfo& info = ctx_.catalog.volume(volId);
    if (info.server == id()) return info.localIndex;
    const std::uint32_t* slot = adoptedVolSlot_.find(raw(volId));
    return slot == nullptr ? util::kNilIdx : *slot;
  }
  std::uint32_t objSlot(ObjectId obj) const {
    const trace::ObjectInfo& info = ctx_.catalog.object(obj);
    if (info.server == id()) return info.localIndex;
    const std::uint32_t* slot = adoptedObjSlot_.find(raw(obj));
    return slot == nullptr ? util::kNilIdx : *slot;
  }
  /// Ownership-aware lookup: the volume's state iff this server
  /// currently owns it (native home volume not migrated away, or an
  /// adopted volume). Null otherwise.
  const VolState* volLookup(VolumeId volId) const {
    const std::uint32_t slot = volSlot(volId);
    if (slot == util::kNilIdx || volOwned_[slot] == 0) return nullptr;
    return &volumes_[slot];
  }
  VolState* volLookup(VolumeId volId) {
    return const_cast<VolState*>(
        static_cast<const VolumeServer*>(this)->volLookup(volId));
  }
  VolState& vol(VolumeId volId) {
    VolState* v = volLookup(volId);
    VL_CHECK_MSG(v != nullptr, "VolumeServer: volume not owned here");
    v->touched = true;
    return *v;
  }
  ObjState& objState(ObjectId obj) {
    const std::uint32_t slot = objSlot(obj);
    VL_CHECK_MSG(slot != util::kNilIdx, "VolumeServer: object not owned here");
    VL_DCHECK(objOwned_[slot] != 0);
    return objects_[slot];
  }
  VolumeId volumeOf(ObjectId obj) const {
    return ctx_.catalog.object(obj).volume;
  }
  /// Introspection-safe lookups: null for ids this server holds no state
  /// for. A slot that exists but is currently un-owned (the volume
  /// migrated away) IS returned -- it is this server's durable memory of
  /// the volume (epoch, versions) and tests inspect it.
  const VolState* volFind(VolumeId id) const;
  const ObjState* objFind(ObjectId id) const;
  /// Records in `holders` whose lease is still valid now.
  std::size_t validHolders(const Holders& holders) const;

  /// The volume a message's payload addresses; used by deliver() to
  /// drop stragglers for volumes this server no longer owns (the client
  /// self-heals: its request times out and re-routes via the table).
  VolumeId payloadVolume(const net::Message& msg) const;

  /// Visit every volume/object state this server currently owns, in
  /// slot order: native slots, then adopted ones in adoption order.
  /// Crash, sweep, and accounting loops use these so a migrated-away
  /// volume's durable memory is never mutated.
  template <typename Fn>
  void forEachOwnedVol(Fn&& fn) {
    for (std::size_t i = 0; i < volumes_.size(); ++i) {
      if (volOwned_[i] != 0) fn(volumes_[i]);
    }
  }
  template <typename Fn>
  void forEachOwnedObj(Fn&& fn) {
    for (std::size_t i = 0; i < objects_.size(); ++i) {
      if (objOwned_[i] != 0) fn(objects_[i]);
    }
  }

  bool isUnreach(const VolState& v, std::uint32_t ci) const {
    return ci < v.unreachable.size() && v.unreachable[ci] != 0;
  }
  void setUnreach(VolState& v, std::uint32_t ci) {
    if (v.unreachable.size() < numClients_) {
      v.unreachable.resize(numClients_, 0);
    }
    v.unreachable[ci] = 1;
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
  void endSession(std::uint32_t ci, VolumeId volId);
  Session* findSession(std::uint32_t ci, VolumeId volId);

  void writeInternal(ObjectId obj, proto::WriteCallback cb,
                     SimTime requestedAt);
  void startWrite(ObjectId obj, proto::WriteCallback cb, SimTime requestedAt);
  void commitWrite(ObjectId obj);
  void drainVolumeDeferred(VolumeId volId);

  /// Accrue a volume's holder records and pending lists up to `now`.
  void accrueVolume(VolState& v, SimTime now);
  /// The lease soft state a crash or a migrate-out drops (paper
  /// §3.1.2): accrue it, then clear holders, Inactive entries,
  /// Unreachable, swept expiries and the aggregate expiry. Epochs and
  /// versions stay.
  void dropVolumeLeases(VolState& v, SimTime now);
  void dropObjectLeases(ObjState& st, SimTime now);
  /// Accrue and drop a client's pending list, recycling its storage.
  void discardPending(VolState& st, std::uint32_t ci);
  /// Queue an invalidation of `obj` (whose state is `st`) on Inactive
  /// client `ci`'s pending list unless it is already there; past the
  /// discard bound d the client moves to Unreachable instead.
  void queueInvalidation(VolState& v, ObjState& st, std::uint32_t ci,
                         ObjectId obj, SimTime volExpiredAt, SimTime now);
  /// Accrue every record on `in`'s pending list up to `now`.
  void accruePending(InactiveClient& in, SimTime now);
  /// Empty `ci`'s pending list, clearing the queued bit of every entry,
  /// and return the list's storage to the pool.
  void recyclePending(std::uint32_t ci, InactiveClient& in);
  /// Whether `obj` waits on Inactive client `ci`'s pending list.
  bool onPendingList(const VolState& v, std::uint32_t ci,
                     ObjectId obj) const;

  // ---- queued bits: obj is on ci's pending list iff its bit is set ----
  bool isQueued(const ObjState& st, std::uint32_t ci) const {
    return st.queuedRow != util::kNilIdx &&
           (queuedBits_[queuedWord(st, ci)] & queuedMask(ci)) != 0;
  }
  void setQueued(ObjState& st, std::uint32_t ci) {
    if (st.queuedRow == util::kNilIdx) {
      st.queuedRow =
          static_cast<std::uint32_t>(queuedBits_.size() / queuedWords_);
      queuedBits_.resize(queuedBits_.size() + queuedWords_, 0);
    }
    queuedBits_[queuedWord(st, ci)] |= queuedMask(ci);
  }
  void clearQueued(const ObjState& st, std::uint32_t ci) {
    VL_DCHECK(st.queuedRow != util::kNilIdx);
    queuedBits_[queuedWord(st, ci)] &= ~queuedMask(ci);
  }
  std::size_t queuedWord(const ObjState& st, std::uint32_t ci) const {
    return std::size_t{st.queuedRow} * queuedWords_ + ci / 64;
  }
  static std::uint64_t queuedMask(std::uint32_t ci) {
    return std::uint64_t{1} << (ci % 64);
  }

  /// Drop an Inactive entry, recycling its storage.
  void releaseInactive(VolState& st, std::uint32_t ci);
  /// Move an inactive-past-d client to Unreachable (lazy d enforcement).
  void demoteIfExpired(VolState& st, std::uint32_t ci, SimTime now);

  std::uint32_t acquirePendingWrite();
  void releasePendingWrite(std::uint32_t slot);
  void pushDeferred(VolState& v, DeferredFn fn);

  // ---- batch lease-expiry sweep (config_.leaseSweepPeriod > 0) ----
  /// Arm the periodic sweep lazily on the first grant, so idle servers
  /// never schedule anything; one branch on the granting fast path.
  void maybeArmSweep() {
    if (sweepArmed_ || quiesced_ || config_.leaseSweepPeriod == 0) return;
    sweepArmed_ = true;
    sweepTimer_ = ctx_.scheduler.scheduleAfter(
        config_.leaseSweepPeriod, [this]() { sweepExpiredLeases(); });
  }
  /// Pop from every holder table's oldest end the records (and accrue
  /// them) whose grace-extended expiry has passed; re-arms while any
  /// records remain.
  void sweepExpiredLeases();
  /// The volume-expiry a delayed-mode path should use for a client with
  /// no holder record: the swept record's expiry if the sweep removed
  /// one, else `now` (the value the record-free baseline path uses).
  SimTime sweptVolExpire(const VolState& v, std::uint32_t ci,
                         SimTime now) const {
    if (ci < v.sweptExpire.size() && v.sweptExpire[ci] != kNever) {
      return v.sweptExpire[ci];
    }
    return now;
  }
  /// A fresh volume grant supersedes any swept-expiry memory.
  static void clearSwept(VolState& v, std::uint32_t ci) {
    if (ci < v.sweptExpire.size()) v.sweptExpire[ci] = kNever;
  }

  const proto::ProtocolConfig config_;
  const InvalidationMode mode_;
  const std::uint32_t numClients_;

  // One slot store per kind: native slots by catalog localIndex, then
  // adopted slots in adoption order. A slot whose volume migrated away
  // stays as durable memory -- the epoch and versions a returning
  // volume must ratchet against -- with its owned flag cleared.
  std::vector<VolState> volumes_;
  std::vector<ObjState> objects_;
  std::vector<std::uint8_t> volOwned_;  // by slot
  std::vector<std::uint8_t> objOwned_;  // by slot
  util::FlatMap<std::uint32_t> adoptedVolSlot_;  // raw(vol) -> slot
  util::FlatMap<std::uint32_t> adoptedObjSlot_;  // raw(obj) -> slot
  /// Find-or-append the (possibly un-owned) slot of a volume/object
  /// this server adopts. Used only on the adoption path.
  std::uint32_t volSlotOrAppend(VolumeId volId);
  std::uint32_t objSlotOrAppend(ObjectId obj);

  /// Delayed mode: bit ci of row ObjState::queuedRow is set iff that
  /// object waits on client ci's pending list. Row-major, queuedWords_
  /// words per row; a row is appended when its object is first queued
  /// and kept, so only written-while-Inactive objects cost a row.
  std::vector<std::uint64_t> queuedBits_;
  const std::uint32_t queuedWords_;  // ceil(numClients_ / 64)

  std::vector<PendingWrite> pwPool_;
  std::vector<std::uint32_t> pwFree_;
  util::FlatMap<Session> sessions_;  // by sessionKey(client, volume)

  // Recycled storage: scratch for the write fan-out target list and
  // capacity pools for the per-entry vectors of released slots.
  std::vector<NodeId> immediateScratch_;
  std::vector<std::vector<PendingMsg>> pendingMsgPool_;
  std::vector<std::vector<net::Message>> msgVecPool_;
  std::vector<std::vector<proto::WriteCallback>> cbVecPool_;

  /// "Stable storage" (survives crashAndReboot): the high-water mark of
  /// granted volume leases, used to bound the recovery wait. Versions
  /// and epochs live with the data and also survive; only lease state
  /// is lost on a crash.
  SimTime maxVolExpireGranted_ = kSimTimeMin;
  SimTime recoveryUntil_ = kSimTimeMin;

  /// Batch expiry-sweep state: one deadline-lane timer per server
  /// replaces what would otherwise be one expiry timer per lease.
  sim::TimerHandle sweepTimer_;
  SimTime lastSweepAt_ = kSimTimeMin;
  bool sweepArmed_ = false;
  bool quiesced_ = false;
};

}  // namespace vlease::core
