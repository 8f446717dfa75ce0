#include "core/volume_server.h"

#include <algorithm>

#include "util/check.h"
#include "util/log.h"

namespace vlease::core {

using proto::WriteCallback;
using proto::WriteResult;

VolumeServer::VolumeServer(proto::ProtocolContext& ctx, NodeId id,
                           const proto::ProtocolConfig& config,
                           InvalidationMode mode)
    : ServerNode(ctx, id),
      config_(config),
      mode_(mode),
      numClients_(ctx.catalog.numClients()),
      volumes_(ctx.catalog.volumesOnServer(id)),
      objects_(ctx.catalog.objectsOnServer(id)),
      volOwned_(volumes_.size(), 1),
      objOwned_(objects_.size(), 1),
      queuedWords_((numClients_ + 63) / 64) {}

// ---------------------------------------------------------------------
// small helpers
// ---------------------------------------------------------------------

const VolumeServer::VolState* VolumeServer::volFind(VolumeId volId) const {
  const std::uint32_t slot = volSlot(volId);
  return slot == util::kNilIdx ? nullptr : &volumes_[slot];
}

const VolumeServer::ObjState* VolumeServer::objFind(ObjectId obj) const {
  const std::uint32_t slot = objSlot(obj);
  return slot == util::kNilIdx ? nullptr : &objects_[slot];
}

Version VolumeServer::currentVersion(ObjectId obj) const {
  const ObjState* st = objFind(obj);
  return st == nullptr ? 1 : st->version;
}

bool VolumeServer::isUnreachable(NodeId client, VolumeId volId) const {
  const VolState* v = volFind(volId);
  return v != nullptr && isUnreach(*v, clientIdx(client));
}

bool VolumeServer::isInactive(NodeId client, VolumeId volId) const {
  const VolState* v = volFind(volId);
  return v != nullptr && v->inactive.contains(clientIdx(client));
}

std::size_t VolumeServer::pendingMessageCount(NodeId client,
                                              VolumeId volId) const {
  const VolState* v = volFind(volId);
  if (v == nullptr) return 0;
  const InactiveClient* in = v->inactive.find(clientIdx(client));
  return in == nullptr ? 0 : in->pending.size();
}

Epoch VolumeServer::volumeEpoch(VolumeId volId) const {
  const VolState* v = volFind(volId);
  return v == nullptr ? 1 : v->epoch;
}

std::size_t VolumeServer::validHolders(const Holders& holders) const {
  const SimTime now = ctx_.scheduler.now();
  std::size_t n = 0;
  holders.forEach([&](std::uint32_t, const LeaseRecord& r) {
    if (r.expire > now) ++n;
  });
  return n;
}

std::size_t VolumeServer::validObjectHolders(ObjectId obj) const {
  const ObjState* st = objFind(obj);
  return st == nullptr ? 0 : validHolders(st->holders);
}

std::size_t VolumeServer::validVolumeHolders(VolumeId volId) const {
  const VolState* v = volFind(volId);
  return v == nullptr ? 0 : validHolders(v->holders);
}

std::size_t VolumeServer::expiredHolderCount(SimTime now) const {
  std::size_t n = 0;
  auto count = [&](const Holders& holders) {
    holders.forEach([&](std::uint32_t, const LeaseRecord& r) {
      if (graceExpire(r.expire) <= now) ++n;
    });
  };
  auto* self = const_cast<VolumeServer*>(this);
  self->forEachOwnedVol([&](const VolState& v) { count(v.holders); });
  self->forEachOwnedObj([&](const ObjState& st) { count(st.holders); });
  return n;
}

void VolumeServer::accrueVolume(VolState& v, SimTime now) {
  accrueHolders(v.holders, now);
  v.inactive.forEach(
      [&](std::uint32_t, InactiveClient& in) { accruePending(in, now); });
}

void VolumeServer::dropVolumeLeases(VolState& v, SimTime now) {
  accrueVolume(v, now);
  v.holders.clear();
  v.inactive.forEach(
      [&](std::uint32_t ci, InactiveClient& in) { recyclePending(ci, in); });
  v.inactive.clear();
  // the epoch check re-detects stale clients, so Unreachable resets
  std::fill(v.unreachable.begin(), v.unreachable.end(), 0);
  std::fill(v.sweptExpire.begin(), v.sweptExpire.end(), kNever);
  v.expire = kSimTimeMin;
}

void VolumeServer::dropObjectLeases(ObjState& st, SimTime now) {
  accrueHolders(st.holders, now);
  st.holders.clear();
  st.expire = kSimTimeMin;
}

void VolumeServer::accruePending(InactiveClient& in, SimTime now) {
  for (PendingMsg& pm : in.pending) {
    stats::accrueRecord(ctx_.metrics, id(), pm.lastAccounted, pm.discardAt,
                        now);
  }
}

void VolumeServer::recyclePending(std::uint32_t ci, InactiveClient& in) {
  for (const PendingMsg& pm : in.pending) clearQueued(objState(pm.obj), ci);
  in.pending.clear();
  if (in.pending.capacity() > 0) {
    pendingMsgPool_.push_back(std::move(in.pending));
  }
}

bool VolumeServer::onPendingList(const VolState& v, std::uint32_t ci,
                                 ObjectId obj) const {
  const InactiveClient* in = v.inactive.find(ci);
  return in != nullptr &&
         std::any_of(in->pending.begin(), in->pending.end(),
                     [obj](const PendingMsg& pm) { return pm.obj == obj; });
}

void VolumeServer::releaseInactive(VolState& st, std::uint32_t ci) {
  InactiveClient* in = st.inactive.find(ci);
  if (in == nullptr) return;
  recyclePending(ci, *in);
  st.inactive.erase(ci);
}

void VolumeServer::discardPending(VolState& st, std::uint32_t ci) {
  InactiveClient* in = st.inactive.find(ci);
  if (in == nullptr) return;
  accruePending(*in, ctx_.scheduler.now());
  releaseInactive(st, ci);
}

void VolumeServer::queueInvalidation(VolState& v, ObjState& st,
                                     std::uint32_t ci, ObjectId obj,
                                     SimTime volExpiredAt, SimTime now) {
  if (config_.inactiveDiscard != kNever &&
      now > addSat(volExpiredAt, config_.inactiveDiscard)) {
    discardPending(v, ci);
    setUnreach(v, ci);
    return;
  }
  // The list is a set: a second invalidation of an object already pending
  // carries no information, so the first entry (and its enqueue time)
  // stands. The queued bit says whether the object is already there.
  if (isQueued(st, ci)) {
    VL_DCHECK(onPendingList(v, ci, obj));
    return;
  }
  VL_DCHECK(!onPendingList(v, ci, obj));
  auto [in, inserted] = v.inactive.tryEmplace(ci);
  if (inserted) {
    in->volExpiredAt = volExpiredAt;
    if (in->pending.capacity() == 0 && !pendingMsgPool_.empty()) {
      in->pending = std::move(pendingMsgPool_.back());
      pendingMsgPool_.pop_back();
    }
  }
  in->pending.push_back(
      PendingMsg{obj, now, addSat(in->volExpiredAt, config_.inactiveDiscard)});
  setQueued(st, ci);
}

void VolumeServer::demoteIfExpired(VolState& st, std::uint32_t ci,
                                   SimTime now) {
  if (config_.inactiveDiscard == kNever) return;
  const InactiveClient* in = st.inactive.find(ci);
  if (in == nullptr) return;
  if (now <= addSat(in->volExpiredAt, config_.inactiveDiscard)) return;
  discardPending(st, ci);
  setUnreach(st, ci);
}

VolumeServer::Session* VolumeServer::findSession(std::uint32_t ci,
                                                 VolumeId volId) {
  return sessions_.find(sessionKey(ci, volId));
}

void VolumeServer::endSession(std::uint32_t ci, VolumeId volId) {
  Session* session = sessions_.find(sessionKey(ci, volId));
  if (session == nullptr) return;
  session->timer.cancel();
  sessions_.erase(sessionKey(ci, volId));
}

std::uint32_t VolumeServer::acquirePendingWrite() {
  std::uint32_t slot;
  if (!pwFree_.empty()) {
    slot = pwFree_.back();
    pwFree_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(pwPool_.size());
    pwPool_.emplace_back();
  }
  PendingWrite& pw = pwPool_[slot];
  pw.requestedAt = 0;
  pw.waitingCount = 0;
  pw.byExpiry = false;
  pw.skipBound = kSimTimeMin;
  pw.active = true;
  if (pw.waiting.size() < numClients_) pw.waiting.resize(numClients_, 0);
  // commitWrite steals the deferred/queued vectors; restock the slot
  // from the capacity pools so their storage keeps cycling.
  if (pw.deferredObjRequests.capacity() == 0 && !msgVecPool_.empty()) {
    pw.deferredObjRequests = std::move(msgVecPool_.back());
    msgVecPool_.pop_back();
  }
  if (pw.queuedWrites.capacity() == 0 && !cbVecPool_.empty()) {
    pw.queuedWrites = std::move(cbVecPool_.back());
    cbVecPool_.pop_back();
  }
  return slot;
}

void VolumeServer::releasePendingWrite(std::uint32_t slot) {
  PendingWrite& pw = pwPool_[slot];
  pw.cb = nullptr;
  pw.active = false;
  pwFree_.push_back(slot);
}

void VolumeServer::pushDeferred(VolState& v, DeferredFn fn) {
  if (v.deferred.empty() && v.deferred.head != 0) {
    v.deferred.items.clear();  // reclaim the consumed prefix
    v.deferred.head = 0;
  }
  v.deferred.items.push_back(std::move(fn));
}

// ---------------------------------------------------------------------
// dispatch
// ---------------------------------------------------------------------

VolumeId VolumeServer::payloadVolume(const net::Message& msg) const {
  switch (msg.payload.index()) {
    case net::payloadIndex<net::ReqVolLease>():
      return std::get<net::ReqVolLease>(msg.payload).vol;
    case net::payloadIndex<net::ReqObjLease>():
      return volumeOf(std::get<net::ReqObjLease>(msg.payload).obj);
    case net::payloadIndex<net::RenewObjLeases>():
      return std::get<net::RenewObjLeases>(msg.payload).vol;
    case net::payloadIndex<net::AckInvalidate>():
      return volumeOf(std::get<net::AckInvalidate>(msg.payload).obj);
    case net::payloadIndex<net::AckBatch>():
      return std::get<net::AckBatch>(msg.payload).vol;
    default:
      VL_CHECK_MSG(false, "VolumeServer: unexpected message type");
      return VolumeId{};
  }
}

void VolumeServer::deliver(const net::Message& msg) {
  // Federation: a message for a volume this server no longer owns is a
  // straggler that was in flight when the volume migrated out (or a
  // client still routing via a stale table entry). Drop it; the sender's
  // request times out and re-issues against the current routing table.
  if (volLookup(payloadVolume(msg)) == nullptr) return;
  switch (msg.payload.index()) {
    case net::payloadIndex<net::ReqVolLease>():
      return handleReqVolLease(msg);
    case net::payloadIndex<net::ReqObjLease>():
      return handleReqObjLease(msg);
    case net::payloadIndex<net::RenewObjLeases>():
      return handleRenewObjLeases(msg);
    case net::payloadIndex<net::AckInvalidate>():
      return handleAckInvalidate(msg);
    case net::payloadIndex<net::AckBatch>():
      return handleAckBatch(msg);
    default:
      VL_CHECK_MSG(false, "VolumeServer: unexpected message type");
  }
}

// ---------------------------------------------------------------------
// volume leases
// ---------------------------------------------------------------------

void VolumeServer::handleReqVolLease(const net::Message& msg) {
  const auto& req = std::get<net::ReqVolLease>(msg.payload);
  VolState& v = vol(req.vol);
  if (v.pendingWrites > 0) {
    // A write in this volume is mid-flight; do not extend or repair
    // volume state until it commits.
    pushDeferred(v, [this, msg = msg]() { handleReqVolLease(msg); });
    return;
  }
  const NodeId client = msg.from;

  // Paper, Fig. 3 "Server grants lease for volume v": reconnection when
  // the client is unreachable or presents a stale epoch. haveEpoch == 0
  // means "fresh client, nothing cached" and skips the epoch check.
  const bool staleEpoch = req.haveEpoch != 0 && req.haveEpoch < v.epoch;
  if (staleEpoch) setUnreach(v, clientIdx(client));
  maybeGrantVolume(client, req.vol);
}

void VolumeServer::grantVolume(NodeId client, VolumeId volId) {
  VolState& v = vol(volId);
  const LeaseRecord& rec =
      renewHolder(v.holders, clientIdx(client), config_.volumeTimeout);
  v.expire = std::max(v.expire, rec.expire);
  maxVolExpireGranted_ = std::max(maxVolExpireGranted_, rec.expire);
  clearSwept(v, clientIdx(client));
  maybeArmSweep();

  ctx_.transport.send(net::Message{
      id(), client, net::VolLeaseGrant{volId, rec.expire, v.epoch}});
}

// ---------------------------------------------------------------------
// object leases
// ---------------------------------------------------------------------

void VolumeServer::handleReqObjLease(const net::Message& msg) {
  const auto& req = std::get<net::ReqObjLease>(msg.payload);
  ObjState& st = objState(req.obj);
  if (st.pendingWrite != util::kNilIdx) {
    pwPool_[st.pendingWrite].deferredObjRequests.push_back(msg);
    return;
  }
  grantObject(msg);
}

void VolumeServer::grantObject(const net::Message& msg) {
  const auto& req = std::get<net::ReqObjLease>(msg.payload);
  const NodeId client = msg.from;
  const std::uint32_t ci = clientIdx(client);
  const SimTime now = ctx_.scheduler.now();
  ObjState& st = objState(req.obj);

  const LeaseRecord& rec = renewHolder(st.holders, ci, config_.objectTimeout);
  st.expire = std::max(st.expire, rec.expire);
  maybeArmSweep();

  net::ObjLeaseGrant grant{};
  grant.obj = req.obj;
  grant.version = st.version;
  grant.expire = rec.expire;
  grant.carriesData = st.version != req.haveVersion;
  grant.dataBytes =
      grant.carriesData ? ctx_.catalog.object(req.obj).sizeBytes : 0;
  // Every grant is stamped with the volume's current epoch, volume
  // lease or not: a client whose crash or departure erased its epoch
  // memory relearns it together with the data it is caching. Without
  // this, such a client holds real entries while still presenting the
  // "fresh client" epoch 0 -- and haveEpoch == 0 skips the staleness
  // check, so a later epoch bump (migration, server crash) would hand
  // it a volume lease without the reconnection exchange that is the
  // only thing standing between its un-invalidated entries and a stale
  // read. (volLookup, not vol(): stamping must not flip `touched` for
  // configs whose grants never otherwise reach the volume state.)
  const VolState* volForEpoch = volLookup(volumeOf(req.obj));
  VL_DCHECK(volForEpoch != nullptr);  // deliver() gates on ownership
  grant.epoch = volForEpoch->epoch;

  if (req.wantVolume && config_.piggybackVolumeLease) {
    // Piggyback ablation: renew the volume in the same reply iff it is
    // safe -- the client must not be unreachable and must not present a
    // stale epoch (otherwise its separate volume request will run the
    // reconnection exchange).
    const VolumeId volId = volumeOf(req.obj);
    VolState& v = vol(volId);
    demoteIfExpired(v, ci, now);
    const bool staleEpoch = req.haveEpoch != 0 && req.haveEpoch < v.epoch;
    const InactiveClient* in = v.inactive.find(ci);
    const bool hasPendingFlush = mode_ == InvalidationMode::kDelayed &&
                                 in != nullptr && !in->pending.empty();
    if (!isUnreach(v, ci) && !staleEpoch && !hasPendingFlush &&
        v.pendingWrites == 0) {
      if (mode_ == InvalidationMode::kDelayed) releaseInactive(v, ci);
      const LeaseRecord& vRec =
          renewHolder(v.holders, ci, config_.volumeTimeout);
      v.expire = std::max(v.expire, vRec.expire);
      maxVolExpireGranted_ = std::max(maxVolExpireGranted_, vRec.expire);
      clearSwept(v, ci);
      grant.grantsVolume = true;
      grant.volExpire = vRec.expire;
      grant.epoch = v.epoch;
    }
  }
  ctx_.transport.send(net::Message{id(), client, grant});
}

// ---------------------------------------------------------------------
// reconnection (paper §3.1.1) and pending-list flush (§3.2)
// ---------------------------------------------------------------------

void VolumeServer::startReconnect(NodeId client, VolumeId volId) {
  // Whatever we queued for this client is superseded: the reconnection
  // exchange recomputes lease state from version numbers.
  VolState& v = vol(volId);
  const std::uint32_t ci = clientIdx(client);
  discardPending(v, ci);
  setUnreach(v, ci);  // stale-epoch clients enter here too

  Session session{Session::Kind::kReconnect, false, ctx_.scheduler.now(), {}};
  session.timer = ctx_.scheduler.scheduleAfter(
      config_.msgTimeout, [this, ci, volId]() {
        // Client vanished mid-exchange; it stays unreachable.
        endSession(ci, volId);
      });
  sessions_[sessionKey(ci, volId)] = std::move(session);
  ctx_.transport.send(net::Message{id(), client, net::MustRenewAll{volId}});
}

void VolumeServer::handleRenewObjLeases(const net::Message& msg) {
  processRenewObjLeases(msg, ctx_.scheduler.now());
}

void VolumeServer::processRenewObjLeases(const net::Message& msg,
                                         SimTime arrivedAt) {
  const auto& req = std::get<net::RenewObjLeases>(msg.payload);
  const NodeId client = msg.from;
  const std::uint32_t ci = clientIdx(client);
  VolState& v = vol(req.vol);
  if (v.pendingWrites > 0) {
    // Recompute against committed versions only. Keep the original
    // arrival time: by the time the deferral drains, the session this
    // reply answered may have timed out and a NEW one begun.
    pushDeferred(v, [this, msg = msg, arrivedAt]() {
      processRenewObjLeases(msg, arrivedAt);
    });
    return;
  }
  Session* session = findSession(ci, req.vol);
  if (session == nullptr || session->kind != Session::Kind::kReconnect ||
      session->awaitingAck || arrivedAt < session->startedAt) {
    return;  // stale, duplicate, or answers an earlier exchange; drop
  }

  net::BatchInvalRenew batch{};
  batch.vol = req.vol;
  for (const auto& entry : req.leases) {
    ObjState& st = objState(entry.obj);
    if (st.version > entry.version) {
      batch.invalidate.push_back(entry.obj);
      removeHolder(st.holders, ci);
    } else {
      const LeaseRecord& rec =
          renewHolder(st.holders, ci, config_.objectTimeout);
      st.expire = std::max(st.expire, rec.expire);
      maybeArmSweep();
      batch.renew.push_back(
          net::BatchInvalRenew::Renewal{entry.obj, st.version, rec.expire});
    }
  }
  session->awaitingAck = true;
  session->timer.cancel();
  session->timer = ctx_.scheduler.scheduleAfter(
      config_.msgTimeout,
      [this, ci, volId = req.vol]() { endSession(ci, volId); });
  ctx_.transport.send(net::Message{id(), client, std::move(batch)});
}

void VolumeServer::startFlush(NodeId client, VolumeId volId) {
  VolState& v = vol(volId);
  const std::uint32_t ci = clientIdx(client);
  InactiveClient* in = v.inactive.find(ci);
  VL_CHECK(in != nullptr);
  const SimTime now = ctx_.scheduler.now();

  net::BatchInvalRenew batch{};
  batch.vol = volId;
  accruePending(*in, now);
  for (const PendingMsg& pm : in->pending) {
    VL_DCHECK(std::find(batch.invalidate.begin(), batch.invalidate.end(),
                        pm.obj) == batch.invalidate.end());  // a set
    batch.invalidate.push_back(pm.obj);
    clearQueued(objState(pm.obj), ci);
  }
  in->pending.clear();

  Session session{Session::Kind::kFlush, true, now, {}};
  session.timer = ctx_.scheduler.scheduleAfter(
      config_.msgTimeout, [this, ci, volId]() {
        // No ack: the client may have missed invalidations. Safe exit:
        // it becomes unreachable and must reconnect.
        VolState& vv = vol(volId);
        discardPending(vv, ci);
        releaseInactive(vv, ci);
        setUnreach(vv, ci);
        endSession(ci, volId);
      });
  sessions_[sessionKey(ci, volId)] = std::move(session);
  ctx_.transport.send(net::Message{id(), client, std::move(batch)});
}

void VolumeServer::handleAckBatch(const net::Message& msg) {
  const auto& ack = std::get<net::AckBatch>(msg.payload);
  const NodeId client = msg.from;
  const std::uint32_t ci = clientIdx(client);
  Session* session = findSession(ci, ack.vol);
  if (session == nullptr || !session->awaitingAck) return;
  VolState& v = vol(ack.vol);
  endSession(ci, ack.vol);
  if (ci < v.unreachable.size()) v.unreachable[ci] = 0;
  // A by-expiry commit may have queued onto the list while the batch was
  // in flight; keep it so maybeGrantVolume flushes it before granting.
  const InactiveClient* in = v.inactive.find(ci);
  if (in != nullptr && in->pending.empty()) releaseInactive(v, ci);
  maybeGrantVolume(client, ack.vol);
}

void VolumeServer::maybeGrantVolume(NodeId client, VolumeId volId) {
  // Full re-validation before handing out a volume lease. This runs both
  // on the direct path and when a grant was deferred behind a pending
  // write -- by the time the deferral drains, the client may have been
  // moved (back) to Unreachable by the committing write, or new pending
  // invalidations may have queued; granting blindly would let it read
  // stale data under a "valid" volume lease.
  VolState& v = vol(volId);
  if (v.pendingWrites > 0) {
    pushDeferred(v,
                 [this, client, volId]() { maybeGrantVolume(client, volId); });
    return;
  }
  const std::uint32_t ci = clientIdx(client);
  if (findSession(ci, volId) != nullptr) {
    // An exchange (reconnection or flush) is already in flight -- its
    // pending list has been moved into an unacknowledged batch, so
    // granting now could hand the client a volume lease while it still
    // holds leases the batch was meant to invalidate. Duplicate volume
    // requests are dropped; the session completes or times out into the
    // Unreachable set, and the client's retry takes the repair path.
    return;
  }
  demoteIfExpired(v, ci, ctx_.scheduler.now());
  if (isUnreach(v, ci)) {
    if (findSession(ci, volId) == nullptr) startReconnect(client, volId);
    return;
  }
  if (mode_ == InvalidationMode::kDelayed) {
    InactiveClient* in = v.inactive.find(ci);
    if (in != nullptr) {
      if (!in->pending.empty()) {
        if (findSession(ci, volId) == nullptr) startFlush(client, volId);
        return;
      }
      releaseInactive(v, ci);
    }
  }
  grantVolume(client, volId);
}

// ---------------------------------------------------------------------
// writes (paper Fig. 3 "Server writes object o")
// ---------------------------------------------------------------------

void VolumeServer::write(ObjectId obj, WriteCallback cb) {
  writeInternal(obj, std::move(cb), ctx_.scheduler.now());
}

void VolumeServer::writeInternal(ObjectId obj, WriteCallback cb,
                                 SimTime requestedAt) {
  const SimTime now = ctx_.scheduler.now();
  if (now < recoveryUntil_) {
    // Post-crash recovery: delay every write until all volume leases
    // granted before the crash have provably expired. Re-checked every
    // time the delayed write fires -- a second crash during recovery
    // pushes the write out again. The parked write is counted on its
    // volume so a migration cannot strand it (volumeQuiescent waits);
    // volLookup (not vol()) keeps the volume's `touched` bit unchanged
    // until the write actually starts.
    VolState* vp = volLookup(volumeOf(obj));
    VL_CHECK_MSG(vp != nullptr, "VolumeServer: write for un-owned volume");
    ++vp->recoveryWrites;
    ctx_.scheduler.scheduleAt(
        recoveryUntil_, [this, obj, cb = std::move(cb), requestedAt]() mutable {
          VolState* v = volLookup(volumeOf(obj));
          VL_CHECK_MSG(v != nullptr, "VolumeServer: write for un-owned volume");
          --v->recoveryWrites;
          writeInternal(obj, std::move(cb), requestedAt);
        });
    return;
  }
  ObjState& st = objState(obj);
  if (st.pendingWrite != util::kNilIdx) {
    pwPool_[st.pendingWrite].queuedWrites.push_back(std::move(cb));
    return;
  }
  startWrite(obj, std::move(cb), requestedAt);
}

void VolumeServer::startWrite(ObjectId obj, WriteCallback cb,
                              SimTime requestedAt) {
  const SimTime now = ctx_.scheduler.now();
  ObjState& st = objState(obj);
  const VolumeId volId = volumeOf(obj);
  VolState& v = vol(volId);

  if (config_.writeByLeaseExpiry) {
    // Invalidate-by-waiting: send nothing; commit once min(volume
    // expiry, object expiry) has passed for everyone. Holders whose
    // object leases outlive that point are reconciled at commit (their
    // volume leases have necessarily drained).
    bool anyValid = false;
    st.holders.forEach([&](std::uint32_t, LeaseRecord& record) {
      if (graceExpire(record.expire) > now) anyValid = true;
    });
    // Holders granted by the previous owner before a migration are not
    // in our tables, but their (volume, object) lease pairs stay valid
    // until the handoff bound drains; until then the write must wait.
    if (graceExpire(v.handoffBound) > now) anyValid = true;
    if (!anyValid) {
      ++st.version;
      ctx_.metrics.onWrite(now - requestedAt, false);
      if (cb) cb(WriteResult{now - requestedAt, false, st.version});
      return;
    }
    const std::uint32_t slot = acquirePendingWrite();
    PendingWrite& pw = pwPool_[slot];
    pw.cb = std::move(cb);
    pw.requestedAt = requestedAt;
    pw.byExpiry = true;
    ++v.pendingWrites;
    const SimTime deadline = std::max({graceExpire(std::min(v.expire, st.expire)),
                                       graceExpire(v.handoffBound), now});
    st.pendingWrite = slot;
    pw.timer = ctx_.scheduler.scheduleAt(
        deadline, [this, obj]() { commitWrite(obj); });
    return;
  }

  std::vector<NodeId> immediate = std::move(immediateScratch_);
  immediate.clear();
  // Pre-migration holders granted by the previous owner are invisible
  // to our holder tables; treat them as one skipped Unreachable holder
  // whose min(volume, object) expiry is the handoff bound.
  SimTime skipBound = graceExpire(v.handoffBound) > now
                          ? graceExpire(v.handoffBound)
                          : kSimTimeMin;
  // A holder already queued for obj (only Delayed mode queues) owes this
  // write nothing. It has no open session (opening one empties the list)
  // and no live volume lease (a grant flushes or releases the list
  // first), so the code below would reach a no-op queueInvalidation or,
  // for an Unreachable holder, leave skipBound alone. Not with a finite
  // d, though: there queueInvalidation may demote the holder.
  const bool skipQueued = config_.inactiveDiscard == kNever;
  st.holders.forEach([&](std::uint32_t ci, LeaseRecord& record) {
    if (graceExpire(record.expire) <= now) return;  // lease expired
    if (skipQueued && isQueued(st, ci)) {
      VL_DCHECK(onPendingList(v, ci, obj) &&
                findSession(ci, volId) == nullptr &&
                (v.holders.find(ci) == nullptr ||
                 graceExpire(v.holders.find(ci)->expire) <= now));
      return;
    }

    // A client mid-exchange (reconnection or pending-list flush) is
    // provably reachable RIGHT NOW and may have object-lease renewals
    // for the old version already in flight -- it MUST be invalidated
    // even though it is still formally in the Unreachable set, or the
    // renewal + eventual volume grant would let it read stale data.
    const bool midSession = findSession(ci, volId) != nullptr;
    if (!midSession && isUnreach(v, ci)) {
      // Paper: do not contact unreachable clients -- but do not stop
      // waiting for them either. One that still holds a valid volume
      // lease can serve this object until min(volume, object) expiry,
      // so the commit may not happen before that instant.
      const LeaseRecord* vRec = v.holders.find(ci);
      if (vRec != nullptr && graceExpire(vRec->expire) > now) {
        skipBound = std::max(
            skipBound, graceExpire(std::min(vRec->expire, record.expire)));
      }
      return;
    }

    if (mode_ == InvalidationMode::kImmediate || midSession) {
      immediate.push_back(clientNode(ci));
      return;
    }

    // Delayed mode: only clients with valid volume leases are contacted;
    // the rest queue on their pending lists.
    const LeaseRecord* vRec = v.holders.find(ci);
    const bool volValid = vRec != nullptr && graceExpire(vRec->expire) > now;
    if (volValid) {
      immediate.push_back(clientNode(ci));
      return;
    }
    queueInvalidation(
        v, st, ci, obj,
        vRec != nullptr ? vRec->expire : sweptVolExpire(v, ci, now), now);
  });

  if (immediate.empty() && skipBound <= now) {
    ++st.version;
    ctx_.metrics.onWrite(now - requestedAt, false);
    immediateScratch_ = std::move(immediate);  // return scratch before cb
    if (cb) cb(WriteResult{now - requestedAt, false, st.version});
    return;
  }

  const std::uint32_t slot = acquirePendingWrite();
  PendingWrite& pw = pwPool_[slot];
  pw.cb = std::move(cb);
  pw.requestedAt = requestedAt;
  pw.skipBound = skipBound;
  for (NodeId c : immediate) pw.waiting[clientIdx(c)] = 1;
  pw.waitingCount = static_cast<std::uint32_t>(immediate.size());
  for (NodeId c : immediate) {
    ctx_.transport.send(net::Message{id(), c, net::Invalidate{obj}});
  }
  ++v.pendingWrites;

  // T_f = min(volume expiry, object expiry) + epsilon, floored by
  // msgTimeout (paper Fig. 3). Whichever lease family drains first
  // unblocks us. For in-table holders skipBound <= leaseBound (each
  // skipped client's expiries are under the aggregate maxima, both
  // epsilon-extended) -- but a freshly adopted volume's handoff bound
  // can exceed the aggregates (its holders are not in the tables), so
  // the deadline takes skipBound explicitly. With nobody to contact,
  // only the skipped clients' drain matters.
  const SimTime leaseBound = graceExpire(std::min(v.expire, st.expire));
  const SimTime deadline =
      immediate.empty()
          ? skipBound
          : std::max({leaseBound, addSat(now, config_.msgTimeout), skipBound});
  st.pendingWrite = slot;
  pw.timer = ctx_.scheduler.scheduleAt(
      deadline, [this, obj]() { commitWrite(obj); });
  immediateScratch_ = std::move(immediate);
}

void VolumeServer::commitWrite(ObjectId obj) {
  ObjState& st = objState(obj);
  VL_CHECK(st.pendingWrite != util::kNilIdx);
  const std::uint32_t slot = st.pendingWrite;
  const SimTime now = ctx_.scheduler.now();
  const VolumeId volId = volumeOf(obj);
  VolState& v = vol(volId);
  PendingWrite& pw = pwPool_[slot];
  pw.timer.cancel();

  // Paper: unreachable <- unreachable + To_contact. Their object-lease
  // records stay; the reconnection exchange reconciles them later.
  if (pw.waitingCount > 0) {
    for (std::uint32_t ci = 0; ci < pw.waiting.size(); ++ci) {
      if (pw.waiting[ci] == 0) continue;
      pw.waiting[ci] = 0;
      setUnreach(v, ci);
    }
    pw.waitingCount = 0;
  }

  if (pw.byExpiry) {
    // No invalidations were sent. Anyone whose object lease is still
    // valid missed the update; their volume leases have drained (that
    // is what the commit waited for), so route them through the
    // pending-list (delayed) or reconnection (immediate) machinery.
    st.holders.forEach([&](std::uint32_t ci, LeaseRecord& record) {
      if (graceExpire(record.expire) <= now) return;
      if (isUnreach(v, ci)) {
        // A reconnection that already renewed this object at the old
        // version would clear Unreachable at its ack and grant the
        // volume over the stale copy. End it: the ack is dropped and
        // the client's retry reconnects from scratch.
        const Session* session = findSession(ci, volId);
        if (session != nullptr && session->awaitingAck) endSession(ci, volId);
        return;
      }
      if (mode_ == InvalidationMode::kDelayed) {
        const LeaseRecord* vRec = v.holders.find(ci);
        queueInvalidation(v, st, ci, obj,
                          vRec != nullptr ? std::min(vRec->expire, now)
                                          : sweptVolExpire(v, ci, now),
                          now);
      } else {
        setUnreach(v, ci);
      }
    });
  }

  ++st.version;
  ctx_.metrics.onWrite(now - pw.requestedAt, false);
  if (pw.cb) pw.cb(WriteResult{now - pw.requestedAt, false, st.version});

  // The callback may have grown pwPool_ (a reentrant write on another
  // object), so re-index instead of trusting `pw` past this point.
  std::vector<net::Message> deferredObj =
      std::move(pwPool_[slot].deferredObjRequests);
  std::vector<WriteCallback> queued = std::move(pwPool_[slot].queuedWrites);
  st.pendingWrite = util::kNilIdx;
  releasePendingWrite(slot);
  --v.pendingWrites;
  VL_CHECK(v.pendingWrites >= 0);

  for (net::Message& m : deferredObj) handleReqObjLease(m);
  deferredObj.clear();
  if (deferredObj.capacity() > 0) msgVecPool_.push_back(std::move(deferredObj));
  if (v.pendingWrites == 0) drainVolumeDeferred(volId);
  for (auto& w : queued) writeInternal(obj, std::move(w), now);
  queued.clear();
  if (queued.capacity() > 0) cbVecPool_.push_back(std::move(queued));
}

void VolumeServer::drainVolumeDeferred(VolumeId volId) {
  VolState& v = vol(volId);
  while (v.pendingWrites == 0 && !v.deferred.empty()) {
    DeferredFn action = std::move(v.deferred.items[v.deferred.head]);
    ++v.deferred.head;
    action();
  }
  if (v.deferred.empty() && v.deferred.head != 0) {
    v.deferred.items.clear();
    v.deferred.head = 0;
  }
}

void VolumeServer::handleAckInvalidate(const net::Message& msg) {
  const auto& ack = std::get<net::AckInvalidate>(msg.payload);
  ObjState& st = objState(ack.obj);
  if (st.pendingWrite == util::kNilIdx) return;  // duplicate / late ack
  PendingWrite& pw = pwPool_[st.pendingWrite];
  const std::uint32_t ci = clientIdx(msg.from);
  if (ci >= pw.waiting.size() || pw.waiting[ci] == 0) return;
  pw.waiting[ci] = 0;
  --pw.waitingCount;
  removeHolder(st.holders, ci);  // client dropped its copy
  if (pw.waitingCount > 0) return;
  const SimTime now = ctx_.scheduler.now();
  if (now >= pw.skipBound) {
    commitWrite(ack.obj);
    return;
  }
  // Every contacted client acked, but a skipped Unreachable holder can
  // still serve the old version until its leases drain; tighten the
  // commit timer from the aggregate deadline down to that instant.
  pw.timer.cancel();
  pw.timer = ctx_.scheduler.scheduleAt(
      pw.skipBound, [this, obj = ack.obj]() { commitWrite(obj); });
}

// ---------------------------------------------------------------------
// online volume migration (federation)
// ---------------------------------------------------------------------

std::uint32_t VolumeServer::volSlotOrAppend(VolumeId volId) {
  std::uint32_t slot = volSlot(volId);
  if (slot == util::kNilIdx) {
    slot = static_cast<std::uint32_t>(volumes_.size());
    volumes_.emplace_back();
    volOwned_.push_back(0);
    adoptedVolSlot_[raw(volId)] = slot;
  }
  return slot;
}

std::uint32_t VolumeServer::objSlotOrAppend(ObjectId obj) {
  std::uint32_t slot = objSlot(obj);
  if (slot == util::kNilIdx) {
    slot = static_cast<std::uint32_t>(objects_.size());
    objects_.emplace_back();
    objOwned_.push_back(0);
    adoptedObjSlot_[raw(obj)] = slot;
  }
  return slot;
}

bool VolumeServer::volumeQuiescent(VolumeId volId) const {
  const VolState* v = volLookup(volId);
  if (v == nullptr) return false;
  return v->pendingWrites == 0 && v->deferred.empty() &&
         v->recoveryWrites == 0;
}

proto::VolumeHandoff VolumeServer::migrateOut(VolumeId volId) {
  const std::uint32_t slot = volSlot(volId);
  VL_CHECK_MSG(slot != util::kNilIdx && volOwned_[slot] != 0,
               "migrateOut: volume not owned here");
  VolState& v = volumes_[slot];
  VL_CHECK_MSG(
      v.pendingWrites == 0 && v.deferred.empty() && v.recoveryWrites == 0,
      "migrateOut: volume not quiescent");
  const SimTime now = ctx_.scheduler.now();

  proto::VolumeHandoff handoff;
  handoff.vol = volId;
  handoff.epoch = v.epoch;
  // Holders we are about to forget stay bounded by the volume's
  // aggregate lease horizon; after a crash wiped v.expire, the
  // stable-storage high-water mark is the bound that survives. No grace
  // applied here -- the adopter adds epsilon when it compares.
  handoff.volLeaseBound = std::max(v.expire, maxVolExpireGranted_);

  // Accrue and drop every piece of volume soft state: a migration is a
  // controlled crash for this volume's lease bookkeeping. Holders learn
  // of the move when their next request times out and re-routes; the
  // epoch bump at the adopter forces them through MUST_RENEW_ALL.
  dropVolumeLeases(v, now);

  // In-flight reconnection / flush exchanges on this volume die with the
  // handoff; the client's retry re-routes and reconnects at the adopter.
  std::vector<std::uint64_t> staleSessions;
  sessions_.forEach([&](std::uint64_t key, Session& session) {
    if ((key & 0xffffffffull) != raw(volId)) return;
    session.timer.cancel();
    staleSessions.push_back(key);
  });
  for (std::uint64_t key : staleSessions) sessions_.erase(key);

  for (const trace::ObjectInfo& info : ctx_.catalog.objects()) {
    if (info.volume != volId) continue;
    ObjState& st = objState(info.id);
    VL_CHECK(st.pendingWrite == util::kNilIdx);
    dropObjectLeases(st, now);
    handoff.objects.push_back(
        proto::VolumeHandoff::ObjectEntry{info.id, st.version});
    objOwned_[objSlot(info.id)] = 0;  // slot stays: durable memory
  }

  volOwned_[slot] = 0;  // epoch stays in the slot: the return ratchets on it
  return handoff;
}

void VolumeServer::adoptVolume(const proto::VolumeHandoff& handoff,
                               bool bumpEpoch) {
  const std::uint32_t slot = volSlotOrAppend(handoff.vol);
  VL_CHECK_MSG(volOwned_[slot] == 0, "adoptVolume: volume already owned here");
  VolState& v = volumes_[slot];

  // Epoch ratchet: this slot may hold durable memory of an earlier stay
  // (migrate-away-then-return); never regress below either side's log.
  // The bump on top forces every pre-migration holder through the
  // MUST_RENEW_ALL reconnection exchange on its next volume renewal.
  v.epoch = std::max(v.epoch, handoff.epoch);
  if (bumpEpoch) v.epoch += 1;
  v.touched = true;

  // Writes here must respect leases the previous owner granted, which
  // are invisible to our holder tables; the handoff bound stands in for
  // them until it drains.
  v.handoffBound = std::max(v.handoffBound, handoff.volLeaseBound);

  for (const auto& entry : handoff.objects) {
    const std::uint32_t objIdx = objSlotOrAppend(entry.obj);
    ObjState& st = objects_[objIdx];
    st.version = std::max(st.version, entry.version);  // ratchet, never back
    objOwned_[objIdx] = 1;
  }

  // A crash at this server must also stay silent past the handoff
  // bound: fold it into the stable-storage high-water mark that sizes
  // the post-crash recovery window.
  maxVolExpireGranted_ = std::max(maxVolExpireGranted_, handoff.volLeaseBound);
  volOwned_[slot] = 1;
}

// ---------------------------------------------------------------------
// crash recovery (paper §3.1.2)
// ---------------------------------------------------------------------

void VolumeServer::crashAndReboot() {
  const SimTime now = ctx_.scheduler.now();

  // In-flight writes die with the process; their callers never hear back.
  for (PendingWrite& pw : pwPool_) {
    if (!pw.active) continue;
    pw.timer.cancel();
    std::fill(pw.waiting.begin(), pw.waiting.end(), 0);
    pw.waitingCount = 0;
    pw.deferredObjRequests.clear();
    pw.queuedWrites.clear();
    pw.cb = nullptr;
    pw.active = false;
  }
  pwFree_.clear();
  for (std::uint32_t slot = 0; slot < pwPool_.size(); ++slot) {
    pwFree_.push_back(slot);
  }
  sessions_.forEach(
      [](std::uint64_t, Session& session) { session.timer.cancel(); });
  sessions_.clear();
  sweepTimer_.cancel();
  sweepArmed_ = false;  // lease state is gone; the next grant re-arms

  // Owned state only: a migrated-away volume's slot is durable memory of
  // another server's volume now -- its epoch must not advance here.
  forEachOwnedVol([&](VolState& v) {
    dropVolumeLeases(v, now);
    v.deferred.items.clear();
    v.deferred.head = 0;
    v.pendingWrites = 0;
    if (v.touched) v.epoch += 1;  // persisted with the data
  });
  forEachOwnedObj([&](ObjState& st) {
    dropObjectLeases(st, now);
    st.pendingWrite = util::kNilIdx;
  });

  // Delay writes until every volume lease granted before the crash has
  // expired -- epsilon-extended, so slow-clocked holders have stopped
  // serving too (the stable-storage high-water-mark scheme).
  recoveryUntil_ = std::max(now, graceExpire(maxVolExpireGranted_));
}

void VolumeServer::restoreAfterRestart(
    const std::vector<std::pair<ObjectId, Version>>& versions,
    const std::vector<std::pair<VolumeId, Epoch>>& epochs,
    SimTime recoverUntil) {
  for (const auto& [obj, version] : versions) {
    const trace::ObjectInfo& info = ctx_.catalog.object(obj);
    if (info.server != id()) continue;
    ObjState& st = objects_[info.localIndex];
    st.version = std::max(st.version, version);
  }
  for (const auto& [volId, epoch] : epochs) {
    const trace::VolumeInfo& info = ctx_.catalog.volume(volId);
    if (info.server != id()) continue;
    // Per-volume ratchet only: a volume whose durable log holds an
    // older epoch (it migrated away and came back, or the log lagged)
    // must move forward, never regress.
    VolState& v = volumes_[info.localIndex];
    v.epoch = std::max(v.epoch, epoch);
  }
  // Mark every owned volume touched so a later in-process crash keeps
  // bumping epochs past the restored values.
  forEachOwnedVol([](VolState& v) { v.touched = true; });
  // Ratchet only: a second restore with an older recovery point must not
  // shorten a silence window already in force.
  recoveryUntil_ = std::max(recoveryUntil_, recoverUntil);
}

// ---------------------------------------------------------------------
// batch lease-expiry sweep
// ---------------------------------------------------------------------

void VolumeServer::sweepExpiredLeases() {
  // Drop (accruing) every holder record whose grace-extended expiry has
  // drained. Every consumer of these records applies the same
  // graceExpire(expire) > now test before reading them, so removal is
  // observationally invisible -- except for the delayed-invalidation
  // paths, which read an EXPIRED volume record's expiry to stamp the
  // Inactive entry; sweptExpire preserves exactly that datum. Accrual
  // totals are unchanged too: accrueRecord clamps at the record's
  // expiry, which is <= now for everything swept.
  // Each table's grant order is its expiry order (renewHolder), so the
  // expired records are a prefix of it: pop from the oldest end and
  // stop at the first live record. The cost is the number of records
  // that expired, not the number held.
  const SimTime now = ctx_.scheduler.now();
  lastSweepAt_ = now;
  std::size_t remaining = 0;
  auto sweepTable = [&](Holders& holders,
                        auto&& onErase) {
    for (auto e = holders.oldest();
         e.value != nullptr && graceExpire(e.value->expire) <= now;
         e = holders.oldest()) {
      stats::accrueRecord(ctx_.metrics, id(), e.value->lastAccounted,
                          e.value->expire, now);
      onErase(e.key, e.value->expire);
      holders.erase(e.key);
    }
    remaining += holders.size();
  };
  forEachOwnedVol([&](VolState& v) {
    sweepTable(v.holders, [&](std::uint32_t ci, SimTime expire) {
      if (mode_ != InvalidationMode::kDelayed) return;
      if (v.sweptExpire.size() < numClients_) {
        v.sweptExpire.resize(numClients_, kNever);
      }
      v.sweptExpire[ci] = expire;
    });
  });
  forEachOwnedObj([&](ObjState& st) {
    sweepTable(st.holders, [](std::uint32_t, SimTime) {});
  });
  if (remaining > 0 && !quiesced_) {
    sweepTimer_ = ctx_.scheduler.scheduleAfter(
        config_.leaseSweepPeriod, [this]() { sweepExpiredLeases(); });
  } else {
    sweepArmed_ = false;  // next grant re-arms
  }
}

void VolumeServer::quiesce() {
  quiesced_ = true;
  sweepTimer_.cancel();
  sweepArmed_ = false;
}

void VolumeServer::finalizeAccounting(SimTime now) {
  // Un-owned slots were accrued and emptied when the volume migrated
  // out, so visiting owned state covers everything outstanding.
  forEachOwnedVol([&](VolState& v) { accrueVolume(v, now); });
  forEachOwnedObj([&](ObjState& st) { accrueHolders(st.holders, now); });
}

}  // namespace vlease::core
