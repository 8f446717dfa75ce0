#include "reference_volume_server.h"

#include <algorithm>

#include "util/check.h"
#include "util/log.h"

namespace vlease::testref {

using core::InvalidationMode;
using proto::WriteCallback;
using proto::WriteResult;

// ---------------------------------------------------------------------
// small helpers
// ---------------------------------------------------------------------

Version RefVolumeServer::currentVersion(ObjectId obj) const {
  auto it = objects_.find(obj);
  return it == objects_.end() ? 1 : it->second.version;
}

bool RefVolumeServer::isUnreachable(NodeId client, VolumeId volId) const {
  auto it = volumes_.find(volId);
  return it != volumes_.end() && it->second.unreachable.count(client) > 0;
}

bool RefVolumeServer::isInactive(NodeId client, VolumeId volId) const {
  auto it = volumes_.find(volId);
  return it != volumes_.end() && it->second.inactive.count(client) > 0;
}

std::size_t RefVolumeServer::pendingMessageCount(NodeId client,
                                              VolumeId volId) const {
  auto it = volumes_.find(volId);
  if (it == volumes_.end()) return 0;
  auto inIt = it->second.inactive.find(client);
  return inIt == it->second.inactive.end() ? 0 : inIt->second.pending.size();
}

Epoch RefVolumeServer::volumeEpoch(VolumeId volId) const {
  auto it = volumes_.find(volId);
  return it == volumes_.end() ? 1 : it->second.epoch;
}

std::size_t RefVolumeServer::validObjectHolders(ObjectId obj) const {
  auto it = objects_.find(obj);
  if (it == objects_.end()) return 0;
  const SimTime now = ctx_.scheduler.now();
  std::size_t n = 0;
  for (const auto& [c, r] : it->second.holders)
    if (r.expire > now) ++n;
  return n;
}

std::size_t RefVolumeServer::validVolumeHolders(VolumeId volId) const {
  auto it = volumes_.find(volId);
  if (it == volumes_.end()) return 0;
  const SimTime now = ctx_.scheduler.now();
  std::size_t n = 0;
  for (const auto& [c, r] : it->second.holders)
    if (r.expire > now) ++n;
  return n;
}

void RefVolumeServer::removeObjHolder(ObjState& st, NodeId client) {
  auto it = st.holders.find(client);
  if (it == st.holders.end()) return;
  stats::accrueRecord(ctx_.metrics, id(), it->second.lastAccounted,
                      it->second.expire, ctx_.scheduler.now());
  st.holders.erase(it);
}

void RefVolumeServer::removeVolHolder(VolState& st, NodeId client) {
  auto it = st.holders.find(client);
  if (it == st.holders.end()) return;
  stats::accrueRecord(ctx_.metrics, id(), it->second.lastAccounted,
                      it->second.expire, ctx_.scheduler.now());
  st.holders.erase(it);
}

void RefVolumeServer::discardPending(VolState& st, NodeId client) {
  auto it = st.inactive.find(client);
  if (it == st.inactive.end()) return;
  const SimTime now = ctx_.scheduler.now();
  for (PendingMsg& pm : it->second.pending) {
    stats::accrueRecord(ctx_.metrics, id(), pm.lastAccounted, pm.discardAt,
                        now);
  }
  st.inactive.erase(it);
}

void RefVolumeServer::queuePending(InactiveClient& in, ObjectId obj,
                                   SimTime now) {
  // A pending list is a set: a repeat invalidation keeps the first entry.
  const bool queued =
      std::any_of(in.pending.begin(), in.pending.end(),
                  [obj](const PendingMsg& pm) { return pm.obj == obj; });
  if (queued) return;
  in.pending.push_back(
      PendingMsg{obj, now, addSat(in.volExpiredAt, config_.inactiveDiscard)});
}

void RefVolumeServer::demoteIfExpired(VolState& st, NodeId client, SimTime now) {
  if (config_.inactiveDiscard == kNever) return;
  auto it = st.inactive.find(client);
  if (it == st.inactive.end()) return;
  if (now <= addSat(it->second.volExpiredAt, config_.inactiveDiscard)) return;
  discardPending(st, client);
  st.unreachable.insert(client);
}

RefVolumeServer::Session* RefVolumeServer::findSession(NodeId client,
                                                 VolumeId volId) {
  auto it = sessions_.find({client, volId});
  return it == sessions_.end() ? nullptr : &it->second;
}

void RefVolumeServer::endSession(NodeId client, VolumeId volId) {
  auto it = sessions_.find({client, volId});
  if (it == sessions_.end()) return;
  it->second.timer.cancel();
  sessions_.erase(it);
}

// ---------------------------------------------------------------------
// dispatch
// ---------------------------------------------------------------------

void RefVolumeServer::deliver(const net::Message& msg) {
  if (std::holds_alternative<net::ReqVolLease>(msg.payload)) {
    handleReqVolLease(msg);
  } else if (std::holds_alternative<net::ReqObjLease>(msg.payload)) {
    handleReqObjLease(msg);
  } else if (std::holds_alternative<net::RenewObjLeases>(msg.payload)) {
    handleRenewObjLeases(msg);
  } else if (std::holds_alternative<net::AckInvalidate>(msg.payload)) {
    handleAckInvalidate(msg);
  } else if (std::holds_alternative<net::AckBatch>(msg.payload)) {
    handleAckBatch(msg);
  } else {
    VL_CHECK_MSG(false, "RefVolumeServer: unexpected message type");
  }
}

// ---------------------------------------------------------------------
// volume leases
// ---------------------------------------------------------------------

void RefVolumeServer::handleReqVolLease(const net::Message& msg) {
  const auto& req = std::get<net::ReqVolLease>(msg.payload);
  VolState& v = vol(req.vol);
  if (v.pendingWrites > 0) {
    // A write in this volume is mid-flight; do not extend or repair
    // volume state until it commits.
    v.deferred.push_back([this, msg]() { handleReqVolLease(msg); });
    return;
  }
  const NodeId client = msg.from;

  // Paper, Fig. 3 "Server grants lease for volume v": reconnection when
  // the client is unreachable or presents a stale epoch. haveEpoch == 0
  // means "fresh client, nothing cached" and skips the epoch check.
  const bool staleEpoch = req.haveEpoch != 0 && req.haveEpoch < v.epoch;
  if (staleEpoch) v.unreachable.insert(client);
  maybeGrantVolume(client, req.vol);
}

void RefVolumeServer::grantVolume(NodeId client, VolumeId volId) {
  VolState& v = vol(volId);
  const SimTime now = ctx_.scheduler.now();
  auto [it, inserted] =
      v.holders.try_emplace(client, LeaseRecord{kSimTimeMin, now});
  if (!inserted) {
    stats::accrueRecord(ctx_.metrics, id(), it->second.lastAccounted,
                        it->second.expire, now);
  }
  it->second.expire = addSat(now, config_.volumeTimeout);
  it->second.lastAccounted = now;
  v.expire = std::max(v.expire, it->second.expire);
  maxVolExpireGranted_ = std::max(maxVolExpireGranted_, it->second.expire);

  ctx_.transport.send(net::Message{
      id(), client, net::VolLeaseGrant{volId, it->second.expire, v.epoch}});
}

// ---------------------------------------------------------------------
// object leases
// ---------------------------------------------------------------------

void RefVolumeServer::handleReqObjLease(const net::Message& msg) {
  const auto& req = std::get<net::ReqObjLease>(msg.payload);
  auto pendingIt = pendingWrites_.find(req.obj);
  if (pendingIt != pendingWrites_.end()) {
    pendingIt->second.deferredObjRequests.push_back(msg);
    return;
  }
  grantObject(msg);
}

void RefVolumeServer::grantObject(const net::Message& msg) {
  const auto& req = std::get<net::ReqObjLease>(msg.payload);
  const NodeId client = msg.from;
  const SimTime now = ctx_.scheduler.now();
  ObjState& st = objState(req.obj);

  auto [it, inserted] =
      st.holders.try_emplace(client, LeaseRecord{kSimTimeMin, now});
  if (!inserted) {
    stats::accrueRecord(ctx_.metrics, id(), it->second.lastAccounted,
                        it->second.expire, now);
  }
  it->second.expire = addSat(now, config_.objectTimeout);
  it->second.lastAccounted = now;
  st.expire = std::max(st.expire, it->second.expire);

  net::ObjLeaseGrant grant{};
  grant.obj = req.obj;
  grant.version = st.version;
  grant.expire = it->second.expire;
  grant.carriesData = st.version != req.haveVersion;
  grant.dataBytes =
      grant.carriesData ? ctx_.catalog.object(req.obj).sizeBytes : 0;
  // Mirrors core::VolumeServer: every grant carries the volume's
  // current epoch so a client whose crash erased its epoch memory
  // relearns it with the data (keeps haveEpoch == 0 meaning "nothing
  // cached", which is what the reconnection skip relies on). Read-only
  // lookup: the dense server stamps via volLookup() without flipping
  // `touched`, and here the map entry must likewise not be created --
  // a lazily created entry would get its epoch bumped by a later server
  // crash where the dense server's untouched slot would not.
  {
    auto volIt = volumes_.find(volumeOf(req.obj));
    grant.epoch = volIt == volumes_.end() ? 1 : volIt->second.epoch;
  }

  if (req.wantVolume && config_.piggybackVolumeLease) {
    // Piggyback ablation: renew the volume in the same reply iff it is
    // safe -- the client must not be unreachable and must not present a
    // stale epoch (otherwise its separate volume request will run the
    // reconnection exchange).
    const VolumeId volId = volumeOf(req.obj);
    VolState& v = vol(volId);
    demoteIfExpired(v, client, now);
    const bool staleEpoch = req.haveEpoch != 0 && req.haveEpoch < v.epoch;
    const bool hasPendingFlush =
        mode_ == InvalidationMode::kDelayed && v.inactive.count(client) > 0 &&
        !v.inactive.at(client).pending.empty();
    if (v.unreachable.count(client) == 0 && !staleEpoch && !hasPendingFlush &&
        v.pendingWrites == 0) {
      if (mode_ == InvalidationMode::kDelayed) v.inactive.erase(client);
      auto [vit, vinserted] =
          v.holders.try_emplace(client, LeaseRecord{kSimTimeMin, now});
      if (!vinserted) {
        stats::accrueRecord(ctx_.metrics, id(), vit->second.lastAccounted,
                            vit->second.expire, now);
      }
      vit->second.expire = addSat(now, config_.volumeTimeout);
      vit->second.lastAccounted = now;
      v.expire = std::max(v.expire, vit->second.expire);
      maxVolExpireGranted_ = std::max(maxVolExpireGranted_, vit->second.expire);
      grant.grantsVolume = true;
      grant.volExpire = vit->second.expire;
      grant.epoch = v.epoch;
    }
  }
  ctx_.transport.send(net::Message{id(), client, grant});
}

// ---------------------------------------------------------------------
// reconnection (paper §3.1.1) and pending-list flush (§3.2)
// ---------------------------------------------------------------------

void RefVolumeServer::startReconnect(NodeId client, VolumeId volId) {
  // Whatever we queued for this client is superseded: the reconnection
  // exchange recomputes lease state from version numbers.
  VolState& v = vol(volId);
  discardPending(v, client);
  v.unreachable.insert(client);  // stale-epoch clients enter here too

  Session session{Session::Kind::kReconnect, false, ctx_.scheduler.now(), {}};
  session.timer = ctx_.scheduler.scheduleAfter(
      config_.msgTimeout, [this, client, volId]() {
        // Client vanished mid-exchange; it stays unreachable.
        endSession(client, volId);
      });
  sessions_[{client, volId}] = std::move(session);
  ctx_.transport.send(net::Message{id(), client, net::MustRenewAll{volId}});
}

void RefVolumeServer::handleRenewObjLeases(const net::Message& msg) {
  processRenewObjLeases(msg, ctx_.scheduler.now());
}

void RefVolumeServer::processRenewObjLeases(const net::Message& msg,
                                         SimTime arrivedAt) {
  const auto& req = std::get<net::RenewObjLeases>(msg.payload);
  const NodeId client = msg.from;
  VolState& v = vol(req.vol);
  if (v.pendingWrites > 0) {
    // Recompute against committed versions only. Keep the original
    // arrival time: by the time the deferral drains, the session this
    // reply answered may have timed out and a NEW one begun.
    v.deferred.push_back(
        [this, msg, arrivedAt]() { processRenewObjLeases(msg, arrivedAt); });
    return;
  }
  Session* session = findSession(client, req.vol);
  if (session == nullptr || session->kind != Session::Kind::kReconnect ||
      session->awaitingAck || arrivedAt < session->startedAt) {
    return;  // stale, duplicate, or answers an earlier exchange; drop
  }
  const SimTime now = ctx_.scheduler.now();

  net::BatchInvalRenew batch{};
  batch.vol = req.vol;
  for (const auto& entry : req.leases) {
    ObjState& st = objState(entry.obj);
    if (st.version > entry.version) {
      batch.invalidate.push_back(entry.obj);
      removeObjHolder(st, client);
    } else {
      auto [it, inserted] =
          st.holders.try_emplace(client, LeaseRecord{kSimTimeMin, now});
      if (!inserted) {
        stats::accrueRecord(ctx_.metrics, id(), it->second.lastAccounted,
                            it->second.expire, now);
      }
      it->second.expire = addSat(now, config_.objectTimeout);
      it->second.lastAccounted = now;
      st.expire = std::max(st.expire, it->second.expire);
      batch.renew.push_back(
          net::BatchInvalRenew::Renewal{entry.obj, st.version,
                                        it->second.expire});
    }
  }
  session->awaitingAck = true;
  session->timer.cancel();
  session->timer = ctx_.scheduler.scheduleAfter(
      config_.msgTimeout,
      [this, client, volId = req.vol]() { endSession(client, volId); });
  ctx_.transport.send(net::Message{id(), client, std::move(batch)});
}

void RefVolumeServer::startFlush(NodeId client, VolumeId volId) {
  VolState& v = vol(volId);
  auto inIt = v.inactive.find(client);
  VL_CHECK(inIt != v.inactive.end());
  const SimTime now = ctx_.scheduler.now();

  net::BatchInvalRenew batch{};
  batch.vol = volId;
  for (PendingMsg& pm : inIt->second.pending) {
    stats::accrueRecord(ctx_.metrics, id(), pm.lastAccounted, pm.discardAt,
                        now);
    batch.invalidate.push_back(pm.obj);
  }
  inIt->second.pending.clear();

  Session session{Session::Kind::kFlush, true, now, {}};
  session.timer = ctx_.scheduler.scheduleAfter(
      config_.msgTimeout, [this, client, volId]() {
        // No ack: the client may have missed invalidations. Safe exit:
        // it becomes unreachable and must reconnect.
        VolState& vv = vol(volId);
        discardPending(vv, client);
        vv.inactive.erase(client);
        vv.unreachable.insert(client);
        endSession(client, volId);
      });
  sessions_[{client, volId}] = std::move(session);
  ctx_.transport.send(net::Message{id(), client, std::move(batch)});
}

void RefVolumeServer::handleAckBatch(const net::Message& msg) {
  const auto& ack = std::get<net::AckBatch>(msg.payload);
  const NodeId client = msg.from;
  Session* session = findSession(client, ack.vol);
  if (session == nullptr || !session->awaitingAck) return;
  VolState& v = vol(ack.vol);
  endSession(client, ack.vol);
  v.unreachable.erase(client);
  auto inIt = v.inactive.find(client);
  if (inIt != v.inactive.end() && inIt->second.pending.empty()) {
    v.inactive.erase(inIt);
  }
  maybeGrantVolume(client, ack.vol);
}

void RefVolumeServer::maybeGrantVolume(NodeId client, VolumeId volId) {
  // Full re-validation before handing out a volume lease. This runs both
  // on the direct path and when a grant was deferred behind a pending
  // write -- by the time the deferral drains, the client may have been
  // moved (back) to Unreachable by the committing write, or new pending
  // invalidations may have queued; granting blindly would let it read
  // stale data under a "valid" volume lease.
  VolState& v = vol(volId);
  if (v.pendingWrites > 0) {
    v.deferred.push_back(
        [this, client, volId]() { maybeGrantVolume(client, volId); });
    return;
  }
  if (findSession(client, volId) != nullptr) {
    // An exchange (reconnection or flush) is already in flight -- its
    // pending list has been moved into an unacknowledged batch, so
    // granting now could hand the client a volume lease while it still
    // holds leases the batch was meant to invalidate. Duplicate volume
    // requests are dropped; the session completes or times out into the
    // Unreachable set, and the client's retry takes the repair path.
    return;
  }
  demoteIfExpired(v, client, ctx_.scheduler.now());
  if (v.unreachable.count(client) > 0) {
    if (findSession(client, volId) == nullptr) startReconnect(client, volId);
    return;
  }
  if (mode_ == InvalidationMode::kDelayed) {
    auto inIt = v.inactive.find(client);
    if (inIt != v.inactive.end()) {
      if (!inIt->second.pending.empty()) {
        if (findSession(client, volId) == nullptr) startFlush(client, volId);
        return;
      }
      v.inactive.erase(inIt);
    }
  }
  grantVolume(client, volId);
}

// ---------------------------------------------------------------------
// writes (paper Fig. 3 "Server writes object o")
// ---------------------------------------------------------------------

void RefVolumeServer::write(ObjectId obj, WriteCallback cb) {
  writeInternal(obj, std::move(cb), ctx_.scheduler.now());
}

void RefVolumeServer::writeInternal(ObjectId obj, WriteCallback cb,
                                 SimTime requestedAt) {
  const SimTime now = ctx_.scheduler.now();
  if (now < recoveryUntil_) {
    // Post-crash recovery: delay every write until all volume leases
    // granted before the crash have provably expired. Re-checked every
    // time the delayed write fires -- a second crash during recovery
    // pushes the write out again.
    ctx_.scheduler.scheduleAt(
        recoveryUntil_, [this, obj, cb = std::move(cb), requestedAt]() mutable {
          writeInternal(obj, std::move(cb), requestedAt);
        });
    return;
  }
  auto pendingIt = pendingWrites_.find(obj);
  if (pendingIt != pendingWrites_.end()) {
    pendingIt->second.queuedWrites.push_back(std::move(cb));
    return;
  }
  startWrite(obj, std::move(cb), requestedAt);
}

void RefVolumeServer::startWrite(ObjectId obj, WriteCallback cb,
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
    for (auto& [client, record] : st.holders) {
      if (graceExpire(record.expire) > now) {
        anyValid = true;
        break;
      }
    }
    if (!anyValid) {
      ++st.version;
      ctx_.metrics.onWrite(now - requestedAt, false);
      if (cb) cb(WriteResult{now - requestedAt, false, st.version});
      return;
    }
    PendingWrite pw;
    pw.cb = std::move(cb);
    pw.requestedAt = requestedAt;
    pw.byExpiry = true;
    ++v.pendingWrites;
    const SimTime deadline =
        std::max(graceExpire(std::min(v.expire, st.expire)), now);
    auto [it, inserted] = pendingWrites_.emplace(obj, std::move(pw));
    VL_CHECK(inserted);
    it->second.timer = ctx_.scheduler.scheduleAt(
        deadline, [this, obj]() { commitWrite(obj); });
    return;
  }

  std::vector<NodeId> immediate;
  SimTime skipBound = kSimTimeMin;
  for (auto& [client, record] : st.holders) {
    if (graceExpire(record.expire) <= now) continue;  // lease expired

    // A client mid-exchange (reconnection or pending-list flush) is
    // provably reachable RIGHT NOW and may have object-lease renewals
    // for the old version already in flight -- it MUST be invalidated
    // even though it is still formally in the Unreachable set, or the
    // renewal + eventual volume grant would let it read stale data.
    const bool midSession = findSession(client, volId) != nullptr;
    if (!midSession && v.unreachable.count(client) > 0) {
      // Paper: do not contact unreachable clients -- but do not stop
      // waiting for them either. One that still holds a valid volume
      // lease can serve this object until min(volume, object) expiry,
      // so the commit may not happen before that instant.
      auto vIt = v.holders.find(client);
      if (vIt != v.holders.end() && graceExpire(vIt->second.expire) > now) {
        skipBound = std::max(
            skipBound,
            graceExpire(std::min(vIt->second.expire, record.expire)));
      }
      continue;
    }

    if (mode_ == InvalidationMode::kImmediate || midSession) {
      immediate.push_back(client);
      continue;
    }

    // Delayed mode: only clients with valid volume leases are contacted;
    // the rest queue on their pending lists.
    auto vIt = v.holders.find(client);
    const bool volValid =
        vIt != v.holders.end() && graceExpire(vIt->second.expire) > now;
    if (volValid) {
      immediate.push_back(client);
      continue;
    }
    const SimTime volExpiredAt =
        vIt != v.holders.end() ? vIt->second.expire : now;
    if (config_.inactiveDiscard != kNever &&
        now > addSat(volExpiredAt, config_.inactiveDiscard)) {
      discardPending(v, client);
      v.unreachable.insert(client);
      continue;
    }
    auto [inIt, inserted] =
        v.inactive.try_emplace(client, InactiveClient{volExpiredAt, {}});
    (void)inserted;
    queuePending(inIt->second, obj, now);
  }

  if (immediate.empty() && skipBound <= now) {
    ++st.version;
    ctx_.metrics.onWrite(now - requestedAt, false);
    if (cb) cb(WriteResult{now - requestedAt, false, st.version});
    return;
  }

  PendingWrite pw;
  pw.cb = std::move(cb);
  pw.requestedAt = requestedAt;
  pw.skipBound = skipBound;
  pw.waiting.insert(immediate.begin(), immediate.end());
  for (NodeId c : immediate) {
    ctx_.transport.send(net::Message{id(), c, net::Invalidate{obj}});
  }
  ++v.pendingWrites;

  // T_f = min(volume expiry, object expiry) + epsilon, floored by
  // msgTimeout (paper Fig. 3). Whichever lease family drains first
  // unblocks us. skipBound <= leaseBound (each skipped client's
  // expiries are under the aggregate maxima, both epsilon-extended), so
  // the timer also covers skipped clients. With nobody to contact, only
  // the skipped clients' drain matters.
  const SimTime leaseBound = graceExpire(std::min(v.expire, st.expire));
  const SimTime deadline =
      immediate.empty() ? skipBound
                        : std::max(leaseBound, addSat(now, config_.msgTimeout));
  auto [it, inserted] = pendingWrites_.emplace(obj, std::move(pw));
  VL_CHECK(inserted);
  it->second.timer =
      ctx_.scheduler.scheduleAt(deadline, [this, obj]() { commitWrite(obj); });
}

void RefVolumeServer::commitWrite(ObjectId obj) {
  auto it = pendingWrites_.find(obj);
  VL_CHECK(it != pendingWrites_.end());
  PendingWrite& pw = it->second;
  pw.timer.cancel();
  const SimTime now = ctx_.scheduler.now();
  const VolumeId volId = volumeOf(obj);
  ObjState& st = objState(obj);
  VolState& v = vol(volId);

  // Paper: unreachable <- unreachable + To_contact. Their object-lease
  // records stay; the reconnection exchange reconciles them later.
  for (NodeId c : pw.waiting) v.unreachable.insert(c);

  if (pw.byExpiry) {
    // No invalidations were sent. Anyone whose object lease is still
    // valid missed the update; their volume leases have drained (that
    // is what the commit waited for), so route them through the
    // pending-list (delayed) or reconnection (immediate) machinery.
    for (auto& [client, record] : st.holders) {
      if (graceExpire(record.expire) <= now) continue;
      if (v.unreachable.count(client) > 0) {
        // An open exchange that already renewed this object at the old
        // version must not clear Unreachable at its ack.
        const Session* session = findSession(client, volId);
        if (session != nullptr && session->awaitingAck) {
          endSession(client, volId);
        }
        continue;
      }
      if (mode_ == InvalidationMode::kDelayed) {
        auto vIt = v.holders.find(client);
        const SimTime volExpiredAt =
            vIt != v.holders.end() ? std::min(vIt->second.expire, now) : now;
        if (config_.inactiveDiscard != kNever &&
            now > addSat(volExpiredAt, config_.inactiveDiscard)) {
          discardPending(v, client);
          v.unreachable.insert(client);
          continue;
        }
        auto [inIt, inserted] =
            v.inactive.try_emplace(client, InactiveClient{volExpiredAt, {}});
        (void)inserted;
        queuePending(inIt->second, obj, now);
      } else {
        v.unreachable.insert(client);
      }
    }
  }

  ++st.version;
  ctx_.metrics.onWrite(now - pw.requestedAt, false);
  if (pw.cb) pw.cb(WriteResult{now - pw.requestedAt, false, st.version});

  std::deque<net::Message> deferredObj = std::move(pw.deferredObjRequests);
  std::deque<WriteCallback> queued = std::move(pw.queuedWrites);
  pendingWrites_.erase(it);
  --v.pendingWrites;
  VL_CHECK(v.pendingWrites >= 0);

  for (net::Message& m : deferredObj) handleReqObjLease(m);
  if (v.pendingWrites == 0) drainVolumeDeferred(volId);
  for (auto& w : queued) writeInternal(obj, std::move(w), now);
}

void RefVolumeServer::drainVolumeDeferred(VolumeId volId) {
  VolState& v = vol(volId);
  while (v.pendingWrites == 0 && !v.deferred.empty()) {
    auto action = std::move(v.deferred.front());
    v.deferred.pop_front();
    action();
  }
}

void RefVolumeServer::handleAckInvalidate(const net::Message& msg) {
  const auto& ack = std::get<net::AckInvalidate>(msg.payload);
  auto it = pendingWrites_.find(ack.obj);
  if (it == pendingWrites_.end()) return;  // duplicate / late ack
  PendingWrite& pw = it->second;
  if (pw.waiting.erase(msg.from) == 0) return;
  removeObjHolder(objState(ack.obj), msg.from);  // client dropped its copy
  if (!pw.waiting.empty()) return;
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
// crash recovery (paper §3.1.2)
// ---------------------------------------------------------------------

void RefVolumeServer::crashAndReboot() {
  const SimTime now = ctx_.scheduler.now();

  // In-flight writes die with the process; their callers never hear back.
  for (auto& [obj, pw] : pendingWrites_) pw.timer.cancel();
  pendingWrites_.clear();
  for (auto& [key, session] : sessions_) session.timer.cancel();
  sessions_.clear();

  for (auto& [volId, v] : volumes_) {
    for (auto& [c, r] : v.holders) {
      stats::accrueRecord(ctx_.metrics, id(), r.lastAccounted, r.expire, now);
    }
    v.holders.clear();
    for (auto& [c, in] : v.inactive) {
      for (PendingMsg& pm : in.pending) {
        stats::accrueRecord(ctx_.metrics, id(), pm.lastAccounted, pm.discardAt,
                            now);
      }
    }
    v.inactive.clear();
    v.unreachable.clear();  // epoch check re-detects stale clients
    v.deferred.clear();
    v.pendingWrites = 0;
    v.expire = kSimTimeMin;
    v.epoch += 1;  // persisted with the data
  }
  for (auto& [objId, st] : objects_) {
    for (auto& [c, r] : st.holders) {
      stats::accrueRecord(ctx_.metrics, id(), r.lastAccounted, r.expire, now);
    }
    st.holders.clear();
    st.expire = kSimTimeMin;
  }

  // Delay writes until every volume lease granted before the crash has
  // expired -- epsilon-extended, so slow-clocked holders have stopped
  // serving too (the stable-storage high-water-mark scheme).
  recoveryUntil_ = std::max(now, graceExpire(maxVolExpireGranted_));
}

void RefVolumeServer::finalizeAccounting(SimTime now) {
  for (auto& [volId, v] : volumes_) {
    for (auto& [c, r] : v.holders) {
      stats::accrueRecord(ctx_.metrics, id(), r.lastAccounted, r.expire, now);
    }
    for (auto& [c, in] : v.inactive) {
      for (PendingMsg& pm : in.pending) {
        stats::accrueRecord(ctx_.metrics, id(), pm.lastAccounted, pm.discardAt,
                            now);
      }
    }
  }
  for (auto& [objId, st] : objects_) {
    for (auto& [c, r] : st.holders) {
      stats::accrueRecord(ctx_.metrics, id(), r.lastAccounted, r.expire, now);
    }
  }
}

}  // namespace vlease::testref
