#include "core/volume_client.h"

#include <algorithm>

#include "util/check.h"

namespace vlease::core {

using proto::LeaseCache;
using proto::ReadCallback;
using proto::ReadResult;

bool VolumeClient::volumeValid(VolumeId vol, SimTime now) const {
  const std::size_t i = raw(vol);
  return i < volumes_.size() && volumes_[i].expire > leaseGuard(now);
}

bool VolumeClient::hasValidVolumeLease(VolumeId vol) const {
  return volumeValid(vol, ctx_.scheduler.now());
}

bool VolumeClient::hasValidObjectLease(ObjectId obj) const {
  const LeaseCache::Entry* e = cache_.find(obj);
  return e != nullptr && e->valid(leaseGuard(ctx_.scheduler.now()));
}

Epoch VolumeClient::knownEpoch(VolumeId vol) const {
  const std::size_t i = raw(vol);
  return i < volumes_.size() ? volumes_[i].epoch : 0;
}

void VolumeClient::servable(SimTime now, std::vector<Servable>& out) const {
  // Mirrors read(): a local hit needs BOTH a valid object lease and a
  // valid lease on the enclosing volume.
  const SimTime guard = leaseGuard(now);
  const auto live = [&](const VolLease& v) { return v.expire > guard; };
  if (std::none_of(volumes_.begin(), volumes_.end(), live)) return;
  cache_.forEach([&](ObjectId obj, const LeaseCache::Entry& entry) {
    if (!entry.valid(guard)) return;
    const std::size_t vol = raw(ctx_.catalog.object(obj).volume);
    if (vol < volumes_.size() && live(volumes_[vol])) {
      out.push_back({obj, entry.version()});
    }
  });
}

void VolumeClient::dropCache() {
  cache_.clear();  // also forgets the per-entry lastGrantCarriedData bits
  std::fill(volumes_.begin(), volumes_.end(), VolLease{});
  // Outstanding request markers refer to replies that may still arrive;
  // clearing them lets the restarted client issue fresh requests.
  std::fill(volReqOutstanding_.begin(), volReqOutstanding_.end(), kSimTimeMin);
  objReq_.clear();
}

void VolumeClient::retire() {
  // Graceful departure (distinct from a crash, which is abrupt and
  // leaves memory in place for the reboot): forget all lease state AND
  // return the storage. The server is not told; its holder records
  // simply expire and the sweep reclaims them. waiting_ is kept -- reads
  // still in flight resolve or time out through the normal machinery.
  dropCache();
  cache_.releaseMemory();
  std::vector<VolLease>().swap(volumes_);
  std::vector<SimTime>().swap(volReqOutstanding_);
  std::vector<ObjReq>().swap(objReq_);
}

// ---------------------------------------------------------------------
// the "reads waiting" per-volume index
// ---------------------------------------------------------------------

void VolumeClient::pendingInsert(VolumeId vol, ObjectId obj) {
  VL_DCHECK(raw(vol) <= 0xffffffffull && raw(obj) <= 0xffffffffull);
  const std::uint32_t o = static_cast<std::uint32_t>(raw(obj));
  for (const Waiting& w : waiting_) {
    if (w.obj == o) return;
  }
  waiting_.push_back(Waiting{static_cast<std::uint32_t>(raw(vol)), o});
}

void VolumeClient::pendingErase(VolumeId vol, ObjectId obj) {
  (void)vol;
  const std::uint32_t o = static_cast<std::uint32_t>(raw(obj));
  for (std::size_t i = 0; i < waiting_.size(); ++i) {
    if (waiting_[i].obj == o) {
      waiting_.erase(waiting_.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

// ---------------------------------------------------------------------
// read path (paper Fig. 4 "Client reads object o")
// ---------------------------------------------------------------------

void VolumeClient::read(ObjectId obj, ReadCallback cb) {
  const SimTime now = ctx_.scheduler.now();
  const VolumeId vol = ctx_.catalog.object(obj).volume;
  const LeaseCache::Entry* entry = cache_.find(obj);
  if (entry != nullptr && entry->valid(leaseGuard(now)) &&
      volumeValid(vol, now)) {
    cache_.touch(obj);
    ReadResult result;
    result.ok = true;
    result.usedNetwork = false;
    result.fetchedData = false;
    result.version = entry->version();
    cb(result);
    return;
  }
  // Track fetches for this op only: the flag rides on the cache entry
  // (if any) and is set again by the next grant.
  if (LeaseCache::Entry* e = cache_.findMutable(obj)) {
    e->lastGrantCarriedData = false;
  }
  pending_.add(obj, config_->readTimeout, std::move(cb));
  pendingInsert(vol, obj);
  pump(obj);
}

void VolumeClient::pump(ObjectId obj) {
  const SimTime now = ctx_.scheduler.now();
  const VolumeId vol = ctx_.catalog.object(obj).volume;
  const LeaseCache::Entry* entry = cache_.find(obj);
  const bool volOk = volumeValid(vol, now);
  const bool objOk = entry != nullptr && entry->valid(leaseGuard(now));

  if (volOk && objOk) {
    ReadResult result;
    result.ok = true;
    result.usedNetwork = true;
    result.fetchedData = entry->lastGrantCarriedData;
    result.version = entry->version();
    pending_.resolveAll(obj, result);
    pendingErase(vol, obj);
    return;
  }
  if (!pending_.waitingOn(obj)) return;  // nothing to drive
  if (!volOk) ensureVolume(vol);
  if (!objOk) ensureObject(obj);
}

void VolumeClient::pumpVolume(VolumeId vol) {
  const std::uint32_t v = static_cast<std::uint32_t>(raw(vol));
  // pump() mutates the index; iterate a snapshot, newest-first.
  std::vector<ObjectId> objs = std::move(pumpScratch_);
  objs.clear();
  for (std::size_t i = waiting_.size(); i-- > 0;) {
    if (waiting_[i].vol == v) objs.push_back(makeObjectId(waiting_[i].obj));
  }
  for (ObjectId obj : objs) pump(obj);
  objs.clear();
  pumpScratch_ = std::move(objs);
}

void VolumeClient::ensureVolume(VolumeId vol) {
  const SimTime now = ctx_.scheduler.now();
  const std::size_t v = raw(vol);
  ensureVolSlot(v);
  if (volReqOutstanding_[v] != kSimTimeMin &&
      now < addSat(volReqOutstanding_[v], config_->msgTimeout)) {
    return;  // a request is in flight
  }
  if (config_->piggybackVolumeLease) {
    // The object request carries the volume renewal; only send a bare
    // volume request if no object request is going out (pure volume
    // refresh, e.g. during reconnection retry).
    for (std::size_t i = waiting_.size(); i-- > 0;) {
      if (waiting_[i].vol != v) continue;
      const LeaseCache::Entry* e = cache_.find(makeObjectId(waiting_[i].obj));
      if (e == nullptr || !e->valid(leaseGuard(ctx_.scheduler.now()))) {
        return;
      }
    }
  }
  volReqOutstanding_[v] = now;
  ctx_.transport.send(net::Message{id(), ctx_.serverOf(vol),
                                   net::ReqVolLease{vol, knownEpoch(vol)}});
}

void VolumeClient::ensureObject(ObjectId obj) {
  const SimTime now = ctx_.scheduler.now();
  VL_DCHECK(raw(obj) <= 0xffffffffull);
  const std::uint32_t o = static_cast<std::uint32_t>(raw(obj));
  if (ObjReq* req = findObjReq(o)) {
    if (now < addSat(req->sent, config_->msgTimeout)) {
      return;  // a request is in flight
    }
    req->sent = now;
  } else {
    objReq_.push_back(ObjReq{o, now});
  }
  const LeaseCache::Entry* entry = cache_.find(obj);
  net::ReqObjLease req{};
  req.obj = obj;
  req.haveVersion =
      entry != nullptr && entry->hasData ? entry->version() : kNoVersion;
  if (config_->piggybackVolumeLease) {
    req.wantVolume = true;
    req.haveEpoch = knownEpoch(ctx_.catalog.object(obj).volume);
  }
  ctx_.transport.send(net::Message{id(), ctx_.serverOf(obj), req});
}

// ---------------------------------------------------------------------
// message handling
// ---------------------------------------------------------------------

void VolumeClient::deliver(const net::Message& msg) {
  switch (msg.payload.index()) {
    case net::payloadIndex<net::VolLeaseGrant>():
      return handleVolGrant(msg);
    case net::payloadIndex<net::ObjLeaseGrant>():
      return handleObjGrant(msg);
    case net::payloadIndex<net::Invalidate>():
      return handleInvalidate(msg);
    case net::payloadIndex<net::MustRenewAll>():
      return handleMustRenewAll(msg);
    case net::payloadIndex<net::BatchInvalRenew>():
      return handleBatch(msg);
    default:
      VL_CHECK_MSG(false, "VolumeClient: unexpected message type");
  }
}

void VolumeClient::handleVolGrant(const net::Message& msg) {
  const auto& grant = std::get<net::VolLeaseGrant>(msg.payload);
  const std::size_t v = raw(grant.vol);
  // Same unmatched-reply rule as handleObjGrant: no outstanding request
  // marker means dropCache()/retire() disowned this exchange.
  if (v >= volReqOutstanding_.size() ||
      volReqOutstanding_[v] == kSimTimeMin) {
    return;
  }
  volumes_[v].expire = grant.expire;
  volumes_[v].epoch = grant.epoch;
  volReqOutstanding_[v] = kSimTimeMin;
  pumpVolume(grant.vol);
}

void VolumeClient::handleObjGrant(const net::Message& msg) {
  const auto& grant = std::get<net::ObjLeaseGrant>(msg.payload);
  // A grant installs only while its request is still outstanding. The
  // network is FIFO per node pair, so in steady state every grant finds
  // its marker; the marker is gone exactly when dropCache()/retire()
  // discarded the request context, and such a grant must be dropped --
  // installing it would hand a departed-and-returned client a lease the
  // server believes it already dealt with (see eraseObjReq).
  const bool vtrMatched = eraseObjReq(static_cast<std::uint32_t>(raw(grant.obj)));
  if (!vtrMatched) return;
  LeaseCache::Entry& entry = cache_.entry(grant.obj);
  entry.setVersion(grant.version);
  if (grant.carriesData) entry.hasData = true;
  entry.validUntil = grant.expire;
  entry.lastGrantCarriedData = grant.carriesData;
  if (grant.grantsVolume) {
    const VolumeId vol = ctx_.catalog.object(grant.obj).volume;
    const std::size_t v = raw(vol);
    ensureVolSlot(v);
    volumes_[v].expire = grant.volExpire;
    volumes_[v].epoch = grant.epoch;
    volReqOutstanding_[v] = kSimTimeMin;
    pumpVolume(vol);
  } else {
    // Epoch learning without a volume grant: adopt the grant's epoch,
    // but only from the "never held one" state. A client whose crash
    // or retirement erased its epoch memory repopulates its cache
    // through exactly this path; labeling the entries with the epoch
    // they were granted under preserves the invariant the servers rely
    // on -- haveEpoch == 0 implies nothing cached for the volume -- so
    // the epoch-0 reconnection skip stays sound. A known nonzero epoch
    // is never overwritten here: advancing it must go through the
    // volume-lease path, where a stale epoch triggers MUST_RENEW_ALL
    // and the OTHER cached objects of the volume get reconciled too.
    const VolumeId vol = ctx_.catalog.object(grant.obj).volume;
    const std::size_t v = raw(vol);
    ensureVolSlot(v);
    if (volumes_[v].epoch == 0) volumes_[v].epoch = grant.epoch;
    pump(grant.obj);
  }
}

void VolumeClient::handleInvalidate(const net::Message& msg) {
  const auto& inval = std::get<net::Invalidate>(msg.payload);
  if (!config_->faultInjectIgnoreInvalidations) {
    cache_.invalidate(inval.obj);
  }
  ctx_.transport.send(
      net::Message{id(), msg.from, net::AckInvalidate{inval.obj}});
  // A read that was waiting on this object must now re-fetch it.
  pump(inval.obj);
}

void VolumeClient::handleMustRenewAll(const net::Message& msg) {
  const auto& mra = std::get<net::MustRenewAll>(msg.payload);
  net::RenewObjLeases renew{};
  renew.vol = mra.vol;
  // Paper §3.1.1 (prose): the client reports every cached object of the
  // volume with its version number so the server can renew the
  // unmodified ones and invalidate the rest. (Fig. 4's pseudocode says
  // "expired leases only", which contradicts the prose and the safety
  // argument; see DESIGN.md §6.)
  cache_.forEach([&](ObjectId obj, const LeaseCache::Entry& entry) {
    if (!entry.hasData) return;
    if (ctx_.catalog.object(obj).volume != mra.vol) return;
    renew.leases.push_back(
        net::RenewObjLeases::Entry{obj, entry.version()});
  });
  ctx_.transport.send(net::Message{id(), msg.from, std::move(renew)});
}

void VolumeClient::handleBatch(const net::Message& msg) {
  const auto& batch = std::get<net::BatchInvalRenew>(msg.payload);
  if (!config_->faultInjectIgnoreInvalidations) {
    for (ObjectId obj : batch.invalidate) cache_.invalidate(obj);
  }
  // A bounded cache evicts without telling the server, so a renewal can
  // name an object the client no longer holds; it is dropped.
  for (const auto& renewal : batch.renew) {
    LeaseCache::Entry* entry = cache_.findMutable(renewal.obj);
    if (entry == nullptr) continue;
    VL_DCHECK(entry->version() == renewal.version);
    entry->validUntil = renewal.expire;
  }
  ctx_.transport.send(net::Message{id(), msg.from, net::AckBatch{batch.vol}});
  // Reads blocked on invalidated objects must re-request them; the
  // volume grant (arriving next) pumps the rest.
  for (ObjectId obj : batch.invalidate) pump(obj);
  for (const auto& renewal : batch.renew) pump(renewal.obj);
}

}  // namespace vlease::core
