#include "proto/lease.h"

#include <algorithm>

#include "util/check.h"

namespace vlease::proto {

// ---- server ----

Version LeaseServer::currentVersion(ObjectId obj) const {
  return objects_[nativeSlot(obj)].version;
}

void LeaseServer::handleLeaseRequest(const net::Message& msg) {
  const auto& req = std::get<net::ReqObjLease>(msg.payload);
  ObjState& st = state(req.obj);
  if (st.pending != nullptr) {
    // A write is in flight: defer the grant until it commits so we never
    // lease out a version that is about to change.
    st.pending->deferredRequests.push_back(msg);
    return;
  }
  const LeaseRecord& rec =
      renewHolder(st.holders, clientIdx(msg.from), leaseLength());
  st.expire = std::max(st.expire, rec.expire);

  const bool changed = st.version != req.haveVersion;
  ctx_.transport.send(net::Message{
      id(), msg.from,
      net::ObjLeaseGrant{req.obj, st.version, rec.expire, changed,
                         changed ? ctx_.catalog.object(req.obj).sizeBytes
                                 : 0}});
}

void LeaseServer::write(ObjectId obj, WriteCallback cb) {
  writeInternal(obj, std::move(cb), ctx_.scheduler.now());
}

void LeaseServer::writeInternal(ObjectId obj, WriteCallback cb,
                                SimTime requestedAt) {
  const SimTime now = ctx_.scheduler.now();
  if (now < recoveryUntil_) {
    // Post-crash: all lease state was lost, so wait until any lease we
    // might have granted has provably expired before mutating data.
    // Re-checked every time the delayed write fires -- a second crash
    // during recovery pushes the write out again.
    ctx_.scheduler.scheduleAt(
        recoveryUntil_, [this, obj, cb = std::move(cb), requestedAt]() mutable {
          writeInternal(obj, std::move(cb), requestedAt);
        });
    return;
  }
  PendingWrite* pending = state(obj).pending.get();
  if (pending != nullptr) {
    // Serialize writes to one object: run after the in-flight one.
    pending->queuedWrites.push_back(std::move(cb));
    (void)requestedAt;  // queued writes restart their clock at dequeue
    return;
  }
  startWrite(obj, std::move(cb), requestedAt);
}

void LeaseServer::startWrite(ObjectId obj, WriteCallback cb,
                             SimTime requestedAt) {
  const SimTime now = ctx_.scheduler.now();
  ObjState& st = state(obj);

  std::vector<std::uint32_t> targets;
  st.holders.forEach([&](std::uint32_t ci, const LeaseRecord& record) {
    if (graceExpire(record.expire) > now) targets.push_back(ci);
  });

  if (mode_ == LeaseMode::kBestEffort) {
    // Fire-and-forget: notify everyone, drop their records (the server
    // assumes delivery), commit immediately. A client that missed the
    // invalidation can read stale data until its lease expires. With
    // Liu-Cao retries configured, keep retransmitting until the client
    // acknowledges or the budget runs out.
    for (std::uint32_t ci : targets) {
      ctx_.transport.send(
          net::Message{id(), clientNode(ci), net::Invalidate{obj}});
      removeHolder(st.holders, ci);
      if (config_.bestEffortRetries > 0) {
        scheduleRetry(obj, clientNode(ci), config_.bestEffortRetries);
      }
    }
    ++st.version;
    ctx_.metrics.onWrite(now - requestedAt, false);
    if (cb) cb(WriteResult{now - requestedAt, false, st.version});
    return;
  }

  if (targets.empty()) {
    ++st.version;
    ctx_.metrics.onWrite(now - requestedAt, false);
    if (cb) cb(WriteResult{now - requestedAt, false, st.version});
    return;
  }

  VL_CHECK(st.pending == nullptr);
  st.pending = std::make_unique<PendingWrite>();
  PendingWrite& pw = *st.pending;
  pw.cb = std::move(cb);
  pw.startedAt = requestedAt;
  SimTime deadline;
  if (mode_ == LeaseMode::kLease && config_.writeByLeaseExpiry) {
    // Invalidate-by-waiting: send nothing; commit when every lease on
    // the object has drained. Still strongly consistent -- clients keep
    // reading the OLD version until the write commits.
    deadline = std::max(graceExpire(st.expire), now);
  } else {
    pw.waiting = std::move(targets);
    for (std::uint32_t ci : pw.waiting) {
      ctx_.transport.send(
          net::Message{id(), clientNode(ci), net::Invalidate{obj}});
    }
    // Ack-wait bound T_f: lease expiry (Lease) with the msgTimeout
    // floor; Callback has no lease to wait out, so msgTimeout is the
    // simulator's force-complete bound for what the paper treats as an
    // infinite wait.
    deadline = mode_ == LeaseMode::kCallback
                   ? addSat(now, config_.msgTimeout)
                   : std::max(graceExpire(st.expire),
                              addSat(now, config_.msgTimeout));
  }
  // Acks are delivered after this handler returns, so the commit always
  // goes through deliver() or this timer.
  pw.timer = ctx_.scheduler.scheduleAt(
      deadline, [this, obj]() { commitWrite(obj, /*viaTimeout=*/true); });
}

void LeaseServer::commitWrite(ObjectId obj, bool viaTimeout) {
  ObjState& st = state(obj);
  VL_CHECK(st.pending != nullptr);
  const SimTime now = ctx_.scheduler.now();
  PendingWrite& pw = *st.pending;
  pw.timer.cancel();

  const bool blocked =
      viaTimeout && mode_ == LeaseMode::kCallback && !pw.waiting.empty();
  if (mode_ == LeaseMode::kLease) {
    // Any client that never acked has, by construction of T_f, an
    // expired lease; drop its record.
    for (std::uint32_t ci : pw.waiting) removeHolder(st.holders, ci);
  }
  ++st.version;
  ctx_.metrics.onWrite(now - pw.startedAt, blocked);
  if (pw.cb) pw.cb(WriteResult{now - pw.startedAt, blocked, st.version});

  // Release deferred work. Take the write out first: re-delivered
  // requests grant at once, and queued writes start their own.
  const std::unique_ptr<PendingWrite> done = std::move(st.pending);
  for (net::Message& m : done->deferredRequests) handleLeaseRequest(m);
  std::vector<WriteCallback>& queued = done->queuedWrites;
  if (queued.empty()) return;
  startWrite(obj, std::move(queued.front()), now);
  // The rest queue behind the next write, or start in turn when it
  // committed synchronously (no valid holders).
  for (std::size_t i = 1; i < queued.size(); ++i) {
    writeInternal(obj, std::move(queued[i]), now);
  }
}

void LeaseServer::scheduleRetry(ObjectId obj, NodeId client, int remaining) {
  auto key = std::make_pair(obj, client);
  auto existing = retries_.find(key);
  if (existing != retries_.end()) {
    // A newer write supersedes the outstanding retransmission chain;
    // reset its budget.
    existing->second.timer.cancel();
    retries_.erase(existing);
  }
  if (remaining <= 0) return;
  RetryState state;
  state.remaining = remaining;
  state.timer = ctx_.scheduler.scheduleAfter(
      config_.retryInterval, [this, obj, client, remaining]() {
        retries_.erase(std::make_pair(obj, client));
        ctx_.transport.send(net::Message{id(), client, net::Invalidate{obj}});
        scheduleRetry(obj, client, remaining - 1);
      });
  retries_.emplace(key, std::move(state));
}

void LeaseServer::deliver(const net::Message& msg) {
  if (std::holds_alternative<net::ReqObjLease>(msg.payload)) {
    handleLeaseRequest(msg);
    return;
  }
  const auto* ack = std::get_if<net::AckInvalidate>(&msg.payload);
  VL_CHECK_MSG(ack != nullptr, "LeaseServer: unexpected message type");
  if (mode_ == LeaseMode::kBestEffort) {
    // Liu-Cao ack: stop retransmitting to this client.
    auto retryIt = retries_.find(std::make_pair(ack->obj, msg.from));
    if (retryIt != retries_.end()) {
      retryIt->second.timer.cancel();
      retries_.erase(retryIt);
    }
    return;
  }
  ObjState& st = state(ack->obj);
  if (st.pending == nullptr) return;  // late/duplicate ack
  std::vector<std::uint32_t>& waiting = st.pending->waiting;
  const std::uint32_t ci = clientIdx(msg.from);
  const auto it = std::find(waiting.begin(), waiting.end(), ci);
  if (it == waiting.end()) return;
  waiting.erase(it);
  removeHolder(st.holders, ci);  // the client dropped its copy
  if (waiting.empty()) commitWrite(ack->obj, /*viaTimeout=*/false);
}

void LeaseServer::crashAndReboot() {
  // A reboot loses all lease state; versions live with the data on
  // stable storage. Lease (and BestEffort) then delay writes for one
  // full lease length (Gray & Cheriton's recovery rule). Callback has no
  // such bound: its consistency is genuinely broken by a crash.
  const SimTime now = ctx_.scheduler.now();
  if (mode_ != LeaseMode::kCallback) {
    recoveryUntil_ = graceExpire(addSat(now, config_.objectTimeout));
  }
  for (ObjState& st : objects_) {
    accrueHolders(st.holders, now);
    st.holders.clear();
    st.expire = kSimTimeMin;
  }
  // Pending writes complete as blocked, in object order.
  for (ObjState& st : objects_) {
    if (st.pending == nullptr) continue;
    PendingWrite& pw = *st.pending;
    pw.timer.cancel();
    ctx_.metrics.onWrite(now - pw.startedAt, /*blocked=*/true);
    if (pw.cb) pw.cb(WriteResult{now - pw.startedAt, true, st.version});
    st.pending.reset();
  }
  for (auto& [key, retry] : retries_) retry.timer.cancel();
  retries_.clear();
}

void LeaseServer::finalizeAccounting(SimTime now) {
  for (ObjState& st : objects_) accrueHolders(st.holders, now);
}

// ---- client ----

void LeaseClient::read(ObjectId obj, ReadCallback cb) {
  const SimTime now = ctx_.scheduler.now();
  const LeaseCache::Entry* entry = cache_.find(obj);
  if (entry != nullptr && entry->valid(leaseGuard(now))) {
    cache_.touch(obj);
    ReadResult result;
    result.ok = true;
    result.usedNetwork = false;
    result.fetchedData = false;
    result.version = entry->version();
    cb(result);
    return;
  }
  const bool alreadyAsking = pending_.waitingOn(obj);
  pending_.add(obj, config_->readTimeout, std::move(cb));
  if (!alreadyAsking) {
    const Version have =
        entry != nullptr && entry->hasData ? entry->version() : kNoVersion;
    ctx_.transport.send(net::Message{id(), ctx_.serverOf(obj),
                                     net::ReqObjLease{obj, have}});
  }
}

void LeaseClient::deliver(const net::Message& msg) {
  if (const auto* grant = std::get_if<net::ObjLeaseGrant>(&msg.payload)) {
    LeaseCache::Entry& entry = cache_.entry(grant->obj);
    entry.setVersion(grant->version);
    if (grant->carriesData) entry.hasData = true;
    entry.validUntil = grant->expire;

    ReadResult result;
    result.ok = entry.hasData;
    result.usedNetwork = true;
    result.fetchedData = grant->carriesData;
    result.version = grant->version;
    pending_.resolveAll(grant->obj, result);
    return;
  }
  const auto* inval = std::get_if<net::Invalidate>(&msg.payload);
  VL_CHECK_MSG(inval != nullptr, "LeaseClient: unexpected message type");
  if (!config_->faultInjectIgnoreInvalidations) {
    cache_.invalidate(inval->obj);
  }
  if (mode_ != LeaseMode::kBestEffort || config_->bestEffortRetries > 0) {
    ctx_.transport.send(
        net::Message{id(), msg.from, net::AckInvalidate{inval->obj}});
  }
}

}  // namespace vlease::proto
