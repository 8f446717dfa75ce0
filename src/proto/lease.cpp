#include "proto/lease.h"

#include <algorithm>

#include "util/check.h"

namespace vlease::proto {

// ---- server ----

LeaseServer::ObjState& LeaseServer::state(ObjectId obj) {
  return objects_[obj];
}

Version LeaseServer::currentVersion(ObjectId obj) const {
  auto it = objects_.find(obj);
  return it == objects_.end() ? 1 : it->second.version;
}

void LeaseServer::removeHolder(ObjState& st, NodeId client) {
  auto it = st.holders.find(client);
  if (it == st.holders.end()) return;
  stats::accrueRecord(ctx_.metrics, id(), it->second.lastAccounted,
                      it->second.expire, ctx_.scheduler.now());
  st.holders.erase(it);
}

void LeaseServer::handleLeaseRequest(const net::Message& msg) {
  const auto& req = std::get<net::ReqObjLease>(msg.payload);
  auto pendingIt = pendingWrites_.find(req.obj);
  if (pendingIt != pendingWrites_.end()) {
    // A write is in flight: defer the grant until it commits so we never
    // lease out a version that is about to change.
    pendingIt->second.deferredRequests.push_back(msg);
    return;
  }
  const SimTime now = ctx_.scheduler.now();
  ObjState& st = state(req.obj);
  auto [it, inserted] = st.holders.try_emplace(
      msg.from, LeaseRecord{kSimTimeMin, now});
  if (!inserted) {
    // Renewal: settle the old record's accounting first.
    stats::accrueRecord(ctx_.metrics, id(), it->second.lastAccounted,
                        it->second.expire, now);
  }
  it->second.expire = addSat(now, leaseLength());
  it->second.lastAccounted = now;
  st.expire = std::max(st.expire, it->second.expire);

  const bool changed = st.version != req.haveVersion;
  ctx_.transport.send(net::Message{
      id(), msg.from,
      net::ObjLeaseGrant{req.obj, st.version, it->second.expire, changed,
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
  auto pendingIt = pendingWrites_.find(obj);
  if (pendingIt != pendingWrites_.end()) {
    // Serialize writes to one object: run after the in-flight one.
    pendingIt->second.queuedWrites.push_back(std::move(cb));
    (void)requestedAt;  // queued writes restart their clock at dequeue
    return;
  }
  startWrite(obj, std::move(cb), requestedAt);
}

void LeaseServer::startWrite(ObjectId obj, WriteCallback cb,
                             SimTime requestedAt) {
  const SimTime now = ctx_.scheduler.now();
  ObjState& st = state(obj);

  std::vector<NodeId> targets;
  for (const auto& [client, record] : st.holders) {
    if (graceExpire(record.expire) > now) targets.push_back(client);
  }

  if (mode_ == LeaseMode::kBestEffort) {
    // Fire-and-forget: notify everyone, drop their records (the server
    // assumes delivery), commit immediately. A client that missed the
    // invalidation can read stale data until its lease expires. With
    // Liu-Cao retries configured, keep retransmitting until the client
    // acknowledges or the budget runs out.
    for (NodeId c : targets) {
      ctx_.transport.send(net::Message{id(), c, net::Invalidate{obj}});
      removeHolder(st, c);
      if (config_.bestEffortRetries > 0) {
        scheduleRetry(obj, c, config_.bestEffortRetries);
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

  if (mode_ == LeaseMode::kLease && config_.writeByLeaseExpiry) {
    // Invalidate-by-waiting: send nothing; commit when every lease on
    // the object has drained. Still strongly consistent -- clients keep
    // reading the OLD version until the write commits.
    PendingWrite pw;
    pw.cb = std::move(cb);
    pw.startedAt = requestedAt;
    auto [it, inserted] = pendingWrites_.emplace(obj, std::move(pw));
    VL_CHECK(inserted);
    it->second.timer = ctx_.scheduler.scheduleAt(
        std::max(graceExpire(st.expire), now),
        [this, obj]() { commitWrite(obj, /*viaTimeout=*/true); });
    return;
  }

  PendingWrite pw;
  pw.cb = std::move(cb);
  pw.startedAt = requestedAt;
  pw.waiting.insert(targets.begin(), targets.end());
  for (NodeId c : targets) {
    ctx_.transport.send(net::Message{id(), c, net::Invalidate{obj}});
  }
  // Ack-wait bound T_f: lease expiry (Lease) with the msgTimeout floor;
  // Callback has no lease to wait out, so msgTimeout is the simulator's
  // force-complete bound for what the paper treats as an infinite wait.
  SimTime deadline =
      mode_ == LeaseMode::kCallback
          ? addSat(now, config_.msgTimeout)
          : std::max(graceExpire(st.expire), addSat(now, config_.msgTimeout));
  auto [it, inserted] = pendingWrites_.emplace(obj, std::move(pw));
  VL_CHECK(inserted);
  it->second.timer = ctx_.scheduler.scheduleAt(
      deadline, [this, obj]() { commitWrite(obj, /*viaTimeout=*/true); });
  // Zero-latency acks may already have arrived -- they cannot have,
  // actually: deliveries happen after this handler returns. The commit
  // always goes through deliver() or the timer.
}

void LeaseServer::commitWrite(ObjectId obj, bool viaTimeout) {
  auto it = pendingWrites_.find(obj);
  VL_CHECK(it != pendingWrites_.end());
  const SimTime now = ctx_.scheduler.now();
  PendingWrite& pw = it->second;
  pw.timer.cancel();

  ObjState& st = state(obj);
  const bool blocked =
      viaTimeout && mode_ == LeaseMode::kCallback && !pw.waiting.empty();
  if (mode_ == LeaseMode::kLease) {
    // Any client that never acked has, by construction of T_f, an
    // expired lease; drop its record.
    for (NodeId c : pw.waiting) removeHolder(st, c);
  }
  ++st.version;
  ctx_.metrics.onWrite(now - pw.startedAt, blocked);
  if (pw.cb) pw.cb(WriteResult{now - pw.startedAt, blocked, st.version});

  // Release deferred work. Move the queues out first: re-delivered
  // requests and queued writes mutate pendingWrites_.
  std::deque<net::Message> deferred = std::move(pw.deferredRequests);
  std::deque<WriteCallback> queued = std::move(pw.queuedWrites);
  pendingWrites_.erase(it);
  for (net::Message& m : deferred) handleLeaseRequest(m);
  if (!queued.empty()) {
    WriteCallback next = std::move(queued.front());
    queued.pop_front();
    startWrite(obj, std::move(next), now);
    if (!queued.empty()) {
      auto again = pendingWrites_.find(obj);
      if (again != pendingWrites_.end()) {
        for (auto& w : queued) again->second.queuedWrites.push_back(std::move(w));
      } else {
        // The next write committed synchronously (no valid holders);
        // drain the rest the same way.
        for (auto& w : queued) writeInternal(obj, std::move(w), now);
      }
    }
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
  auto it = pendingWrites_.find(ack->obj);
  if (it == pendingWrites_.end()) return;  // late/duplicate ack
  PendingWrite& pw = it->second;
  if (pw.waiting.erase(msg.from) == 0) return;
  ObjState& st = state(ack->obj);
  removeHolder(st, msg.from);  // the client dropped its copy
  if (pw.waiting.empty()) commitWrite(ack->obj, /*viaTimeout=*/false);
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
  for (auto& [obj, st] : objects_) {
    for (auto& [client, record] : st.holders) {
      stats::accrueRecord(ctx_.metrics, id(), record.lastAccounted,
                          record.expire, now);
    }
    st.holders.clear();
    st.expire = kSimTimeMin;
  }
  for (auto& [obj, pw] : pendingWrites_) {
    pw.timer.cancel();
    ctx_.metrics.onWrite(now - pw.startedAt, /*blocked=*/true);
    if (pw.cb) pw.cb(WriteResult{now - pw.startedAt, true, state(obj).version});
  }
  pendingWrites_.clear();
  for (auto& [key, retry] : retries_) retry.timer.cancel();
  retries_.clear();
}

void LeaseServer::finalizeAccounting(SimTime now) {
  for (auto& [obj, st] : objects_) {
    for (auto& [client, record] : st.holders) {
      stats::accrueRecord(ctx_.metrics, id(), record.lastAccounted,
                          record.expire, now);
    }
  }
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
  pending_.add(obj, config_.readTimeout, std::move(cb));
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
  if (!config_.faultInjectIgnoreInvalidations) {
    cache_.invalidate(inval->obj);
  }
  if (mode_ != LeaseMode::kBestEffort || config_.bestEffortRetries > 0) {
    ctx_.transport.send(
        net::Message{id(), msg.from, net::AckInvalidate{inval->obj}});
  }
}

}  // namespace vlease::proto
