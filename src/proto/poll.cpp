#include "proto/poll.h"

#include <algorithm>

#include "util/check.h"

namespace vlease::proto {

// ---- server ----

void PollServer::write(ObjectId obj, WriteCallback cb) {
  ObjState& st = state(obj);
  ++st.version;
  st.modifiedAt = ctx_.scheduler.now();
  ctx_.metrics.onWrite(/*delay=*/0, /*blocked=*/false);
  if (cb) cb(WriteResult{0, false, st.version});
}

Version PollServer::currentVersion(ObjectId obj) const {
  return objects_[nativeSlot(obj)].version;
}

void PollServer::deliver(const net::Message& msg) {
  const auto* req = std::get_if<net::PollRequest>(&msg.payload);
  VL_CHECK_MSG(req != nullptr, "PollServer: unexpected message type");
  const ObjState& st = state(req->obj);
  const bool changed = st.version != req->haveVersion;
  ctx_.transport.send(net::Message{
      id(), msg.from,
      net::PollReply{req->obj, st.version, changed,
                     changed ? ctx_.catalog.object(req->obj).sizeBytes : 0,
                     st.modifiedAt}});
}

// ---- client ----

void PollClient::read(ObjectId obj, ReadCallback cb) {
  const SimTime now = ctx_.scheduler.now();
  const LeaseCache::Entry* entry = cache_.find(obj);
  if (entry != nullptr && entry->valid(now)) {
    // Within the validity window: serve locally. This is where Poll can
    // return stale data; the driver's oracle counts it.
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
                                     net::PollRequest{obj, have}});
  }
}

void PollClient::deliver(const net::Message& msg) {
  const auto* reply = std::get_if<net::PollReply>(&msg.payload);
  VL_CHECK_MSG(reply != nullptr, "PollClient: unexpected message type");
  const SimTime now = ctx_.scheduler.now();
  LeaseCache::Entry& entry = cache_.entry(reply->obj);
  entry.setVersion(reply->version);
  entry.hasData = true;
  if (config_->algorithm == Algorithm::kPollAdaptive) {
    // Adaptive TTL: window proportional to the object's age.
    const auto age = static_cast<double>(now - reply->modifiedAt);
    const auto ttl = static_cast<SimDuration>(
        std::clamp(static_cast<double>(config_->adaptiveFactor) * age,
                   static_cast<double>(config_->adaptiveMinTtl),
                   static_cast<double>(config_->adaptiveMaxTtl)));
    entry.validUntil = addSat(now, ttl);
  } else {
    entry.validUntil = addSat(now, config_->objectTimeout);
  }

  ReadResult result;
  result.ok = true;
  result.usedNetwork = true;
  result.fetchedData = reply->carriesData;
  result.version = reply->version;
  pending_.resolveAll(reply->obj, result);
}

}  // namespace vlease::proto
