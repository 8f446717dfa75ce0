// Client-driven baselines (paper §2.1-2.2).
//
// Poll(t): before using a cached object the client checks whether it
// validated it within the last t seconds; if so it reads locally
// (possibly serving stale data -- the weak-consistency cost the paper
// quantifies), otherwise it sends an if-modified-since PollRequest.
// Poll Each Read is Poll(0): every read validates.
//
// PollAdaptive is Gwertzman-Seltzer's adaptive TTL (paper §2.2): the
// validity window scales with the object's age at validation time
// (adaptiveFactor x age, clamped), so stable objects are polled rarely
// and recently changed ones often.
//
// The server keeps no lease state, and writes never wait or send
// messages. Its per-object versions are a vector indexed by catalog
// localIndex, the volume server's dense layout (DESIGN.md §4).
#pragma once

#include <vector>

#include "proto/client_cache.h"
#include "proto/protocol.h"

namespace vlease::proto {

class PollServer final : public ServerNode {
 public:
  PollServer(ProtocolContext& ctx, NodeId id)
      : ServerNode(ctx, id), objects_(ctx.catalog.objectsOnServer(id)) {}

  void write(ObjectId obj, WriteCallback cb) override;
  Version currentVersion(ObjectId obj) const override;
  void deliver(const net::Message& msg) override;

 private:
  struct ObjState {
    Version version = 1;
    SimTime modifiedAt = 0;  // last-write time (HTTP Last-Modified)
  };
  ObjState& state(ObjectId obj) { return objects_[nativeSlot(obj)]; }

  std::vector<ObjState> objects_;  // by catalog localIndex
};

class PollClient final : public ClientNode {
 public:
  /// `config` is captured by reference and must outlive the client (the
  /// factory's ProtocolInstance::sharedConfig).
  PollClient(ProtocolContext& ctx, NodeId id, const ProtocolConfig& config)
      : ClientNode(ctx, id),
        config_(&config),
        cache_(config.clientCacheCapacity),
        pending_(ctx.scheduler) {}

  void read(ObjectId obj, ReadCallback cb) override;
  void dropCache() override { cache_.clear(); }
  void deliver(const net::Message& msg) override;
  void servable(SimTime now, std::vector<Servable>& out) const override {
    cache_.forEach([&](ObjectId obj, const LeaseCache::Entry& entry) {
      if (entry.valid(now)) out.push_back({obj, entry.version()});
    });
  }

 private:
  const ProtocolConfig* config_;
  LeaseCache cache_;
  PendingReads pending_;
};

}  // namespace vlease::proto
