// Volume-lease client (paper §3, Fig. 4).
//
// A read is served from cache only when BOTH the object lease and the
// enclosing volume lease are valid; otherwise the client renews whatever
// is missing (two independent requests, as in the paper's cost model --
// or one combined request under the piggyback ablation) and completes
// the read when both grants are in.
//
// The client also implements its half of the reconnection exchange:
// MUST_RENEW_ALL -> send every cached object of the volume with its
// version -> apply the server's invalidate/renew batch -> ack.
//
// State layout (see DESIGN.md "Dense protocol state" and "Workload
// engine"): the cache is the paged-by-object-id proto::LeaseCache; per-volume
// lease state lives in lazily grown vectors indexed by raw volume id;
// the outstanding-request dedup table and the "reads waiting" index are
// small flat vectors sized by what is actually in flight (a handful of
// entries), not by the catalog. A freshly constructed client allocates
// nothing -- at a million clients, cold clients are (nearly) free, and
// retire() returns a departed client's storage.
#pragma once

#include <vector>

#include "proto/client_cache.h"
#include "proto/protocol.h"

namespace vlease::core {

class VolumeClient final : public proto::ClientNode {
 public:
  /// `config` is captured by reference and must outlive the client (the
  /// factory parks the effective config on ProtocolInstance; direct
  /// constructions keep it in an enclosing scope).
  VolumeClient(proto::ProtocolContext& ctx, NodeId id,
               const proto::ProtocolConfig& config)
      : ClientNode(ctx, id),
        config_(&config),
        cache_(config.clientCacheCapacity),
        pending_(ctx.scheduler) {}

  void read(ObjectId obj, proto::ReadCallback cb) override;
  void dropCache() override;
  void retire() override;
  void deliver(const net::Message& msg) override;
  void servable(SimTime now, std::vector<Servable>& out) const override;

  /// The object cache (read-only; footprint reporting).
  const proto::LeaseCache& cache() const { return cache_; }

  // ---- test hooks ----
  bool hasValidVolumeLease(VolumeId vol) const;
  bool hasValidObjectLease(ObjectId obj) const;
  Epoch knownEpoch(VolumeId vol) const;

 private:
  struct VolLease {
    SimTime expire = kSimTimeMin;
    Epoch epoch = 0;  // 0 = never held one (server skips epoch check)
  };
  /// One outstanding object-lease renewal (dedup: at most one per
  /// object; a request older than msgTimeout is considered lost and may
  /// be reissued).
  struct ObjReq {
    std::uint32_t obj;
    SimTime sent;
  };
  /// One object with reads waiting, tagged with its volume so a volume
  /// grant can pump it. Append-only order; pumps iterate newest-first
  /// (the order the old head-inserted intrusive list produced, which
  /// the determinism goldens pin).
  struct Waiting {
    std::uint32_t vol;
    std::uint32_t obj;
  };

  /// Client-conservative expiry clock: lease-validity comparisons happen
  /// against this client's own (possibly skewed) reading of `globalNow`
  /// advanced by epsilon, so a lease is treated as dead epsilon before
  /// its nominal expiry on the local clock. See ProtocolConfig::
  /// clockEpsilon for the safety argument.
  SimTime leaseGuard(SimTime globalNow) const {
    return addSat(localTime(globalNow), config_->clockEpsilon);
  }

  bool volumeValid(VolumeId vol, SimTime now) const;

  // Catalogs can in principle grow after the protocol is built (the
  // harness tests do); the dense per-volume tables grow lazily to match
  // -- and a cold client that never reads allocates nothing at all.
  void ensureVolSlot(std::size_t i) {
    if (i < volumes_.size()) return;
    volumes_.resize(i + 1);
    volReqOutstanding_.resize(i + 1, kSimTimeMin);
  }

  ObjReq* findObjReq(std::uint32_t o) {
    for (ObjReq& r : objReq_) {
      if (r.obj == o) return &r;
    }
    return nullptr;
  }
  /// False if no request for `o` was outstanding -- the caller must then
  /// DROP the grant it is handling: an unmatched grant is a reply whose
  /// request context was discarded by dropCache()/retire(), and
  /// installing it would resurrect lease state the client deliberately
  /// forgot (a departed client's in-flight grant landing after retire()
  /// is exactly the race that turns into an uninvalidatable stale read).
  bool eraseObjReq(std::uint32_t o) {
    for (ObjReq& r : objReq_) {
      if (r.obj == o) {
        r = objReq_.back();  // lookup table: order is not observable
        objReq_.pop_back();
        return true;
      }
    }
    return false;
  }

  /// "Reads waiting" index; an object waits at most once (in its own
  /// volume's set). Erase preserves relative order: pumps walk the
  /// vector backwards and their newest-first order is observable.
  void pendingInsert(VolumeId vol, ObjectId obj);
  void pendingErase(VolumeId vol, ObjectId obj);

  /// Re-evaluate the reads waiting on `obj`: resolve the ones whose two
  /// leases are now valid, (re)issue requests for whatever is missing.
  void pump(ObjectId obj);
  void pumpVolume(VolumeId vol);
  void ensureVolume(VolumeId vol);
  void ensureObject(ObjectId obj);

  void handleVolGrant(const net::Message& msg);
  void handleObjGrant(const net::Message& msg);
  void handleInvalidate(const net::Message& msg);
  void handleMustRenewAll(const net::Message& msg);
  void handleBatch(const net::Message& msg);

  const proto::ProtocolConfig* config_;
  proto::LeaseCache cache_;
  proto::PendingReads pending_;
  std::vector<VolLease> volumes_;  // by raw(VolumeId), lazily grown

  /// Request dedup: at most one outstanding renewal per volume (dense
  /// by raw volume id; kSimTimeMin = none outstanding) / per object
  /// (flat ObjReq vector: only what is actually in flight).
  std::vector<SimTime> volReqOutstanding_;  // by raw(VolumeId)
  std::vector<ObjReq> objReq_;

  std::vector<Waiting> waiting_;       // oldest first; iterated backwards
  std::vector<ObjectId> pumpScratch_;  // recycled pumpVolume snapshot
};

}  // namespace vlease::core
