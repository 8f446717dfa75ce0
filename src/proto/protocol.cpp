#include "proto/protocol.h"

#include <utility>

namespace vlease::proto {

const char* algorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kPollEachRead:
      return "PollEachRead";
    case Algorithm::kPoll:
      return "Poll";
    case Algorithm::kPollAdaptive:
      return "PollAdaptive";
    case Algorithm::kCallback:
      return "Callback";
    case Algorithm::kLease:
      return "Lease";
    case Algorithm::kBestEffortLease:
      return "BestEffortLease";
    case Algorithm::kVolumeLease:
      return "VolumeLease";
    case Algorithm::kVolumeDelayedInval:
      return "VolumeDelayedInval";
  }
  return "?";
}

std::optional<Algorithm> algorithmByName(const std::string& name) {
  static const std::pair<const char*, Algorithm> kNames[] = {
      {"poll-each-read", Algorithm::kPollEachRead},
      {"per", Algorithm::kPollEachRead},
      {"poll", Algorithm::kPoll},
      {"poll-adaptive", Algorithm::kPollAdaptive},
      {"adaptive", Algorithm::kPollAdaptive},
      {"callback", Algorithm::kCallback},
      {"lease", Algorithm::kLease},
      {"best-effort", Algorithm::kBestEffortLease},
      {"besteffort", Algorithm::kBestEffortLease},
      {"volume", Algorithm::kVolumeLease},
      {"delay", Algorithm::kVolumeDelayedInval},
      {"delayed", Algorithm::kVolumeDelayedInval},
      {"volume-delay", Algorithm::kVolumeDelayedInval},
  };
  for (const auto& [known, algorithm] : kNames) {
    if (name == known) return algorithm;
  }
  return std::nullopt;
}

const ServerNode::LeaseRecord& ServerNode::renewHolder(Holders& holders,
                                                       std::uint32_t ci,
                                                       SimDuration term) {
  const SimTime now = ctx_.scheduler.now();
  auto [rec, inserted] = holders.tryEmplace(ci);
  if (!inserted) {
    stats::accrueRecord(ctx_.metrics, id_, rec->lastAccounted, rec->expire,
                        now);
  }
  rec->expire = addSat(now, term);
  rec->lastAccounted = now;
  // The volume server's sweep relies on grant order == expiry order
  // within a table: every grant is now + the table's one fixed term, and
  // now only moves forward, so this record cannot expire before the
  // current newest.
  VL_DCHECK(holders.newest().value->expire <= rec->expire);
  holders.touch(ci);
  return *rec;
}

void ServerNode::removeHolder(Holders& holders, std::uint32_t ci) {
  LeaseRecord* rec = holders.find(ci);
  if (rec == nullptr) return;
  stats::accrueRecord(ctx_.metrics, id_, rec->lastAccounted, rec->expire,
                      ctx_.scheduler.now());
  holders.erase(ci);
}

void ServerNode::accrueHolders(Holders& holders, SimTime now) {
  holders.forEach([&](std::uint32_t, LeaseRecord& r) {
    stats::accrueRecord(ctx_.metrics, id_, r.lastAccounted, r.expire, now);
  });
}

}  // namespace vlease::proto
