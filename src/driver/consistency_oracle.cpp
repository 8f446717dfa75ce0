#include "driver/consistency_oracle.h"

#include <algorithm>

#include "util/log.h"

namespace vlease::driver {

namespace {

bool isStrongAlgorithm(proto::Algorithm a) {
  switch (a) {
    case proto::Algorithm::kCallback:
    case proto::Algorithm::kLease:
    case proto::Algorithm::kVolumeLease:
    case proto::Algorithm::kVolumeDelayedInval:
      return true;
    default:
      return false;
  }
}

std::uint64_t pairKey(NodeId client, ObjectId obj) {
  return (static_cast<std::uint64_t>(raw(client)) << 32) | raw(obj);
}

std::uint64_t versionKey(ObjectId obj, Version version) {
  return (raw(obj) << 32) | static_cast<std::uint64_t>(version);
}

SimDuration pollWindowFor(const proto::ProtocolConfig& config) {
  switch (config.algorithm) {
    case proto::Algorithm::kPollEachRead:
      return 0;  // every read validates; only in-flight staleness is legal
    case proto::Algorithm::kPoll:
      return config.objectTimeout;
    case proto::Algorithm::kPollAdaptive:
      return config.adaptiveMaxTtl;  // the adaptive window's clamp
    default:
      return -1;  // not a Poll algorithm; no bounded-staleness contract
  }
}

}  // namespace

const char* violationKindName(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kStaleRead:
      return "stale-read";
    case ViolationKind::kCacheInconsistency:
      return "cache-inconsistency";
    case ViolationKind::kWriteDelayBound:
      return "write-delay-bound";
    case ViolationKind::kBlockedWrite:
      return "blocked-write";
    case ViolationKind::kLostWrite:
      return "lost-write";
  }
  return "?";
}

ConsistencyOracle::ConsistencyOracle(const trace::Catalog& catalog,
                                     const proto::ProtocolConfig& config,
                                     stats::Metrics& metrics, Options options)
    : catalog_(catalog),
      config_(config),
      metrics_(metrics),
      options_(options),
      strong_(isStrongAlgorithm(config.algorithm)),
      pollWindow_(pollWindowFor(config)) {
  ring_.resize(std::max<std::size_t>(options_.ringCapacity, 1));
}

SimDuration ConsistencyOracle::writeWaitBase() const {
  switch (config_.algorithm) {
    case proto::Algorithm::kLease:
    case proto::Algorithm::kBestEffortLease:
      return config_.objectTimeout;
    case proto::Algorithm::kVolumeLease:
    case proto::Algorithm::kVolumeDelayedInval:
      return std::min(config_.objectTimeout, config_.volumeTimeout);
    default:
      // Callback commits at the msgTimeout floor; Poll never waits.
      return 0;
  }
}

SimDuration ConsistencyOracle::recoveryBound() const {
  switch (config_.algorithm) {
    case proto::Algorithm::kLease:
    case proto::Algorithm::kBestEffortLease:
      // Gray & Cheriton: no writes until every possible lease expired
      // (epsilon-extended under the server-conservative rule).
      return addSat(config_.objectTimeout, config_.clockEpsilon);
    case proto::Algorithm::kVolumeLease:
    case proto::Algorithm::kVolumeDelayedInval:
      // recoveryUntil = max volume expiry granted + epsilon
      //              <= crash + t_v + epsilon.
      return addSat(config_.volumeTimeout, config_.clockEpsilon);
    default:
      return 0;  // Callback recovers immediately (and is tainted)
  }
}

bool ConsistencyOracle::callbackExempt(ObjectId obj) const {
  if (config_.algorithm != proto::Algorithm::kCallback) return false;
  return flagAt(taintedObjects_, raw(obj)) ||
         flagAt(taintedServers_, raw(serverOf(obj)));
}

bool ConsistencyOracle::skewExempt(NodeId client, SimTime now) const {
  if (options_.clocks == nullptr) return false;
  const SimDuration skew = options_.clocks->skewOf(client, now);
  const SimDuration mag = skew < 0 ? -skew : skew;
  return mag > options_.skewBound;
}

SimTime ConsistencyOracle::pollServeDeadline(ObjectId obj,
                                             Version served) const {
  const auto it = supersededAt_.find(versionKey(obj, served));
  if (it == supersededAt_.end()) return kNever;
  // A within-budget slow clock legitimately stretches the client's
  // validity window by up to skewBound (Poll has no epsilon rule to
  // absorb it), so the budget is part of the allowance.
  return addSat(it->second,
                addSat(pollWindow_ + options_.validationLatency,
                       options_.skewBound + options_.slack));
}

ConsistencyOracle::WriteTrack& ConsistencyOracle::writeTrack(ObjectId obj) {
  if (raw(obj) >= writes_.size()) writes_.resize(raw(obj) + 1);
  return writes_[raw(obj)];
}

const ConsistencyOracle::ServerFaults* ConsistencyOracle::crashedServer(
    NodeId server) const {
  const std::size_t i = raw(server);
  return i < serverFaults_.size() && serverFaults_[i].everCrashed
             ? &serverFaults_[i]
             : nullptr;
}

void ConsistencyOracle::setFlagAt(std::vector<char>& flags, std::uint64_t i,
                                  bool on) {
  if (i >= flags.size()) {
    if (!on) return;
    flags.resize(i + 1, 0);
  }
  flags[i] = on ? 1 : 0;
}

// ---------------------------------------------------------------------
// hooks
// ---------------------------------------------------------------------

void ConsistencyOracle::onRead(NodeId client, ObjectId obj,
                               const proto::ReadResult& result,
                               Version authoritative, SimTime now) {
  if (!result.ok) {
    RingEntry& entry = nextRingEntry(now, RingEntry::Tag::kReadFailed);
    entry.client = client;
    entry.obj = obj;
    return;
  }
  const bool stale = result.version != authoritative;
  RingEntry& entry = nextRingEntry(now, RingEntry::Tag::kRead);
  entry.flag = stale;
  entry.client = client;
  entry.obj = obj;
  entry.version = result.version;
  entry.serverVersion = authoritative;
  if (!stale) return;
  if (!strong_) {
    // Poll family: staleness inside the validity window is the
    // documented behavior; beyond it the contract is broken.
    // BestEffortLease: unbounded staleness by design, never flagged.
    if (!pollBounded()) return;
    const SimTime deadline = pollServeDeadline(obj, result.version);
    if (now <= deadline) return;
    if (skewExempt(client, now)) {
      record(now, "skew-exempt stale poll read client=" +
                      std::to_string(raw(client)) +
                      " (|skew| exceeds the configured bound)");
      return;
    }
    reportViolation(
        ViolationKind::kStaleRead, now,
        "client " + std::to_string(raw(client)) + " read obj " +
            std::to_string(raw(obj)) + " at version " +
            std::to_string(result.version) + " superseded " +
            formatSimTime(now - deadline) +
            " past the poll-window allowance (server is at " +
            std::to_string(authoritative) + ")");
    return;
  }
  if (callbackExempt(obj)) return;  // expected Callback breakage
  if (skewExempt(client, now)) {
    record(now, "skew-exempt stale read client=" +
                    std::to_string(raw(client)) +
                    " (|skew| exceeds the configured bound)");
    return;
  }
  reportViolation(
      ViolationKind::kStaleRead, now,
      "client " + std::to_string(raw(client)) + " read obj " +
          std::to_string(raw(obj)) + " at version " +
          std::to_string(result.version) + " but the server is at " +
          std::to_string(authoritative));
}

void ConsistencyOracle::onWriteIssued(ObjectId obj, SimTime now) {
  writeTrack(obj).outstanding.push_back(now);
  nextRingEntry(now, RingEntry::Tag::kWriteIssued).obj = obj;
}

void ConsistencyOracle::onWriteComplete(ObjectId obj,
                                        const proto::WriteResult& result,
                                        SimTime now) {
  WriteTrack& track = writeTrack(obj);
  SimTime issuedAt = now;
  if (!track.outstanding.empty()) {
    issuedAt = track.outstanding.front();
    track.outstanding.erase(track.outstanding.begin());
  }
  RingEntry& entry = nextRingEntry(now, RingEntry::Tag::kWriteDone);
  entry.flag = result.blocked;
  entry.obj = obj;
  entry.version = result.newVersion;
  if (pollBounded() && result.newVersion != kNoVersion) {
    // The previous version is superseded NOW; the poll-window clock on
    // serving it starts here.
    supersededAt_.try_emplace(versionKey(obj, result.newVersion - 1), now);
  }

  const NodeId server = serverOf(obj);
  const ServerFaults* faults = crashedServer(server);

  // Writes to one object serialize FIFO; a queued write's wait clock
  // effectively restarts when its predecessor commits, so the window we
  // bound starts at max(issue, previous completion).
  const SimTime windowStart = std::max(issuedAt, track.lastCompletion);
  track.lastCompletion = now;

  if (result.blocked) {
    if (config_.algorithm == proto::Algorithm::kCallback) {
      // The simulator force-completed a write Callback wanted to block
      // on forever: holders may now serve stale data. Expected breakage;
      // taint instead of flagging.
      setFlagAt(taintedObjects_, raw(obj), true);
      record(now, "callback taint obj=" + std::to_string(raw(obj)) +
                      " (blocked write)");
      return;
    }
    // The only legitimate source of a blocked result elsewhere is a
    // crash force-completing in-flight writes at the crash instant.
    if (faults != nullptr && faults->lastCrashAt == now) {
      record(now, "write killed by crash of server " +
                      std::to_string(raw(server)));
      return;
    }
    reportViolation(ViolationKind::kBlockedWrite, now,
                    "write to obj " + std::to_string(raw(obj)) +
                        " reported blocked under " +
                        proto::algorithmName(config_.algorithm) +
                        " with no crash at completion time");
    return;
  }

  const SimDuration grace =
      faults == nullptr
          ? 0
          : std::max<SimDuration>(0, faults->graceEnd - windowStart);
  // clockEpsilon: the server-conservative rule legitimately waits
  // epsilon past nominal expiry before committing.
  const SimDuration allowed =
      addSat(addSat(addSat(writeWaitBase(), config_.clockEpsilon),
                    config_.msgTimeout + options_.slack),
             grace);
  const SimDuration waited = now - windowStart;
  if (waited > allowed) {
    reportViolation(
        ViolationKind::kWriteDelayBound, now,
        "write to obj " + std::to_string(raw(obj)) + " waited " +
            formatSimTime(waited) + " > allowed " + formatSimTime(allowed) +
            " (bound " + formatSimTime(writeWaitBase()) + " + msgTimeout " +
            formatSimTime(config_.msgTimeout) + " + crash grace " +
            formatSimTime(grace) + ")");
  }
}

void ConsistencyOracle::onFault(const net::FaultEvent& event, SimTime now) {
  record(now, "fault: " + formatFaultEvent(event));
  switch (event.kind) {
    case net::FaultEvent::Kind::kCrash:
      setFlagAt(crashedNow_, raw(event.a), true);
      if (catalog_.isServer(event.a)) {
        if (raw(event.a) >= serverFaults_.size()) {
          serverFaults_.resize(raw(event.a) + 1);
        }
        ServerFaults& f = serverFaults_[raw(event.a)];
        f.everCrashed = true;
        f.lastCrashAt = now;
        f.graceEnd = std::max(f.graceEnd, addSat(now, recoveryBound()));
        if (config_.algorithm == proto::Algorithm::kCallback) {
          // Callback loses its callback lists with no recovery rule:
          // every object on this server may now go stale silently.
          setFlagAt(taintedServers_, raw(event.a), true);
        }
        // A crash kills the server's in-flight and queued writes (some
        // complete as blocked at this very instant, some die without a
        // callback). Drop their issue records: pairing a later write's
        // completion with a pre-crash issue time would inflate its
        // apparent wait into a false delay-bound violation.
        for (std::size_t i = 0; i < writes_.size(); ++i) {
          const ObjectId obj = makeObjectId(i);
          WriteTrack& track = writes_[i];
          if (serverOf(obj) != event.a) continue;
          if (track.outstanding.empty()) continue;
          record(now, "write tracking reset obj=" +
                          std::to_string(raw(obj)) + " dropped=" +
                          std::to_string(track.outstanding.size()) +
                          " (server crash)");
          track.outstanding.clear();
        }
      }
      break;
    case net::FaultEvent::Kind::kRecover:
      setFlagAt(crashedNow_, raw(event.a), false);
      break;
    default:
      break;
  }
}

// ---------------------------------------------------------------------
// audits
// ---------------------------------------------------------------------

void ConsistencyOracle::audit(proto::ProtocolInstance& protocol, SimTime now) {
  if (!strong_ && !pollBounded()) return;
  const auto actualOf = [&protocol, this](ObjectId obj) {
    return protocol.serverAt(serverOf(obj)).currentVersion(obj);
  };
  for (std::uint32_t ci = 0; ci < catalog_.numClients(); ++ci) {
    const NodeId clientId = catalog_.clientNode(ci);
    if (flagAt(crashedNow_, raw(clientId))) continue;  // RAM is gone anyway
    servable_.clear();
    protocol.clients[ci]->servable(now, servable_);
    // Only mismatches go on to the exemptions, in object-id order: the
    // ring lines and reports they produce are output.
    std::erase_if(servable_, [&](const proto::ClientNode::Servable& s) {
      return s.version == actualOf(s.obj);
    });
    std::sort(servable_.begin(), servable_.end(),
              [](const proto::ClientNode::Servable& a,
                 const proto::ClientNode::Servable& b) { return a.obj < b.obj; });
    for (const auto& [obj, version] : servable_) {
      if (!strong_ && now <= pollServeDeadline(obj, version)) {
        continue;  // stale but inside the Poll window: contractual
      }
      if (callbackExempt(obj)) continue;
      if (skewExempt(clientId, now)) continue;
      if (!auditFlagged_.insert(pairKey(clientId, obj)).second) continue;
      reportViolation(
          ViolationKind::kCacheInconsistency, now,
          "client " + std::to_string(raw(clientId)) + " would serve obj " +
              std::to_string(raw(obj)) + " at version " +
              std::to_string(version) +
              " under valid leases but the server is at " +
              std::to_string(actualOf(obj)));
    }
  }
}

void ConsistencyOracle::finalAudit(proto::ProtocolInstance& protocol,
                                   SimTime now) {
  audit(protocol, now);
  for (std::size_t i = 0; i < writes_.size(); ++i) {
    const ObjectId obj = makeObjectId(i);
    const WriteTrack& track = writes_[i];
    if (track.outstanding.empty()) continue;
    const NodeId server = serverOf(obj);
    if (crashedServer(server) != nullptr) {
      // Crashes kill in-flight and queued writes; that is modeled
      // behavior, not a bug.
      record(now, "writes lost to crash obj=" + std::to_string(raw(obj)) +
                      " count=" + std::to_string(track.outstanding.size()));
      continue;
    }
    reportViolation(ViolationKind::kLostWrite, now,
                    std::to_string(track.outstanding.size()) +
                        " write(s) to obj " + std::to_string(raw(obj)) +
                        " never completed and server " +
                        std::to_string(raw(server)) + " never crashed");
  }
}

// ---------------------------------------------------------------------
// reporting
// ---------------------------------------------------------------------

ConsistencyOracle::RingEntry& ConsistencyOracle::nextRingEntry(
    SimTime at, RingEntry::Tag tag) {
  RingEntry& entry = ring_[ringNext_];
  if (++ringNext_ == ring_.size()) {
    ringNext_ = 0;
    ringWrapped_ = true;
  }
  entry.at = at;
  entry.tag = tag;
  return entry;
}

void ConsistencyOracle::record(SimTime at, std::string text) {
  nextRingEntry(at, RingEntry::Tag::kText).text = std::move(text);
}

std::string ConsistencyOracle::formatRingEntry(const RingEntry& entry) {
  const std::string obj = std::to_string(raw(entry.obj));
  switch (entry.tag) {
    case RingEntry::Tag::kText:
      return entry.text;
    case RingEntry::Tag::kRead:
      return "read client=" + std::to_string(raw(entry.client)) +
             " obj=" + obj + " v=" + std::to_string(entry.version) +
             (entry.flag ? " STALE (server v=" +
                               std::to_string(entry.serverVersion) + ")"
                         : "");
    case RingEntry::Tag::kReadFailed:
      return "read FAILED client=" + std::to_string(raw(entry.client)) +
             " obj=" + obj;
    case RingEntry::Tag::kWriteIssued:
      return "write issued obj=" + obj;
    case RingEntry::Tag::kWriteDone:
      return "write done obj=" + obj + " v=" +
             std::to_string(entry.version) +
             (entry.flag ? " BLOCKED" : "");
  }
  return "?";
}

std::string ConsistencyOracle::dumpRing() const {
  std::string out;
  const std::size_t n = ringWrapped_ ? ring_.size() : ringNext_;
  const std::size_t start = ringWrapped_ ? ringNext_ : 0;
  for (std::size_t i = 0; i < n; ++i) {
    const RingEntry& entry = ring_[(start + i) % ring_.size()];
    out += "\n    ";
    out += formatSimTime(entry.at);
    out += " ";
    out += formatRingEntry(entry);
  }
  return out;
}

void ConsistencyOracle::reportViolation(ViolationKind kind, SimTime now,
                                        const std::string& detail) {
  ++counts_[static_cast<std::size_t>(kind)];
  ++total_;
  metrics_.onOracleViolation();
  record(now, std::string("VIOLATION ") + violationKindName(kind) + ": " +
                  detail);
  if (dumpsEmitted_ >= options_.maxDumps) return;
  ++dumpsEmitted_;
  VL_LOG_WARN << "consistency violation [" << violationKindName(kind)
              << "] at " << formatSimTime(now) << " under "
              << proto::algorithmName(config_.algorithm) << ": " << detail
              << "\n  last " << (ringWrapped_ ? ring_.size() : ringNext_)
              << " events:" << dumpRing();
}

std::string ConsistencyOracle::summary() const {
  if (total_ == 0) return "ok";
  std::string out;
  for (std::size_t k = 0; k < kNumViolationKinds; ++k) {
    if (counts_[k] == 0) continue;
    if (!out.empty()) out += " ";
    out += violationKindName(static_cast<ViolationKind>(k));
    out += ":";
    out += std::to_string(counts_[k]);
  }
  return out;
}

}  // namespace vlease::driver
