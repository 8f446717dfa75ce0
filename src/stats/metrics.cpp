#include "stats/metrics.h"

#include <algorithm>

#include "util/check.h"

namespace vlease::stats {

void Metrics::onMessage(NodeId from, NodeId to, std::size_t typeIndex,
                        std::int64_t bytes, SimTime now, bool delivered) {
  VL_DCHECK(typeIndex < kMaxMsgTypes);
  ++totalMessages_;
  totalBytes_ += bytes;
  ++byType_[typeIndex];

  const double cpu =
      kCpuPerMessage + kCpuPerKilobyte * static_cast<double>(bytes) / 1024.0;

  NodeCounters& src = nodeMut(from);
  ++src.sent;
  src.bytesSent += bytes;
  src.cpuUnits += cpu;
  totalCpu_ += cpu;
  if (isTracked(from)) loadMut(from).add(secondBucket(now));

  if (delivered) {
    NodeCounters& dst = nodeMut(to);
    ++dst.received;
    dst.bytesReceived += bytes;
    dst.cpuUnits += cpu;
    totalCpu_ += cpu;
    if (isTracked(to)) loadMut(to).add(secondBucket(now));
  } else {
    ++droppedMessages_;
  }
}

SparseCounter& Metrics::loadMut(NodeId id) {
  const std::uint32_t i = raw(id);
  if (i >= load_.size()) {
    load_.resize(i + 1);
    hasLoad_.resize(i + 1, 0);
  }
  hasLoad_[i] = 1;
  return load_[i];
}

void Metrics::onWrite(SimDuration delay, bool blocked) {
  ++writes_;
  if (blocked) {
    ++blockedWrites_;
    return;  // delay is unbounded; excluded from the delay summary
  }
  if (delay > 0) ++delayedWrites_;
  writeDelay_.add(toSeconds(delay));
}

NodeCounters& Metrics::nodeMut(NodeId id) {
  std::size_t idx = raw(id);
  if (idx >= perNode_.size()) perNode_.resize(idx + 1);
  return perNode_[idx];
}

const NodeCounters& Metrics::node(NodeId id) const {
  static const NodeCounters kEmpty;
  std::size_t idx = raw(id);
  return idx < perNode_.size() ? perNode_[idx] : kEmpty;
}

double Metrics::avgStateBytes(NodeId server) const {
  if (horizon_ <= 0) return 0.0;
  const std::uint32_t i = raw(server);
  if (i >= stateIntegral_.size()) return 0.0;
  return stateIntegral_[i] / static_cast<double>(horizon_);
}

const SparseCounter& Metrics::loadSeries(NodeId node) const {
  static const SparseCounter kEmpty;
  const std::uint32_t i = raw(node);
  return hasLoadSeries(node) ? load_[i] : kEmpty;
}

std::vector<NodeId> Metrics::nodesByTraffic() const {
  std::vector<NodeId> nodes;
  nodes.reserve(perNode_.size());
  for (std::size_t i = 0; i < perNode_.size(); ++i) {
    if (perNode_[i].messages() > 0)
      nodes.push_back(makeNodeId(static_cast<std::uint32_t>(i)));
  }
  std::stable_sort(nodes.begin(), nodes.end(), [this](NodeId a, NodeId b) {
    return node(a).messages() > node(b).messages();
  });
  return nodes;
}

void accrueRecord(Metrics& metrics, NodeId server, SimTime& lastAccounted,
                  SimTime expiry, SimTime now, std::int64_t bytes) {
  // A record's expiry can predate its last accounting point (a renewal
  // may SHORTEN expiry, e.g. a volume re-grant under clock skew): the
  // live window [lastAccounted, min(expiry, now)) is then empty, not
  // negative. Clamp instead of accruing a negative integral.
  const SimTime liveUntil = std::max(std::min(expiry, now), lastAccounted);
  if (liveUntil > lastAccounted) {
    metrics.addStateIntegral(
        server, static_cast<double>(bytes) *
                    static_cast<double>(liveUntil - lastAccounted));
  }
  lastAccounted = std::max(lastAccounted, now);
}

}  // namespace vlease::stats
