// Run-wide measurement sink.
//
// Everything the paper's figures need is collected here:
//   * message and byte counts, total / per node / per message type
//     (Fig. 5 and the "network bytes" discussion in §5.1);
//   * per-second load series for tracked nodes (Figs. 8 and 9);
//   * time-weighted server consistency-state bytes (Figs. 6 and 7; the
//     paper charges 16 bytes per lease / callback / queued-message
//     record and reports the average over the run);
//   * stale-read accounting (Poll's weak consistency, §5.1);
//   * write-delay accounting (the "ack wait" column of Table 1).
//
// The network meters messages; protocol endpoints account state and
// write delays; the driver accounts reads and staleness.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "util/histogram.h"
#include "util/ids.h"
#include "util/time.h"

namespace vlease::stats {

/// Bytes the paper charges per consistency record (object lease, volume
/// lease, callback entry, or queued pending message).
inline constexpr std::int64_t kBytesPerRecord = 16;

/// Server CPU model (paper §5.1 reports a CPU-load metric alongside
/// messages and bytes): a fixed cost per message handled plus a
/// per-kilobyte processing cost. Units are arbitrary "cost units"; only
/// relative comparisons across algorithms are meaningful.
inline constexpr double kCpuPerMessage = 1.0;
inline constexpr double kCpuPerKilobyte = 0.05;

/// Per-node message counters.
struct NodeCounters {
  std::int64_t sent = 0;
  std::int64_t received = 0;
  std::int64_t bytesSent = 0;
  std::int64_t bytesReceived = 0;
  /// Accumulated message-processing cost (see kCpuPerMessage).
  double cpuUnits = 0;

  std::int64_t messages() const { return sent + received; }
};

class Metrics {
 public:
  static constexpr std::size_t kMaxMsgTypes = 64;

  // ---- message accounting (called by the network) ----

  /// Record a message leaving `from` toward `to`. `delivered` is false
  /// when the network drops it (partition / loss); the send still costs
  /// the sender, and the paper's counts include messages to unreachable
  /// clients, so dropped messages are counted at the sender but not the
  /// receiver.
  void onMessage(NodeId from, NodeId to, std::size_t typeIndex,
                 std::int64_t bytes, SimTime now, bool delivered);

  /// Enable the per-second load series for a node (servers, typically).
  void trackLoad(NodeId node) {
    const std::uint32_t i = raw(node);
    if (i >= trackLoad_.size()) trackLoad_.resize(i + 1, 0);
    trackLoad_[i] = 1;
  }

  // ---- state accounting (called by protocol endpoints) ----

  /// Add byte-microseconds of consistency state at a server.
  void addStateIntegral(NodeId server, double byteMicros) {
    const std::uint32_t i = raw(server);
    if (i >= stateIntegral_.size()) stateIntegral_.resize(i + 1, 0.0);
    stateIntegral_[i] += byteMicros;
  }

  // ---- read / write accounting ----

  void onRead(bool requiredNetwork, bool stale) {
    ++reads_;
    if (!requiredNetwork) ++cacheLocalReads_;
    if (stale) ++staleReads_;
  }
  void onReadFailed() { ++failedReads_; }

  /// `delay` is how long the write waited for acks / lease expiry;
  /// `blocked` marks a Callback write stuck behind an unreachable client
  /// (the paper's "infinite" ack wait).
  void onWrite(SimDuration delay, bool blocked);

  /// Consistency-oracle verdicts (chaos runs): each call records one
  /// detected violation of the algorithm's consistency guarantee.
  void onOracleViolation() { ++oracleViolations_; }

  /// Set once the run finishes; state averages divide by this.
  void setHorizon(SimTime end) { horizon_ = end; }

  // ---- accessors ----

  std::int64_t totalMessages() const { return totalMessages_; }
  std::int64_t totalBytes() const { return totalBytes_; }
  double totalCpuUnits() const { return totalCpu_; }
  std::int64_t droppedMessages() const { return droppedMessages_; }
  std::int64_t messagesOfType(std::size_t typeIndex) const {
    return byType_.at(typeIndex);
  }
  const NodeCounters& node(NodeId id) const;

  std::int64_t reads() const { return reads_; }
  std::int64_t cacheLocalReads() const { return cacheLocalReads_; }
  std::int64_t staleReads() const { return staleReads_; }
  std::int64_t failedReads() const { return failedReads_; }
  double staleFraction() const {
    return reads_ ? static_cast<double>(staleReads_) / reads_ : 0.0;
  }

  std::int64_t writes() const { return writes_; }
  std::int64_t delayedWrites() const { return delayedWrites_; }
  std::int64_t blockedWrites() const { return blockedWrites_; }
  const Summary& writeDelay() const { return writeDelay_; }

  std::int64_t oracleViolations() const { return oracleViolations_; }

  SimTime horizon() const { return horizon_; }

  /// Average consistency-state bytes at `server` over the run.
  double avgStateBytes(NodeId server) const;

  /// Per-second load series of a tracked node.
  const SparseCounter& loadSeries(NodeId node) const;
  bool hasLoadSeries(NodeId node) const {
    const std::uint32_t i = raw(node);
    return i < hasLoad_.size() && hasLoad_[i] != 0;
  }

  /// Nodes ordered by total message traffic, busiest first.
  std::vector<NodeId> nodesByTraffic() const;

 private:
  NodeCounters& nodeMut(NodeId id);
  SparseCounter& loadMut(NodeId id);
  bool isTracked(NodeId id) const {
    const std::uint32_t i = raw(id);
    return i < trackLoad_.size() && trackLoad_[i] != 0;
  }

  std::int64_t totalMessages_ = 0;
  std::int64_t totalBytes_ = 0;
  double totalCpu_ = 0;
  std::int64_t droppedMessages_ = 0;
  std::array<std::int64_t, kMaxMsgTypes> byType_{};
  std::vector<NodeCounters> perNode_;

  /// Load tracking, all flat by raw node id: whether a node is tracked,
  /// whether its series ever received a sample, and the series proper.
  std::vector<std::uint8_t> trackLoad_;
  std::vector<std::uint8_t> hasLoad_;
  std::vector<SparseCounter> load_;

  std::vector<double> stateIntegral_;  // by raw node id

  std::int64_t reads_ = 0;
  std::int64_t cacheLocalReads_ = 0;
  std::int64_t staleReads_ = 0;
  std::int64_t failedReads_ = 0;

  std::int64_t writes_ = 0;
  std::int64_t delayedWrites_ = 0;
  std::int64_t blockedWrites_ = 0;
  Summary writeDelay_;

  std::int64_t oracleViolations_ = 0;

  SimTime horizon_ = 0;
};

/// Time-weighted state accounting for one record (see DESIGN.md §4).
/// A record contributes kBytesPerRecord bytes from its last accounting
/// point until it expires or is touched again. accrueRecord() is called
/// whenever the record is created, renewed, or removed, and once more in
/// the protocol's end-of-run sweep.
///
/// Usage: keep `lastAccounted` alongside each record; call
///   accrueRecord(metrics, server, lastAccounted, expiry, now [, bytes])
/// *before* changing the record's expiry.
void accrueRecord(Metrics& metrics, NodeId server, SimTime& lastAccounted,
                  SimTime expiry, SimTime now,
                  std::int64_t bytes = kBytesPerRecord);

}  // namespace vlease::stats
