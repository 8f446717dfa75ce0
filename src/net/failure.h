// Failure injection: node crashes, bidirectional link partitions, and
// probabilistic message loss. The simulated network consults this on
// every send, so the node-fault predicates are flat per-node flag
// arrays (indexed by raw node id) behind a single everything-healthy
// fast path, not hash sets probed five times per message. Cut links are
// few (a partition names a handful of pairs), so they live in a sorted
// vector searched by binary search.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/ids.h"
#include "util/rng.h"

namespace vlease::net {

class FailureModel {
 public:
  /// A crashed node neither sends nor receives; messages to it vanish.
  void crash(NodeId node) { setFlag(node, kCrashed, crashedCount_); }
  void recover(NodeId node) { clearFlag(node, kCrashed, crashedCount_); }
  bool isCrashed(NodeId node) const { return hasFlag(node, kCrashed); }

  /// Cut / heal the (bidirectional) link between two nodes.
  void partition(NodeId a, NodeId b) {
    const std::uint64_t k = key(a, b);
    const auto it = std::lower_bound(cutLinks_.begin(), cutLinks_.end(), k);
    if (it == cutLinks_.end() || *it != k) cutLinks_.insert(it, k);
  }
  void heal(NodeId a, NodeId b) {
    const std::uint64_t k = key(a, b);
    const auto it = std::lower_bound(cutLinks_.begin(), cutLinks_.end(), k);
    if (it != cutLinks_.end() && *it == k) cutLinks_.erase(it);
  }
  bool isPartitioned(NodeId a, NodeId b) const {
    return !cutLinks_.empty() &&
           std::binary_search(cutLinks_.begin(), cutLinks_.end(), key(a, b));
  }

  /// Isolate a node from everyone (convenience wrapper used in tests:
  /// models an unreachable-but-alive client).
  void isolate(NodeId node) { setFlag(node, kIsolated, isolatedCount_); }
  void deisolate(NodeId node) { clearFlag(node, kIsolated, isolatedCount_); }
  bool isIsolated(NodeId node) const { return hasFlag(node, kIsolated); }

  /// Independent per-message drop probability (0 = reliable).
  void setLossProbability(double p) { lossProb_ = p; }
  double lossProbability() const { return lossProb_; }

  /// Would a message from `a` reach `b` (ignoring random loss)?
  bool isReachable(NodeId a, NodeId b) const {
    if (allHealthy()) return true;
    return !isCrashed(a) && !isCrashed(b) && !isIsolated(a) &&
           !isIsolated(b) && !isPartitioned(a, b);
  }

  /// Full verdict for one message, including a loss coin-flip.
  bool allowsDelivery(NodeId a, NodeId b, Rng& rng) const {
    if (!isReachable(a, b)) return false;
    return lossProb_ <= 0.0 || !rng.nextBool(lossProb_);
  }

  /// Verdict for a message already in flight from `a`, re-checked at
  /// delivery time. A sender crash does not destroy packets already on
  /// the wire, but a partition or an isolation of either endpoint cuts
  /// the link they are crossing, and a crashed destination cannot
  /// receive.
  bool allowsInFlightDelivery(NodeId a, NodeId b) const {
    if (allHealthy()) return true;
    return !isCrashed(b) && !isIsolated(a) && !isIsolated(b) &&
           !isPartitioned(a, b);
  }

  /// Number of distinct faults currently active (crashed nodes +
  /// isolated nodes + cut links + a nonzero loss probability).
  /// Introspection for FaultPlan teardown and tests.
  std::size_t activeFaultCount() const {
    return crashedCount_ + isolatedCount_ + cutLinks_.size() +
           (lossProb_ > 0.0 ? 1 : 0);
  }

  /// Heal everything: no crashes, no isolations, no partitions, no loss.
  void clear() {
    std::fill(flags_.begin(), flags_.end(), std::uint8_t{0});
    crashedCount_ = 0;
    isolatedCount_ = 0;
    cutLinks_.clear();
    lossProb_ = 0.0;
  }

 private:
  static constexpr std::uint8_t kCrashed = 1u << 0;
  static constexpr std::uint8_t kIsolated = 1u << 1;

  static std::uint64_t key(NodeId a, NodeId b) {
    std::uint32_t lo = raw(a), hi = raw(b);
    if (lo > hi) std::swap(lo, hi);
    return (static_cast<std::uint64_t>(hi) << 32) | lo;
  }

  bool allHealthy() const {
    return crashedCount_ == 0 && isolatedCount_ == 0 && cutLinks_.empty();
  }

  bool hasFlag(NodeId node, std::uint8_t bit) const {
    const std::uint32_t i = raw(node);
    return i < flags_.size() && (flags_[i] & bit) != 0;
  }
  void setFlag(NodeId node, std::uint8_t bit, std::size_t& count) {
    const std::uint32_t i = raw(node);
    if (i >= flags_.size()) flags_.resize(i + 1, 0);
    if ((flags_[i] & bit) == 0) {
      flags_[i] |= bit;
      ++count;
    }
  }
  void clearFlag(NodeId node, std::uint8_t bit, std::size_t& count) {
    const std::uint32_t i = raw(node);
    if (i < flags_.size() && (flags_[i] & bit) != 0) {
      flags_[i] &= static_cast<std::uint8_t>(~bit);
      --count;
    }
  }

  std::vector<std::uint8_t> flags_;  // by raw node id
  std::size_t crashedCount_ = 0;
  std::size_t isolatedCount_ = 0;
  std::vector<std::uint64_t> cutLinks_;  // sorted, unique link keys
  double lossProb_ = 0.0;
};

}  // namespace vlease::net
