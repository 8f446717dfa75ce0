// Per-node clock views over the single global virtual clock.
//
// The scheduler keeps exactly one virtual clock (determinism: every
// event fires at a global instant, in FIFO order). Clock skew is a
// *read-side* transform: a node with a LocalClock reads the global
// instant `g` as `g + offset + drift`, where drift accrues linearly at
// `driftPpm` parts-per-million from the anchor instant. Nothing about
// event ordering changes -- only what a node *believes* the time is
// when it compares `now` against a lease expiry.
//
// Skew semantics (matching net::FaultPlan's skew/drift events):
//   * setOffset(node, g, d): the node's total skew at instant g becomes
//     exactly `d` (a step); any configured drift keeps accruing from g.
//   * setDrift(node, g, ppm): the drift rate becomes `ppm`, preserving
//     the total skew already accrued at g (no step).
//
// All arithmetic is integer-exact except the drift term, which rounds a
// double product the same way on every run -- replays are bit-identical.
#pragma once

#include <cstdint>
#include <vector>

#include "util/ids.h"
#include "util/time.h"

namespace vlease::sim {

struct LocalClock {
  SimDuration offset = 0;  // skew at the anchor instant
  double driftPpm = 0.0;   // rate error, microseconds per second
  SimTime anchor = 0;      // global instant offset/drift were last set

  /// Total skew (local minus global) at global instant `g`.
  SimDuration skewAt(SimTime g) const {
    if (driftPpm == 0.0) return offset;
    const double accrued =
        static_cast<double>(g - anchor) * driftPpm / 1'000'000.0;
    return offset + static_cast<SimDuration>(accrued);
  }

  /// The node's reading of global instant `g`.
  SimTime localNow(SimTime g) const { return addSat(g, skewAt(g)); }

  /// Step the total skew to exactly `d` at instant `g`; drift keeps
  /// accruing from `g`.
  void setOffset(SimTime g, SimDuration d) {
    offset = d;
    anchor = g;
  }

  /// Change the drift rate at instant `g`, preserving accrued skew.
  void setDrift(SimTime g, double ppm) {
    offset = skewAt(g);
    anchor = g;
    driftPpm = ppm;
  }
};

/// Dense per-node clock table. Nodes without an entry (or never touched)
/// read the global clock exactly -- the zero-skew default costs nothing
/// and perturbs nothing.
class ClockMap {
 public:
  /// Local reading of global instant `g` for `node`.
  SimTime localNow(NodeId node, SimTime g) const {
    const LocalClock* c = find(node);
    return c ? c->localNow(g) : g;
  }

  /// Total skew (local minus global) of `node` at global instant `g`.
  SimDuration skewOf(NodeId node, SimTime g) const {
    const LocalClock* c = find(node);
    return c ? c->skewAt(g) : 0;
  }

  /// Step the node's total skew to exactly `offset` at instant `g`.
  void setOffset(NodeId node, SimTime g, SimDuration offset) {
    clockFor(node).setOffset(g, offset);
  }

  /// Change the drift rate at instant `g`, preserving accrued skew.
  void setDrift(NodeId node, SimTime g, double ppm) {
    clockFor(node).setDrift(g, ppm);
  }

  bool empty() const { return clocks_.empty(); }

 private:
  const LocalClock* find(NodeId node) const {
    const std::uint32_t i = raw(node);
    return i < clocks_.size() ? &clocks_[i] : nullptr;
  }
  LocalClock& clockFor(NodeId node) {
    const std::uint32_t i = raw(node);
    if (i >= clocks_.size()) clocks_.resize(i + 1);
    return clocks_[i];
  }

  std::vector<LocalClock> clocks_;  // dense, indexed by raw(NodeId)
};

}  // namespace vlease::sim
