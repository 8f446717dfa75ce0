// Declarative fault timelines: a FaultPlan is a time-sorted list of
// fault events (crashes, recoveries, partitions, isolations, loss
// windows) that a driver schedules against the sim clock and applies to
// a FailureModel. The plan itself is passive data -- building one has no
// side effects, so plans can be constructed, inspected, serialized into
// logs, and replayed bit-for-bit.
//
// driver::Simulation installs a plan at construction (SimOptions::
// faultPlan): every event becomes a cancellable scheduler timer that
// mutates the network's FailureModel (and, for crash/recover of
// protocol endpoints, loses the endpoint's volatile state -- see
// Simulation for those semantics). FaultPlan::random() derives an
// entire chaos schedule from one (seed, intensity) pair, which is what
// makes a chaos run reproducible from two numbers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/ids.h"
#include "util/rng.h"
#include "util/time.h"

namespace vlease::net {

class FailureModel;

struct FaultEvent {
  enum class Kind {
    kCrash,      // node `a` goes down (state lost; messages vanish)
    kRecover,    // node `a` reboots (server: epoch recovery; client: cold cache)
    kPartition,  // cut the (a, b) link
    kHeal,       // restore the (a, b) link
    kIsolate,    // node `a` unreachable-but-alive
    kDeisolate,  // node `a` reachable again
    kSetLoss,    // global per-message loss probability := lossProb
    kSkew,       // node `a`'s clock steps to total skew `offset`
    kDrift,      // node `a`'s clock drifts at `ppm` from this instant
  };

  SimTime at = 0;
  Kind kind = Kind::kCrash;
  NodeId a = makeNodeId(0);
  NodeId b = makeNodeId(0);  // partition/heal only
  double lossProb = 0.0;     // kSetLoss only
  SimDuration offset = 0;    // kSkew only: local minus global
  double ppm = 0.0;          // kDrift only: microseconds per second
};

const char* faultKindName(FaultEvent::Kind kind);

/// One-line human rendering ("12.5s crash node 3") for logs and dumps.
std::string formatFaultEvent(const FaultEvent& event);

class FaultPlan {
 public:
  // ---- builders (chainable; times need not be added in order) ----
  FaultPlan& crashAt(SimTime at, NodeId node);
  FaultPlan& recoverAt(SimTime at, NodeId node);
  FaultPlan& partitionAt(SimTime at, NodeId a, NodeId b);
  FaultPlan& healAt(SimTime at, NodeId a, NodeId b);
  FaultPlan& isolateAt(SimTime at, NodeId node);
  FaultPlan& deisolateAt(SimTime at, NodeId node);
  FaultPlan& setLossAt(SimTime at, double p);
  /// Step node's clock to a total skew of `offset` (local minus global).
  FaultPlan& skewAt(SimTime at, NodeId node, SimDuration offset);
  /// Start node's clock drifting at `ppm` microseconds per second.
  FaultPlan& driftAt(SimTime at, NodeId node, double ppm);
  /// Convenience: raise loss to `p` over [from, to), then back to 0.
  FaultPlan& lossWindow(SimTime from, SimTime to, double p);
  /// Convenience: node down over [from, to).
  FaultPlan& crashWindow(SimTime from, SimTime to, NodeId node);
  /// Convenience: node isolated over [from, to).
  FaultPlan& isolationWindow(SimTime from, SimTime to, NodeId node);
  /// Convenience: (a, b) link cut over [from, to).
  FaultPlan& partitionWindow(SimTime from, SimTime to, NodeId a, NodeId b);

  /// Events sorted by time; ties keep insertion order (stable), so
  /// "crash then recover at t" applies in the order it was declared.
  const std::vector<FaultEvent>& events() const;

  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }

  /// The [crash, recover) windows of `node`, in time order. A crash with
  /// no matching recover yields a window closing at kNever. Used by the
  /// real-run parity checker to excuse losses that a crash explains.
  std::vector<std::pair<SimTime, SimTime>> crashWindows(NodeId node) const;

  /// Seeded chaos-schedule generator: everything is derived from `rng`,
  /// so the same (seed, intensity) pair reproduces the same plan.
  ///
  /// `intensity` in [0, 1] scales how many fault windows of each kind
  /// are generated over `horizon`:
  ///   * client isolation windows (transient partitions, the paper's
  ///     "unreachable client"),
  ///   * client crash+reboot windows (cache lost on recovery),
  ///   * server crash+reboot windows (lease state lost, epoch bump),
  ///   * client<->server link partitions,
  ///   * global message-loss windows.
  /// Windows may overlap; all of them open and close inside [0, horizon]
  /// so a drained run ends with every fault healed.
  struct RandomOptions {
    double intensity = 0.5;     // 0 = no faults, 1 = heavy chaos
    SimTime horizon = 0;        // latest instant any fault may remain active
    bool serverCrashes = true;  // allow server crash/reboot windows
    bool clientCrashes = true;  // allow client crash/reboot windows
    double maxLossProbability = 0.2;
    /// Clock-skew budget B: when nonzero, clients get skew steps in
    /// [-B/2, +B/2] and drift rates bounded so accrued drift over the
    /// whole horizon stays within B/2 -- every node's |skew| <= B at all
    /// times, which is the bound the epsilon margin must cover. Zero
    /// (the default) generates no skew events and leaves the rng stream
    /// identical to pre-skew plans.
    SimDuration maxClockSkew = 0;
    /// Scale factor on fault-window lengths. Simulated chaos runs use
    /// minutes-long horizons; real-process runs (tools/vlease_rt) last
    /// seconds, so they shrink the windows to fit. 1.0 (the default)
    /// reproduces historical plans byte-for-byte: the scale multiplies
    /// the mean of the SAME exponential draw, so the rng stream is
    /// untouched.
    double windowScale = 1.0;
    /// Floor on a fault window's length after scaling.
    SimDuration minWindow = sec(1);
  };

  /// The tools' named intensities: low 0.2, medium 0.5, high 0.9;
  /// nullopt for any other name.
  static std::optional<double> intensityByName(const std::string& name);

  static FaultPlan random(Rng& rng, const RandomOptions& options,
                          const std::vector<NodeId>& clients,
                          const std::vector<NodeId>& servers);

 private:
  FaultPlan& add(FaultEvent event);

  mutable std::vector<FaultEvent> events_;
  mutable bool sorted_ = true;
};

/// Apply the network half of `event` to `failures`: crash, recover,
/// partition, heal, isolate, deisolate and set-loss. Skew and drift act
/// on clocks, not on the failure model, and are left to the caller. The
/// simulator and the real-process fault shim share this one mapping, so
/// both read a plan the same way (a cut link, say, is healed by its
/// first heal event, however many partitions of it overlap).
void applyToFailures(const FaultEvent& event, FailureModel& failures);

}  // namespace vlease::net
