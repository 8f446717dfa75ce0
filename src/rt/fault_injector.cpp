#include "rt/fault_injector.h"

namespace vlease::rt {

namespace {

using net::FaultEvent;

bool isCrashLane(FaultEvent::Kind kind) {
  return kind == FaultEvent::Kind::kCrash ||
         kind == FaultEvent::Kind::kRecover;
}

}  // namespace

// ---------------------------------------------------------------------
// FaultInjector (parent side)
// ---------------------------------------------------------------------

FaultInjector::FaultInjector(const net::FaultPlan& plan, Callbacks callbacks)
    : callbacks_(std::move(callbacks)) {
  for (const FaultEvent& e : plan.events()) {
    if (isCrashLane(e.kind)) events_.push_back(e);
  }
}

void FaultInjector::advance(SimTime now) {
  while (next_ < events_.size() && events_[next_].at <= now) {
    const FaultEvent& e = events_[next_];
    if (e.kind == FaultEvent::Kind::kCrash) {
      if (callbacks_.kill) callbacks_.kill(e.a, e.at);
    } else {
      if (callbacks_.respawn) callbacks_.respawn(e.a, e.at);
    }
    ++next_;
  }
}

// ---------------------------------------------------------------------
// FaultShim (child side)
// ---------------------------------------------------------------------

FaultShim::FaultShim(const net::FaultPlan& plan, NodeId self,
                     RealTimeDriver* driver, std::uint64_t seed)
    : self_(self), driver_(driver), rng_(seed) {
  for (const FaultEvent& e : plan.events()) {
    if (!isCrashLane(e.kind)) events_.push_back(e);
  }
}

void FaultShim::advance(SimTime rawNow) {
  bool clockDirty = clock_.driftPpm != 0.0;  // drift accrues continuously
  while (next_ < events_.size() && events_[next_].at <= rawNow) {
    const FaultEvent& e = events_[next_];
    ++next_;
    net::applyToFailures(e, failures_);
    if (e.a != self_) continue;
    // The clock lane follows sim::ClockMap exactly: a step sets the
    // total skew, a drift change keeps the skew already accrued.
    if (e.kind == FaultEvent::Kind::kSkew) {
      clock_.setOffset(e.at, e.offset);
      clockDirty = true;
    } else if (e.kind == FaultEvent::Kind::kDrift) {
      clock_.setDrift(e.at, e.ppm);
      clockDirty = true;
    }
  }
  if (clockDirty && driver_ != nullptr) {
    driver_->setClockOffset(clock_.skewAt(rawNow));
  }
}

SendFault FaultShim::onSend(NodeId from, NodeId to, std::size_t frameBytes) {
  SendFault fault;
  if (!failures_.isReachable(from, to)) {
    fault.kind = SendFault::Kind::kDrop;
    return fault;
  }
  const double lossProb = failures_.lossProbability();
  if (lossProb > 0.0 && rng_.nextDouble() < lossProb) {
    // A lost frame usually just vanishes; some of the time it dies
    // mid-flight instead, exercising the receiver's partial-frame
    // rejection and the CRC seal at every byte offset.
    if (rng_.nextDouble() < 0.3 && frameBytes > 0) {
      fault.kind = SendFault::Kind::kTruncate;
      fault.truncateAt =
          static_cast<std::size_t>(rng_.nextBelow(frameBytes));
      fault.halfClose = rng_.nextBool(0.5);
    } else {
      fault.kind = SendFault::Kind::kDrop;
    }
  }
  return fault;
}

bool FaultShim::dropInbound(NodeId from, NodeId to) {
  // Reachability windows apply to frames already in flight when the
  // window opened; probabilistic loss is charged once, at the sender.
  return !failures_.allowsInFlightDelivery(from, to);
}

}  // namespace vlease::rt
