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

void FaultShim::applyClock(SimTime rawNow) {
  if (driver_ == nullptr) return;
  const double drifted = driftPpm_ *
                         static_cast<double>(rawNow - driftAnchor_) / 1e6;
  driver_->setClockOffset(skewOffset_ +
                          static_cast<SimDuration>(drifted));
}

void FaultShim::advance(SimTime rawNow) {
  bool clockDirty = driftPpm_ != 0.0;  // drift accrues continuously
  while (next_ < events_.size() && events_[next_].at <= rawNow) {
    const FaultEvent& e = events_[next_];
    ++next_;
    net::applyToFailures(e, failures_);
    switch (e.kind) {
      case FaultEvent::Kind::kSkew:
        if (e.a == self_) {
          // A step sets the TOTAL skew; fold accrued drift into the
          // anchor so the drift lane keeps accruing from here.
          skewOffset_ = e.offset;
          driftAnchor_ = e.at;
          clockDirty = true;
        }
        break;
      case FaultEvent::Kind::kDrift:
        if (e.a == self_) {
          driftPpm_ = e.ppm;
          driftAnchor_ = e.at;
          clockDirty = true;
        }
        break;
      default:
        break;  // applied to failures_ above (crash/recover never reach
                // the shim: the constructor filters the parent lane out)
    }
  }
  if (clockDirty) applyClock(rawNow);
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
