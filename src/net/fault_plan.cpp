#include "net/fault_plan.h"

#include <algorithm>

#include "net/failure.h"
#include "util/check.h"
#include "util/time.h"

namespace vlease::net {

const char* faultKindName(FaultEvent::Kind kind) {
  switch (kind) {
    case FaultEvent::Kind::kCrash:
      return "crash";
    case FaultEvent::Kind::kRecover:
      return "recover";
    case FaultEvent::Kind::kPartition:
      return "partition";
    case FaultEvent::Kind::kHeal:
      return "heal";
    case FaultEvent::Kind::kIsolate:
      return "isolate";
    case FaultEvent::Kind::kDeisolate:
      return "deisolate";
    case FaultEvent::Kind::kSetLoss:
      return "set-loss";
    case FaultEvent::Kind::kSkew:
      return "skew";
    case FaultEvent::Kind::kDrift:
      return "drift";
  }
  return "?";
}

std::string formatFaultEvent(const FaultEvent& event) {
  std::string s = formatSimTime(event.at);
  s += " ";
  s += faultKindName(event.kind);
  switch (event.kind) {
    case FaultEvent::Kind::kPartition:
    case FaultEvent::Kind::kHeal:
      s += " link " + std::to_string(raw(event.a)) + "<->" +
           std::to_string(raw(event.b));
      break;
    case FaultEvent::Kind::kSetLoss:
      s += " p=" + std::to_string(event.lossProb);
      break;
    case FaultEvent::Kind::kSkew:
      s += " node " + std::to_string(raw(event.a)) +
           " offset=" + formatSimTime(event.offset);
      break;
    case FaultEvent::Kind::kDrift:
      s += " node " + std::to_string(raw(event.a)) +
           " ppm=" + std::to_string(event.ppm);
      break;
    default:
      s += " node " + std::to_string(raw(event.a));
      break;
  }
  return s;
}

FaultPlan& FaultPlan::add(FaultEvent event) {
  VL_CHECK(event.at >= 0);
  if (!events_.empty() && event.at < events_.back().at) sorted_ = false;
  events_.push_back(event);
  return *this;
}

FaultPlan& FaultPlan::crashAt(SimTime at, NodeId node) {
  return add({at, FaultEvent::Kind::kCrash, node, node, 0.0});
}
FaultPlan& FaultPlan::recoverAt(SimTime at, NodeId node) {
  return add({at, FaultEvent::Kind::kRecover, node, node, 0.0});
}
FaultPlan& FaultPlan::partitionAt(SimTime at, NodeId a, NodeId b) {
  return add({at, FaultEvent::Kind::kPartition, a, b, 0.0});
}
FaultPlan& FaultPlan::healAt(SimTime at, NodeId a, NodeId b) {
  return add({at, FaultEvent::Kind::kHeal, a, b, 0.0});
}
FaultPlan& FaultPlan::isolateAt(SimTime at, NodeId node) {
  return add({at, FaultEvent::Kind::kIsolate, node, node, 0.0});
}
FaultPlan& FaultPlan::deisolateAt(SimTime at, NodeId node) {
  return add({at, FaultEvent::Kind::kDeisolate, node, node, 0.0});
}
FaultPlan& FaultPlan::setLossAt(SimTime at, double p) {
  VL_CHECK(p >= 0.0 && p <= 1.0);
  return add({at, FaultEvent::Kind::kSetLoss, makeNodeId(0), makeNodeId(0), p});
}
FaultPlan& FaultPlan::skewAt(SimTime at, NodeId node, SimDuration offset) {
  FaultEvent event{at, FaultEvent::Kind::kSkew, node, node, 0.0};
  event.offset = offset;
  return add(event);
}
FaultPlan& FaultPlan::driftAt(SimTime at, NodeId node, double ppm) {
  FaultEvent event{at, FaultEvent::Kind::kDrift, node, node, 0.0};
  event.ppm = ppm;
  return add(event);
}

FaultPlan& FaultPlan::lossWindow(SimTime from, SimTime to, double p) {
  VL_CHECK(from <= to);
  setLossAt(from, p);
  return setLossAt(to, 0.0);
}
FaultPlan& FaultPlan::crashWindow(SimTime from, SimTime to, NodeId node) {
  VL_CHECK(from <= to);
  crashAt(from, node);
  return recoverAt(to, node);
}
FaultPlan& FaultPlan::isolationWindow(SimTime from, SimTime to, NodeId node) {
  VL_CHECK(from <= to);
  isolateAt(from, node);
  return deisolateAt(to, node);
}
FaultPlan& FaultPlan::partitionWindow(SimTime from, SimTime to, NodeId a,
                                      NodeId b) {
  VL_CHECK(from <= to);
  partitionAt(from, a, b);
  return healAt(to, a, b);
}

const std::vector<FaultEvent>& FaultPlan::events() const {
  if (!sorted_) {
    std::stable_sort(events_.begin(), events_.end(),
                     [](const FaultEvent& x, const FaultEvent& y) {
                       return x.at < y.at;
                     });
    sorted_ = true;
  }
  return events_;
}

std::vector<std::pair<SimTime, SimTime>> FaultPlan::crashWindows(
    NodeId node) const {
  std::vector<std::pair<SimTime, SimTime>> windows;
  for (const FaultEvent& e : events()) {
    if (e.a != node) continue;
    if (e.kind == FaultEvent::Kind::kCrash) {
      windows.emplace_back(e.at, kNever);
    } else if (e.kind == FaultEvent::Kind::kRecover && !windows.empty() &&
               windows.back().second == kNever) {
      windows.back().second = e.at;
    }
  }
  return windows;
}

namespace {

/// Window start uniform in [0, horizon), length exponential with the
/// given mean (scaled by options.windowScale, floored at
/// options.minWindow), clipped so the window closes by `horizon`. The
/// scale multiplies the value of one fixed exponential draw, so the rng
/// stream is independent of the scale.
std::pair<SimTime, SimTime> randomWindow(Rng& rng, SimTime horizon,
                                         double meanLenSeconds,
                                         const FaultPlan::RandomOptions& o) {
  const SimTime from = static_cast<SimTime>(
      rng.nextBelow(static_cast<std::uint64_t>(std::max<SimTime>(horizon, 1))));
  SimDuration len =
      secondsToSim(rng.nextExponential(meanLenSeconds) * o.windowScale);
  if (len < o.minWindow) len = o.minWindow;
  const SimTime to = std::min<SimTime>(addSat(from, len), horizon);
  return {from, to};
}

}  // namespace

std::optional<double> FaultPlan::intensityByName(const std::string& name) {
  if (name == "low") return 0.2;
  if (name == "medium") return 0.5;
  if (name == "high") return 0.9;
  return std::nullopt;
}

FaultPlan FaultPlan::random(Rng& rng, const RandomOptions& options,
                            const std::vector<NodeId>& clients,
                            const std::vector<NodeId>& servers) {
  VL_CHECK(options.horizon > 0);
  VL_CHECK(options.intensity >= 0.0 && options.intensity <= 1.0);
  FaultPlan plan;
  const double intensity = options.intensity;
  const SimTime horizon = options.horizon;

  // Expected window counts scale linearly with intensity; the Poisson
  // draws keep plans varied across seeds at the same intensity.
  const auto drawCount = [&rng](double mean) {
    return static_cast<int>(rng.nextPoisson(mean));
  };

  // Client isolation windows: the bread-and-butter fault of the paper
  // (unreachable-but-alive clients). Roughly one window per client at
  // full intensity, tens-of-seconds long.
  if (!clients.empty()) {
    const int n = drawCount(intensity * static_cast<double>(clients.size()));
    for (int i = 0; i < n; ++i) {
      const NodeId c = clients[rng.nextBelow(clients.size())];
      auto [from, to] = randomWindow(rng, horizon, /*meanLenSeconds=*/45.0, options);
      plan.isolationWindow(from, to, c);
    }
  }

  // Client crash+reboot: cache lost on recovery.
  if (options.clientCrashes && !clients.empty()) {
    const int n =
        drawCount(intensity * 0.5 * static_cast<double>(clients.size()));
    for (int i = 0; i < n; ++i) {
      const NodeId c = clients[rng.nextBelow(clients.size())];
      auto [from, to] = randomWindow(rng, horizon, /*meanLenSeconds=*/30.0, options);
      plan.crashWindow(from, to, c);
    }
  }

  // Server crash+reboot: lease state lost, epoch bumped, recovery wait.
  if (options.serverCrashes && !servers.empty()) {
    const int n =
        drawCount(intensity * 0.75 * static_cast<double>(servers.size()));
    for (int i = 0; i < n; ++i) {
      const NodeId s = servers[rng.nextBelow(servers.size())];
      auto [from, to] = randomWindow(rng, horizon, /*meanLenSeconds=*/20.0, options);
      plan.crashWindow(from, to, s);
    }
  }

  // Point-to-point partitions between a client and a server.
  if (!clients.empty() && !servers.empty()) {
    const int n = drawCount(intensity * 2.0);
    for (int i = 0; i < n; ++i) {
      const NodeId c = clients[rng.nextBelow(clients.size())];
      const NodeId s = servers[rng.nextBelow(servers.size())];
      auto [from, to] = randomWindow(rng, horizon, /*meanLenSeconds=*/60.0, options);
      plan.partitionWindow(from, to, c, s);
    }
  }

  // Global loss windows. Windows may overlap; the latest kSetLoss event
  // to fire wins, and every window closes by `horizon`, so the plan
  // always ends at p = 0.
  {
    const int n = drawCount(intensity * 2.0);
    for (int i = 0; i < n; ++i) {
      const double p = options.maxLossProbability * rng.nextDouble();
      auto [from, to] = randomWindow(rng, horizon, /*meanLenSeconds=*/90.0, options);
      plan.lossWindow(from, to, p);
    }
  }

  // Per-client clock skew. Steps set a node's *total* skew to a value in
  // [-B/2, +B/2]; drift rates (at most one per client, from t = 0) are
  // bounded so accrued drift over any span of the horizon stays within
  // B/2 -- together |skew| <= maxClockSkew for every node at every
  // instant, the bound the protocol's epsilon margin must cover. Servers
  // keep reference time: lease timestamps originate at the server, so
  // only a client's skew relative to its server is protocol-visible.
  // Gated on the budget so zero-skew plans consume an rng stream
  // identical to pre-skew builds.
  if (options.maxClockSkew > 0 && !clients.empty()) {
    const double half = static_cast<double>(options.maxClockSkew) / 2.0;
    const int n = drawCount(intensity * static_cast<double>(clients.size()));
    for (int i = 0; i < n; ++i) {
      const NodeId c = clients[rng.nextBelow(clients.size())];
      const SimTime at = static_cast<SimTime>(rng.nextBelow(
          static_cast<std::uint64_t>(std::max<SimTime>(horizon, 1))));
      const SimDuration off =
          static_cast<SimDuration>((2.0 * rng.nextDouble() - 1.0) * half);
      plan.skewAt(at, c, off);
    }
    const double maxPpm = half * 1'000'000.0 / static_cast<double>(horizon);
    for (const NodeId c : clients) {
      if (rng.nextDouble() < intensity * 0.5) {
        const double ppm = (2.0 * rng.nextDouble() - 1.0) * maxPpm;
        plan.driftAt(0, c, ppm);
      }
    }
  }

  return plan;
}

void applyToFailures(const FaultEvent& event, FailureModel& failures) {
  using Kind = FaultEvent::Kind;
  switch (event.kind) {
    case Kind::kCrash:
      failures.crash(event.a);
      break;
    case Kind::kRecover:
      failures.recover(event.a);
      break;
    case Kind::kPartition:
      failures.partition(event.a, event.b);
      break;
    case Kind::kHeal:
      failures.heal(event.a, event.b);
      break;
    case Kind::kIsolate:
      failures.isolate(event.a);
      break;
    case Kind::kDeisolate:
      failures.deisolate(event.a);
      break;
    case Kind::kSetLoss:
      failures.setLossProbability(event.lossProb);
      break;
    case Kind::kSkew:
    case Kind::kDrift:
      break;
  }
}

}  // namespace vlease::net
