// Real-process execution of a net::FaultPlan.
//
// The simulator applies FaultPlan events to a FailureModel; the rt layer
// executes the SAME timeline against live processes and sockets. The
// interpretation splits across the process boundary:
//
//   FaultPlan event      real-process action
//   -------------------  ------------------------------------------------
//   kCrash node          parent SIGKILLs the node's worker process
//   kRecover node        parent re-execs the worker (--cold-restart for
//                        servers: resume from logged stable storage and
//                        refuse writes for one lease term + epsilon)
//   kPartition a<->b     both endpoints' FaultShims drop frames between
//                        a and b (outbound suppressed, in-flight frames
//                        dropped after decode)
//   kIsolate node        every FaultShim drops frames to/from the node
//   kSetLoss p           each outbound frame independently lost with
//                        probability p: dropped outright, or truncated
//                        mid-write at a random byte offset (half the
//                        time with a half-close so the peer reads the
//                        prefix then clean EOF)
//   kSkew / kDrift node  the node's RealTimeDriver clock is offset /
//                        drifts through the shim's own sim::LocalClock
//
// FaultInjector is the PARENT side: it walks the crash/recover lane and
// invokes kill/respawn callbacks (SIGKILL + re-exec in vlease_rt;
// injectable lambdas in tests). FaultShim is the CHILD side: installed
// as the TcpTransport's FaultHook and stepped from the driver's step
// hook, it applies partition/isolate/loss windows at the socket -- held
// in a net::FailureModel fed by the simulator's own event mapping,
// net::applyToFailures() -- and skew/drift at the clock. Both advance on
// the RAW shared timeline (unskewed microseconds since the common t0),
// so every process applies each window at the same wall-clock instant
// regardless of its own injected skew.
//
// Determinism caveat: the loss draws are per-(shim, frame) from a seeded
// stream, so a run's injected faults are reproducible given the same
// frame sequence; the frame sequence itself is real-scheduling-
// dependent, which is exactly the nondeterminism the parity harness is
// designed to tolerate (it compares oracle verdicts, not traces).
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "net/failure.h"
#include "net/fault_plan.h"
#include "rt/real_time.h"
#include "rt/tcp_transport.h"
#include "sim/local_clock.h"
#include "util/rng.h"

namespace vlease::rt {

/// Parent-side crash/recover executor (see header comment).
class FaultInjector {
 public:
  struct Callbacks {
    /// SIGKILL the node's process. `at` is the plan time of the event.
    std::function<void(NodeId node, SimTime at)> kill;
    /// Re-exec the node's process (cold restart).
    std::function<void(NodeId node, SimTime at)> respawn;
  };

  FaultInjector(const net::FaultPlan& plan, Callbacks callbacks);

  /// Fire every crash/recover event with at <= now (raw timeline).
  void advance(SimTime now);
  bool done() const { return next_ >= events_.size(); }
  std::size_t fired() const { return next_; }

 private:
  std::vector<net::FaultEvent> events_;  // crash/recover lane, time-sorted
  std::size_t next_ = 0;
  Callbacks callbacks_;
};

/// Child-side socket/clock shim (see header comment). Install with
/// transport.setFaultHook(&shim) and driver.setStepHook(...advance...).
class FaultShim final : public FaultHook {
 public:
  /// `self` is the node this process hosts; `driver` receives skew /
  /// drift (may be null in tests). The seed decorrelates loss draws
  /// across processes (callers pass seed ^ raw(self)).
  FaultShim(const net::FaultPlan& plan, NodeId self, RealTimeDriver* driver,
            std::uint64_t seed);

  /// Apply every window event with at <= rawNow. Call from the driver's
  /// step hook.
  void advance(SimTime rawNow);

  // FaultHook
  SendFault onSend(NodeId from, NodeId to, std::size_t frameBytes) override;
  bool dropInbound(NodeId from, NodeId to) override;

  /// The window state applied so far (tests).
  const net::FailureModel& failures() const { return failures_; }

 private:
  std::vector<net::FaultEvent> events_;  // window lane, time-sorted
  std::size_t next_ = 0;
  NodeId self_;
  RealTimeDriver* driver_;
  Rng rng_;

  net::FailureModel failures_;  // isolation, partition and loss windows

  sim::LocalClock clock_;  // self's skew and drift, on the raw timeline
};

}  // namespace vlease::rt
