// Simulated wide-area network: delivers messages through the event
// scheduler with a configurable latency model, applies the failure
// model, and meters every message into stats::Metrics.
//
// With the default zero latency, a request scheduled "now" is delivered
// within the same virtual instant (FIFO tick ordering), so request /
// response exchanges complete instantaneously in virtual time -- the
// paper's sequential trace-processing model. Failure experiments set a
// real latency.
//
// Hot-path design (PR 3): sinks are a dense vector indexed by
// raw(NodeId) -- node ids are small and dense by construction
// (proto::Directory numbers servers then clients) -- so routing a
// message is one bounds check + one load instead of a hash lookup, and
// the payload is moved (never copied) into the delivery closure, which
// lives inline in the scheduler's slot arena. A message in flight is
// never cancelled, so send() posts its delivery (Scheduler::post): under
// a fixed latency every delivery is due no earlier than the one before
// it and rides the scheduler's delivery FIFO, not its timer heap. send()
// performs zero heap allocations in steady state
// (tests/alloc_free_test.cpp).
#pragma once

#include <functional>
#include <vector>

#include "net/failure.h"
#include "net/transport.h"
#include "sim/scheduler.h"
#include "stats/metrics.h"
#include "util/rng.h"

namespace vlease::net {

class SimNetwork final : public Transport {
 public:
  /// Latency of a (from, to) link; returning 0 keeps the exchange inside
  /// one virtual instant.
  using LatencyFn = std::function<SimDuration(NodeId, NodeId)>;

  SimNetwork(sim::Scheduler& scheduler, stats::Metrics& metrics,
             std::uint64_t lossSeed = 0x6e657477ull)
      : scheduler_(scheduler), metrics_(metrics), lossRng_(lossSeed) {}

  void attach(NodeId node, MessageSink* sink) override;
  void detach(NodeId node) override;
  void send(Message msg) override;

  void setLatency(SimDuration fixed) {
    latency_ = [fixed](NodeId, NodeId) { return fixed; };
  }
  void setLatencyFn(LatencyFn fn) { latency_ = std::move(fn); }

  FailureModel& failures() { return failures_; }
  const FailureModel& failures() const { return failures_; }

  sim::Scheduler& scheduler() { return scheduler_; }
  stats::Metrics& metrics() { return metrics_; }

  std::int64_t sentCount() const { return sent_; }
  std::int64_t deliveredCount() const { return delivered_; }

 private:
  /// The sink for `node`, or null when detached / never attached.
  MessageSink* sinkFor(NodeId node) const {
    const std::uint32_t i = raw(node);
    return i < sinks_.size() ? sinks_[i] : nullptr;
  }

  sim::Scheduler& scheduler_;
  stats::Metrics& metrics_;
  Rng lossRng_;
  FailureModel failures_;
  LatencyFn latency_;
  std::vector<MessageSink*> sinks_;  // dense, indexed by raw(NodeId)
  std::int64_t sent_ = 0;
  std::int64_t delivered_ = 0;
};

}  // namespace vlease::net
