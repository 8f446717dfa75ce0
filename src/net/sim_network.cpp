#include "net/sim_network.h"

#include <utility>

#include "util/check.h"
#include "util/log.h"

namespace vlease::net {

void SimNetwork::attach(NodeId node, MessageSink* sink) {
  VL_CHECK(sink != nullptr);
  const std::uint32_t i = raw(node);
  if (i >= sinks_.size()) sinks_.resize(i + 1, nullptr);
  sinks_[i] = sink;
}

void SimNetwork::detach(NodeId node) {
  const std::uint32_t i = raw(node);
  if (i < sinks_.size()) sinks_[i] = nullptr;
}

void SimNetwork::send(Message msg) {
  ++sent_;
  const std::size_t type = payloadTypeIndex(msg.payload);
  const std::int64_t bytes = wireBytes(msg.payload);
  // allowsDelivery first: it draws from lossRng_, and the draw sequence
  // is part of the bit-for-bit reproducibility contract (a message to a
  // detached node must still consume its loss roll, as it always has).
  const bool deliverable =
      failures_.allowsDelivery(msg.from, msg.to, lossRng_) &&
      sinkFor(msg.to) != nullptr;
  metrics_.onMessage(msg.from, msg.to, type, bytes, scheduler_.now(),
                     deliverable);
  VL_LOG_DEBUG << "[" << formatSimTime(scheduler_.now()) << "] "
               << (deliverable ? "send " : "DROP ") << payloadTypeName(type)
               << " " << raw(msg.from) << "->" << raw(msg.to);
  if (!deliverable) return;
  const SimDuration delay = latency_ ? latency_(msg.from, msg.to) : 0;
  scheduler_.post(delay, [this, m = std::move(msg)]() {
    // Re-check the failure model at delivery time, not only at send: a
    // node isolated or partitioned away while the message was in flight
    // loses it too (only possible with nonzero latency). Sender crashes
    // are deliberately exempt -- the packet already left the host.
    if (!failures_.allowsInFlightDelivery(m.from, m.to)) return;
    MessageSink* sink = sinkFor(m.to);
    if (sink == nullptr) return;
    ++delivered_;
    sink->deliver(m);
  });
}

}  // namespace vlease::net
