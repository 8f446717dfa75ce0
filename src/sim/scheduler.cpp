#include "sim/scheduler.h"

#include <algorithm>

namespace vlease::sim {

Scheduler::Scheduler() : ref_(new detail::SchedulerRef{this, 1}) {}

Scheduler::~Scheduler() {
  // Pending (never-fired) closures may hold a TimerHandle into this very
  // scheduler; destroy them while ref_ is still live.
  for (std::uint32_t i = 0; i < numSlots_; ++i) {
    if (gens_[i] & 1u) slot(i).action.reset();
  }
  ref_->scheduler = nullptr;
  if (--ref_->refs == 0) delete ref_;
}

void Scheduler::heapPush(Node node) {
  std::size_t i = heap_.size();
  heap_.push_back(node);
  Node* h = heap_.data();
  // Hole-based sift-up: slide each later parent down into the hole
  // instead of swapping, and record every moved node's new position.
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!nodeBefore(node, h[parent])) break;
    h[i] = h[parent];
    pos_[h[i].slot] = static_cast<std::uint32_t>(i);
    i = parent;
  }
  h[i] = node;
  pos_[node.slot] = static_cast<std::uint32_t>(i);
}

void Scheduler::heapRemove(std::size_t i) {
  const std::size_t n = heap_.size() - 1;
  Node* h = heap_.data();
  const Node moved = h[n];  // displaced leaf to re-insert at the hole
  heap_.pop_back();
  if (i == n) return;
  // The leaf may belong above the hole (a hole in another subtree) or
  // below it; at most one of the two loops moves anything.
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!nodeBefore(moved, h[parent])) break;
    h[i] = h[parent];
    pos_[h[i].slot] = static_cast<std::uint32_t>(i);
    i = parent;
  }
  while (true) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < last; ++c) {
      if (nodeBefore(h[c], h[best])) best = c;
    }
    if (!nodeBefore(h[best], moved)) break;
    h[i] = h[best];
    pos_[h[i].slot] = static_cast<std::uint32_t>(i);
    i = best;
  }
  h[i] = moved;
  pos_[moved.slot] = static_cast<std::uint32_t>(i);
}

void Scheduler::fifoGrow() {
  std::vector<Node> grown(fifo_.empty() ? 64 : 2 * fifo_.size());
  for (std::uint32_t i = 0; i < fifoCount_; ++i) {
    grown[i] = fifo_[(fifoHead_ + i) & fifoMask()];
  }
  fifo_.swap(grown);
  fifoHead_ = 0;
}

std::int64_t Scheduler::run() {
  std::int64_t n = 0;
  while (step()) ++n;
  return n;
}

std::int64_t Scheduler::runUntil(SimTime until) {
  std::int64_t n = 0;
  while (true) {
    const bool fromFifo = fifoFirst();
    if (!fromFifo && heap_.empty()) break;
    if ((fromFifo ? fifoFront() : heap_.front()).at > until) break;
    fireNext(fromFifo);
    ++n;
  }
  if (now_ < until) now_ = until;
  return n;
}

bool Scheduler::step() {
  const bool fromFifo = fifoFirst();
  if (!fromFifo && heap_.empty()) return false;
  fireNext(fromFifo);
  return true;
}

}  // namespace vlease::sim
