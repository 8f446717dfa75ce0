#include "sim/scheduler.h"

#include <algorithm>
#include <bit>

namespace vlease::sim {

Scheduler::Scheduler() : ref_(new detail::SchedulerRef{this, 1}) {}

Scheduler::~Scheduler() {
  // Pending (never-fired) closures may hold a TimerHandle into this very
  // scheduler; destroy them while ref_ is still live. The parity scan
  // covers both lanes -- wheel-resident slots are armed (odd) like heap
  // ones.
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
  // Hole-based sift-up, the mirror of heapPopTop's sift-down.
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!nodeBefore(node, h[parent])) break;
    h[i] = h[parent];
    i = parent;
  }
  h[i] = node;
}

void Scheduler::heapPopTop() {
  const std::size_t n = heap_.size() - 1;
  Node* h = heap_.data();
  const Node moved = h[n];  // displaced leaf to re-insert
  heap_.pop_back();
  if (n == 0) return;
  // Hole-based sift-down: slide the min child up into the hole at each
  // level instead of swapping, halving the stores per level.
  std::size_t i = 0;
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
    i = best;
  }
  h[i] = moved;
}

void Scheduler::promoteDueBucket() {
  // Drain the earliest-due bucket into the heap in one pass. Promotion
  // happens strictly before anything at/after the bucket's boundary
  // fires (peekArmed's sync condition), and the boundary never trails a
  // resident deadline by more than one bucket granularity, so every
  // promoted node re-enters the global (time, seq) order in time to
  // fire exactly at its key -- bucket layout never shows through.
  const std::uint32_t bucket = wheelNextBucket_;
  std::uint32_t index = bucketHead_[bucket];
  while (index != kNoSlot) {
    const std::uint32_t n = next_[index];
    prev_[index] = kNoSlot;  // restore the not-on-wheel invariant
    heapPush(Node{wheelAt_[index], wheelSeq_[index], index});
    --wheelCount_;
    index = n;
  }
  wheelOcc_[bucket >> kWheelSlotBits] &=
      ~(1ull << (bucket & (kWheelSlots - 1)));
  recomputeWheelNext();
}

void Scheduler::recomputeWheelNext() {
  // Scan the occupancy bitmaps for the new earliest-due bucket. Bounded
  // by the number of occupied buckets (<= 1280, usually a handful);
  // runs only when the minimum bucket empties, never per event.
  if (wheelCount_ == 0) {
    wheelNextDue_ = kNever;
    wheelNextBucket_ = 0;
    return;
  }
  SimTime best = kNever;
  std::uint32_t bestBucket = 0;
  for (std::uint32_t level = 0; level < kWheelLevels; ++level) {
    std::uint64_t occ = wheelOcc_[level];
    while (occ != 0) {
      const std::uint32_t bucket =
          level * kWheelSlots +
          static_cast<std::uint32_t>(std::countr_zero(occ));
      occ &= occ - 1;
      if (bucketDue_[bucket] < best) {
        best = bucketDue_[bucket];
        bestBucket = bucket;
      }
    }
  }
  wheelNextDue_ = best;
  wheelNextBucket_ = bestBucket;
}

std::int64_t Scheduler::run() {
  std::int64_t n = 0;
  while (peekArmed(kNever)) {
    fireTop();
    ++n;
  }
  return n;
}

std::int64_t Scheduler::runUntil(SimTime until) {
  std::int64_t n = 0;
  // promoteLimit = until: buckets due past the horizon stay parked on
  // the wheel (a trace replay calls runUntil per injected event -- far
  // lease deadlines must not be shoveled into the heap every time).
  while (peekArmed(until) && topNode()->at <= until) {
    fireTop();
    ++n;
  }
  if (now_ < until) now_ = until;
  return n;
}

bool Scheduler::step() {
  if (!peekArmed(kNever)) return false;
  fireTop();
  return true;
}

}  // namespace vlease::sim
