// Discrete-event simulation kernel: a virtual clock plus two queues of
// (time, sequence) keys over one slab-allocated event arena -- an
// implicit 4-ary min-heap for cancellable timers and a delivery FIFO for
// handle-less posts -- merged into one total order at firing time.
//
// Ordering guarantees:
//   * events fire in nondecreasing virtual time;
//   * events scheduled for the same instant fire in FIFO order (the
//     sequence number breaks ties). This makes the zero-latency network
//     deterministic: a request scheduled "now" is handled before anything
//     scheduled later within the same instant, so a whole request/response
//     exchange completes inside one virtual instant -- exactly the paper's
//     sequential trace-processing model.
//
// Hot-path design (PR 3): scheduleAt performs zero heap allocations in
// steady state. Event closures are constructed directly inside
// fixed-size arena slots (util::InplaceFunction -- a closure that doesn't
// fit fails to compile) and invoked in place; slots live in fixed 512-slot
// chunks with stable addresses, recycled through an intrusive free list.
// The heap orders compact 16-byte nodes, so sift operations move 16
// bytes instead of a closure.
//
// Cancellation is eager. Most timers the protocols arm -- request and
// flush timeouts, lease-bounded write commits, retry pacing -- are
// give-up bounds that the reply cancels first. A per-slot position array
// tracks where each armed slot's node sits in the heap, so cancel()
// removes the node in O(log n) and recycles the slot at once: a
// cancelled far-future timer leaves nothing behind, and the heap and
// the delivery FIFO together hold exactly the armed events. A
// TimerHandle remembers (slot, generation); firing or cancelling bumps
// the slot's generation, so stale handles go inert -- no atomics, no
// per-event control block.
//
// Delivery FIFO: post() is scheduleAfter without a handle, for events
// nothing ever cancels -- SimNetwork's in-flight messages. A post due no
// earlier than the FIFO's tail is appended to a power-of-two ring of the
// same 16-byte nodes; sequence numbers only grow, so the ring stays
// sorted by (time, seq) and a fixed-latency delivery costs O(1) instead
// of two sifts through a heap full of far-future give-up timers. Any
// other post (a shorter per-link latency, a lowered setLatency) falls
// back to the heap. Firing takes whichever of the FIFO head and the heap
// top comes first, so the global firing order is exactly the one a
// single heap would give. The ring only grows and never has to drain to
// reclaim space, so steady-state posting does not allocate.
//
// Handle lifetime: handles may outlive the scheduler. They share one
// non-atomically refcounted block per scheduler that is nulled on
// destruction, so a late cancel()/pending() is a safe no-op. (The
// scheduler and its handles are single-threaded by design; parallel
// sweeps give every run its own scheduler.)
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/inplace_function.h"
#include "util/time.h"

namespace vlease::sim {

class Scheduler;
struct SchedulerTestPeer;

/// Inline capacity for event closures. Sized by the largest hot-path
/// closure in the tree: SimNetwork's delivery closure captures `this`
/// plus a whole net::Message (80 bytes). A closure that exceeds this --
/// or needs more than 8-byte alignment -- fails to compile at its call
/// site (see util::InplaceFunction).
inline constexpr std::size_t kEventClosureBytes = 88;

namespace detail {
/// One per scheduler, shared by all its handles. `refs` is a plain
/// integer: handles never cross threads, so no atomics on the hot path.
struct SchedulerRef {
  Scheduler* scheduler;
  std::uint32_t refs;
};

using EventAction = util::InplaceFunction<void(), kEventClosureBytes, 8>;

/// 16-byte heap node; the closure lives in the arena, keyed by `slot`.
struct EventNode {
  SimTime at;
  std::uint32_t seq;
  std::uint32_t slot;
};

/// Arena slot: just the closure. Slot metadata (generation counters,
/// free-list links, heap positions) lives in dense side arrays so the
/// cancel hot path walks 4-byte-stride memory instead of pulling a
/// whole closure-sized line per probe.
struct EventSlot {
  EventAction action;
};

}  // namespace detail

/// Cancellation token for a scheduled event. Default-constructed handles
/// are inert; cancel() after the event fired -- or after the scheduler
/// itself was destroyed -- is a harmless no-op. Copyable; copies refer
/// to the same event.
class TimerHandle {
 public:
  TimerHandle() = default;
  TimerHandle(const TimerHandle& other)
      : ref_(other.ref_), slot_(other.slot_), gen_(other.gen_) {
    if (ref_) ++ref_->refs;
  }
  TimerHandle(TimerHandle&& other) noexcept
      : ref_(other.ref_), slot_(other.slot_), gen_(other.gen_) {
    other.ref_ = nullptr;
  }
  TimerHandle& operator=(const TimerHandle& other) {
    if (this != &other) {
      release();
      ref_ = other.ref_;
      slot_ = other.slot_;
      gen_ = other.gen_;
      if (ref_) ++ref_->refs;
    }
    return *this;
  }
  TimerHandle& operator=(TimerHandle&& other) noexcept {
    if (this != &other) {
      release();
      ref_ = other.ref_;
      slot_ = other.slot_;
      gen_ = other.gen_;
      other.ref_ = nullptr;
    }
    return *this;
  }
  ~TimerHandle() { release(); }

  void cancel();
  bool pending() const;

 private:
  friend class Scheduler;
  friend struct SchedulerTestPeer;
  TimerHandle(detail::SchedulerRef* ref, std::uint32_t slot,
              std::uint32_t gen)
      : ref_(ref), slot_(slot), gen_(gen) {
    ++ref_->refs;
  }

  void release() {
    if (ref_ && --ref_->refs == 0) delete ref_;
    ref_ = nullptr;
  }

  detail::SchedulerRef* ref_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

class Scheduler {
 public:
  using Action = detail::EventAction;

  Scheduler();
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  SimTime now() const { return now_; }

  /// Schedule a callable at absolute virtual time `at` (>= now). The
  /// event fires at exactly `at`, ordered against every other event by
  /// the global (time, sequence) total order. The closure is constructed
  /// directly in its arena slot.
  template <typename F>
  TimerHandle scheduleAt(SimTime at, F&& action) {
    VL_CHECK_MSG(at >= now_, "cannot schedule in the past");
    const std::uint32_t index = allocSlot();
    this->slot(index).action.emplace(std::forward<F>(action));
    const std::uint32_t gen = ++gens_[index];  // even -> odd: armed
    heapPush(Node{at, nextSeq_++, index});
    return TimerHandle(ref_, index, gen);
  }

  /// Schedule a callable after `delay` (>= 0).
  template <typename F>
  TimerHandle scheduleAfter(SimDuration delay, F&& action) {
    VL_CHECK(delay >= 0);
    return scheduleAt(addSat(now_, delay), std::forward<F>(action));
  }

  /// Schedule a callable after `delay` (>= 0) with no cancellation
  /// handle. Fires in the same global (time, sequence) order as
  /// scheduleAt; a post due no earlier than the FIFO's tail skips the
  /// heap (see the file comment).
  template <typename F>
  void post(SimDuration delay, F&& action) {
    VL_CHECK(delay >= 0);
    const SimTime at = addSat(now_, delay);
    const std::uint32_t index = allocSlot();
    this->slot(index).action.emplace(std::forward<F>(action));
    ++gens_[index];  // armed, though no handle ever names it
    const Node node{at, nextSeq_++, index};
    if (fifoCount_ == 0 || at >= fifoBack().at) {
      fifoPush(node);
    } else {
      heapPush(node);
    }
  }

  /// Run until the queue drains. Returns the number of events fired.
  std::int64_t run();

  /// Run events with time <= `until`; afterwards now() == max(now, until).
  /// Events scheduled exactly at `until` do fire.
  std::int64_t runUntil(SimTime until);

  /// Fire exactly one pending event. Returns false if the queue is empty.
  bool step();

  bool empty() const { return heap_.empty() && fifoCount_ == 0; }
  std::size_t pendingCount() const { return heap_.size() + fifoCount_; }

  /// Total events fired over the scheduler's lifetime.
  std::int64_t firedCount() const { return fired_; }

 private:
  friend class TimerHandle;
  friend struct SchedulerTestPeer;

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  static constexpr std::uint32_t kChunkShift = 9;  // 512 slots per chunk
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  /// Generation-wraparound guard: once a slot's generation counter gets
  /// within one lifecycle of wrapping 2^32, freeSlot() retires the slot
  /// instead of recycling it, so a TimerHandle from ~2^31 lifecycles
  /// ago can never alias a newly armed event with the same (slot, gen).
  /// Reaching this takes ~2^31 schedule/finish cycles through ONE slot;
  /// retiring (leaking) the rare slot that does is far cheaper than
  /// widening every generation word.
  static constexpr std::uint32_t kGenRetire = 0xfffffff0u;

  using Node = detail::EventNode;
  using Slot = detail::EventSlot;

  /// FIFO-within-a-tick ordering. seq is a truncated rolling counter;
  /// the wrap-aware subtraction is exact as long as co-resident
  /// same-instant events span < 2^31 sequence numbers (they always do:
  /// each costs an arena slot).
  static bool nodeBefore(const Node& a, const Node& b) {
    if (a.at != b.at) return a.at < b.at;
    return static_cast<std::int32_t>(a.seq - b.seq) < 0;
  }

  Slot& slot(std::uint32_t index) {
    return chunks_[index >> kChunkShift][index & (kChunkSize - 1)];
  }

  std::uint32_t allocSlot() {
    if (freeHead_ != kNoSlot) {
      const std::uint32_t index = freeHead_;
      freeHead_ = next_[index];
      return index;
    }
    if ((numSlots_ & (kChunkSize - 1)) == 0) {
      VL_CHECK_MSG(numSlots_ < kNoSlot - kChunkSize, "event arena exhausted");
      chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
      gens_.resize(numSlots_ + kChunkSize, 0);
      next_.resize(numSlots_ + kChunkSize, kNoSlot);
      pos_.resize(numSlots_ + kChunkSize, 0);
    }
    return numSlots_++;
  }

  void freeSlot(std::uint32_t index) {
    if (gens_[index] >= kGenRetire) return;  // wraparound guard: retire
    next_[index] = freeHead_;
    freeHead_ = index;
  }

  void heapPush(Node node);
  /// Remove the node at heap index `i`, refilling the hole with the
  /// last leaf sifted whichever way restores the heap order.
  void heapRemove(std::size_t i);

  const Node& fifoFront() const { return fifo_[fifoHead_]; }
  const Node& fifoBack() const {
    return fifo_[(fifoHead_ + fifoCount_ - 1) & fifoMask()];
  }
  std::uint32_t fifoMask() const {
    return static_cast<std::uint32_t>(fifo_.size()) - 1;
  }

  void fifoPush(Node node) {
    if (fifoCount_ == fifo_.size()) fifoGrow();
    fifo_[(fifoHead_ + fifoCount_) & fifoMask()] = node;
    ++fifoCount_;
  }
  /// Double the ring (unwrapping it to start at index 0).
  void fifoGrow();

  /// The earliest pending event is the FIFO head rather than the heap
  /// top. With both queues empty it is false.
  bool fifoFirst() const {
    return fifoCount_ != 0 &&
           (heap_.empty() || nodeBefore(fifoFront(), heap_.front()));
  }

  /// Fire the earliest pending event (the FIFO head when `fromFifo`,
  /// else the heap top): advance the clock, disarm the slot, remove the
  /// node, then invoke the closure in place -- slot addresses are
  /// stable, and the slot is recycled only after the callback returns,
  /// so reentrant schedule/cancel/drain calls are safe.
  void fireNext(bool fromFifo) {
    Node top;  // a copy: callbacks may reallocate either queue
    if (fromFifo) {
      top = fifoFront();
      fifoHead_ = (fifoHead_ + 1) & fifoMask();
      --fifoCount_;
    } else {
      top = heap_.front();
      heapRemove(0);
    }
    Slot& s = slot(top.slot);
    now_ = top.at;
    ++gens_[top.slot];  // odd -> even: disarmed; handles go stale here
    ++fired_;
    s.action();  // slot addresses are stable; reentrancy-safe
    s.action.reset();
    freeSlot(top.slot);
  }

  void cancelSlot(std::uint32_t index, std::uint32_t gen) {
    if (gens_[index] != gen) return;  // already fired/cancelled/recycled
    ++gens_[index];                   // odd -> even: disarmed
    VL_DCHECK(heap_[pos_[index]].slot == index);
    heapRemove(pos_[index]);
    slot(index).action.reset();  // release captures eagerly
    freeSlot(index);
  }

  bool slotPending(std::uint32_t index, std::uint32_t gen) const {
    return gens_[index] == gen;  // handles only ever hold odd gens
  }

  SimTime now_ = 0;
  std::uint32_t nextSeq_ = 0;
  std::int64_t fired_ = 0;
  /// 4-ary min-heap of (time, seq) keys: every armed event that is not
  /// in the FIFO.
  std::vector<Node> heap_;
  /// Delivery FIFO: a ring of posts sorted by (time, seq); its size is
  /// zero or a power of two.
  std::vector<Node> fifo_;
  std::uint32_t fifoHead_ = 0;
  std::uint32_t fifoCount_ = 0;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  /// Per-slot generation counters; odd == armed. Slots whose counter
  /// nears 2^32 are retired by freeSlot (kGenRetire), so a stale handle
  /// can never alias a recycled slot across a generation wrap.
  std::vector<std::uint32_t> gens_;
  /// Per-slot free-list link (kNoSlot terminated), valid while free.
  std::vector<std::uint32_t> next_;
  /// Per-slot heap index, valid while armed; every heap move updates it.
  std::vector<std::uint32_t> pos_;
  std::uint32_t numSlots_ = 0;
  std::uint32_t freeHead_ = kNoSlot;

  detail::SchedulerRef* ref_;
};

inline void TimerHandle::cancel() {
  if (ref_ && ref_->scheduler) ref_->scheduler->cancelSlot(slot_, gen_);
  release();
}

inline bool TimerHandle::pending() const {
  return ref_ && ref_->scheduler && ref_->scheduler->slotPending(slot_, gen_);
}

}  // namespace vlease::sim
