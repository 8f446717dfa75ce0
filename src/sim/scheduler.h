// Discrete-event simulation kernel: a virtual clock plus two timer
// lanes over one slab-allocated event arena --
//
//   * an EXACT lane (implicit 4-ary min-heap of (time, sequence) keys)
//     for events whose precise instant and ordering are part of the
//     protocol's observable behavior, and
//   * a DEADLINE lane (hierarchical timing wheel) for timers that mark
//     "this period has provably drained" and are almost always
//     cancelled before they fire -- lease expiries, ack-wait bounds,
//     session timeouts, retransmission budgets.
//
// ---- Which lane does a new call site belong on? ----
// Use scheduleAt/scheduleAfter (exact lane) when the event's firing
// instant is itself protocol- or measurement-visible: message
// deliveries, fault injections, audit sampling -- anything whose time
// stamps a metric or orders against other events by design contract.
// Use scheduleDeadline/scheduleDeadlineAfter (deadline lane) when the
// timer expresses a deadline that is expected to be cancelled or whose
// consumer only needs "not before the deadline, and not much after":
// lease/grace expiry waits, per-request timeouts, inactivity bounds,
// retry pacing. The deadline lane's contract is deliberately coarse --
// a deadline at now+delta may fire up to delta/8 late (one wheel-bucket
// granularity; see below) -- so callers must not encode exact-instant
// semantics in it. The protocols' epsilon margin already pads every
// lease deadline, which is what makes the coarse class safe there.
//
// Ordering guarantees (both lanes):
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
// bytes instead of a closure. Cancellation is generation-counted: a
// TimerHandle remembers (slot, generation); cancelling bumps the slot's
// generation in place -- no atomics, no per-event control block. On the
// exact lane the heap entry stays and is discarded when it reaches the
// top (lazy deletion); on the deadline lane the bucket node is unlinked
// and the slot reclaimed immediately (O(1) eager deletion), so a
// cancelled far-future deadline costs nothing beyond its insert.
//
// Timing-wheel lane (PR 7): kWheelLevels levels of kWheelSlots buckets
// each; level L has bucket granularity 2^(3L) microseconds (8x coarser
// per level, the Linux timer-wheel geometry), and a deadline at
// now+delta lands in the lowest level whose span covers delta, i.e. its
// bucket is never coarser than delta/8. Insert and cancel are O(1) and
// hashless: the level is the position of delta's top bit, the slot is a
// shift-and-mask of the absolute deadline, and the bucket is an
// intrusive doubly-linked list threaded through per-slot side arrays.
// Buckets are cascade-free: a bucket is visited exactly once, when the
// kernel is about to advance past its boundary, and its surviving
// entries are promoted -- in one step, never re-bucketed -- into the
// exact heap keyed by their original (deadline, sequence). Fire order
// is therefore normalized deterministically at expiry: the heap's total
// (time, seq) order decides, bit-for-bit identical to the order the
// exact lane alone would have produced, independent of bucket layout or
// promotion batching. (That is also why enabling the wheel cannot
// perturb the determinism goldens: the coarse buckets bound *bookkeeping*,
// while firing instants stay exact. Callers still must not rely on
// exactness -- the documented contract remains [deadline, deadline +
// granularity) so the representation stays free to coarsen.)
//
// The exact lane is a plain 4-ary heap with nothing layered on it. Only
// audit, fault and migration timers are cancelled on it (the cancel-heavy
// timers live on the wheel), so its lazily deleted nodes stay bounded by
// the fault plan; and no perfbench end-to-end metric moved beyond noise
// with drain shortcuts (a sorted-run drain, a same-instant ring) on top.
//
// Handle lifetime: handles may outlive the scheduler. They share one
// non-atomically refcounted block per scheduler that is nulled on
// destruction, so a late cancel()/pending() is a safe no-op. (The
// scheduler and its handles are single-threaded by design; parallel
// sweeps give every run its own scheduler.)
#pragma once

#include <array>
#include <bit>
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
/// free-list links, and wheel-bucket links) lives in dense side arrays
/// so the peek/cancel hot paths walk 4-byte-stride memory instead of
/// pulling a whole closure-sized line per probe.
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

  /// EXACT lane: schedule a callable at absolute virtual time `at`
  /// (>= now). The event fires at exactly `at`, ordered against every
  /// other event by the global (time, sequence) total order. Use this
  /// for events whose instant is protocol- or measurement-visible (see
  /// the lane-selection rule in the file comment). The closure is
  /// constructed directly in its arena slot.
  template <typename F>
  TimerHandle scheduleAt(SimTime at, F&& action) {
    VL_CHECK_MSG(at >= now_, "cannot schedule in the past");
    const std::uint32_t index = allocSlot();
    this->slot(index).action.emplace(std::forward<F>(action));
    const std::uint32_t gen = ++gens_[index];  // even -> odd: armed
    heapPush(Node{at, nextSeq_++, index});
    ++live_;
    return TimerHandle(ref_, index, gen);
  }

  /// EXACT lane: schedule a callable after `delay` (>= 0).
  template <typename F>
  TimerHandle scheduleAfter(SimDuration delay, F&& action) {
    VL_CHECK(delay >= 0);
    return scheduleAt(addSat(now_, delay), std::forward<F>(action));
  }

  /// DEADLINE lane: schedule a callable for deadline `at` (>= now) on
  /// the timing wheel. Contract: the callable fires no earlier than
  /// `at` and no later than one wheel-bucket granularity past it --
  /// strictly less than (at - now)/8 late -- at a deterministic instant
  /// (the current implementation normalizes to exactly `at`; callers
  /// must not rely on that). Insert is O(1); cancel is O(1) and
  /// reclaims the slot immediately, so the expected-case
  /// schedule-then-cancel lifecycle of lease and timeout timers never
  /// touches the heap. A deadline at the current instant goes straight
  /// to the exact heap, exactly like scheduleAt.
  template <typename F>
  TimerHandle scheduleDeadline(SimTime at, F&& action) {
    VL_CHECK_MSG(at >= now_, "cannot schedule in the past");
    const std::uint32_t index = allocSlot();
    this->slot(index).action.emplace(std::forward<F>(action));
    const std::uint32_t gen = ++gens_[index];  // even -> odd: armed
    const std::uint32_t seq = nextSeq_++;
    if (at == now_) {
      heapPush(Node{at, seq, index});
    } else {
      wheelLink(index, at, seq);
    }
    ++live_;
    return TimerHandle(ref_, index, gen);
  }

  /// DEADLINE lane: schedule a callable for deadline now + `delay`.
  template <typename F>
  TimerHandle scheduleDeadlineAfter(SimDuration delay, F&& action) {
    VL_CHECK(delay >= 0);
    return scheduleDeadline(addSat(now_, delay), std::forward<F>(action));
  }

  /// Run until the queue drains. Returns the number of events fired
  /// (cancelled entries not counted).
  std::int64_t run();

  /// Run events with time <= `until`; afterwards now() == max(now, until).
  /// Events scheduled exactly at `until` do fire.
  std::int64_t runUntil(SimTime until);

  /// Fire exactly one pending event (skipping cancelled ones).
  /// Returns false if the queue is empty.
  bool step();

  bool empty() const { return live_ == 0; }
  std::size_t pendingCount() const { return live_; }

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

  // ---- timing-wheel geometry ----
  /// 64 buckets per level, 8x coarser per level: level L has bucket
  /// granularity 2^(3L) us, and a deadline delta lands on the lowest
  /// level whose 64-bucket span still covers it, i.e. 2^(3L+3) <= delta
  /// < 2^(3L+6) (level 0 takes everything below 64 us). 20 levels cover
  /// the whole positive SimTime range.
  static constexpr std::uint32_t kWheelSlotBits = 6;
  static constexpr std::uint32_t kWheelSlots = 1u << kWheelSlotBits;
  static constexpr std::uint32_t kWheelLevelShift = 3;  // 8x per level
  static constexpr std::uint32_t kWheelLevels = 20;
  static constexpr std::uint32_t kWheelBuckets = kWheelLevels * kWheelSlots;
  /// prev_-link tag marking a node as the head of bucket (prev_ & ~flag).
  static constexpr std::uint32_t kBucketFlag = 0x80000000u;

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
  const Slot& slot(std::uint32_t index) const {
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
      prev_.resize(numSlots_ + kChunkSize, kNoSlot);
      wheelAt_.resize(numSlots_ + kChunkSize, 0);
      wheelSeq_.resize(numSlots_ + kChunkSize, 0);
    }
    return numSlots_++;
  }

  void freeSlot(std::uint32_t index) {
    if (gens_[index] >= kGenRetire) return;  // wraparound guard: retire
    next_[index] = freeHead_;
    freeHead_ = index;
  }

  void heapPush(Node node);
  void heapPopTop();

  // ---- timing-wheel internals ----
  /// Level for a strictly positive delta: lowest L whose 64-bucket span
  /// (2^(3L+6) us) still covers it.
  static std::uint32_t wheelLevelFor(SimDuration delta) {
    const int top = 63 - std::countl_zero(static_cast<std::uint64_t>(delta));
    return top < static_cast<int>(kWheelSlotBits)
               ? 0u
               : (static_cast<std::uint32_t>(top) - kWheelSlotBits + 3) /
                     kWheelLevelShift;
  }

  /// O(1) hashless insert: the bucket index is a shift-and-mask of the
  /// absolute deadline; the node is pushed at the list head (intra-
  /// bucket order is irrelevant -- promotion re-keys through the heap).
  /// bucketDue_ tracks the earliest boundary of any resident entry, so
  /// a level-miscast wrap collision merely promotes a far entry early
  /// (harmless: it still fires at its exact key via the heap).
  void wheelLink(std::uint32_t index, SimTime at, std::uint32_t seq) {
    wheelAt_[index] = at;
    wheelSeq_[index] = seq;
    const std::uint32_t level = wheelLevelFor(at - now_);
    const std::uint32_t shift = level * kWheelLevelShift;
    const SimTime boundary = (at >> shift) << shift;
    const std::uint32_t bucket =
        level * kWheelSlots +
        (static_cast<std::uint32_t>(at >> shift) & (kWheelSlots - 1));
    const std::uint64_t bit = 1ull << (bucket & (kWheelSlots - 1));
    if (wheelOcc_[level] & bit) {
      const std::uint32_t head = bucketHead_[bucket];
      next_[index] = head;
      prev_[head] = index;
      if (boundary < bucketDue_[bucket]) bucketDue_[bucket] = boundary;
    } else {
      wheelOcc_[level] |= bit;
      next_[index] = kNoSlot;
      bucketDue_[bucket] = boundary;
    }
    bucketHead_[bucket] = index;
    prev_[index] = kBucketFlag | bucket;
    if (wheelCount_ == 0 || bucketDue_[bucket] < wheelNextDue_) {
      wheelNextDue_ = bucketDue_[bucket];
      wheelNextBucket_ = bucket;
    }
    ++wheelCount_;
  }

  /// O(1) cancel: unlink the node from its bucket list. The caller
  /// reclaims the slot; no lazy-deletion debt is created.
  void wheelUnlink(std::uint32_t index) {
    const std::uint32_t p = prev_[index];
    const std::uint32_t n = next_[index];
    if (n != kNoSlot) prev_[n] = p;
    if (p & kBucketFlag) {
      const std::uint32_t bucket = p & ~kBucketFlag;
      bucketHead_[bucket] = n;
      if (n == kNoSlot) {
        wheelOcc_[bucket >> kWheelSlotBits] &=
            ~(1ull << (bucket & (kWheelSlots - 1)));
        --wheelCount_;
        if (bucket == wheelNextBucket_) recomputeWheelNext();
        prev_[index] = kNoSlot;
        return;
      }
    } else {
      next_[p] = n;
    }
    prev_[index] = kNoSlot;
    --wheelCount_;
  }

  bool slotOnWheel(std::uint32_t index) const {
    return prev_[index] != kNoSlot;
  }

  /// Move every entry of the earliest-due bucket into the exact heap,
  /// keyed by its original (deadline, insertion sequence). Called only
  /// when the kernel is about to fire an event at or past the bucket's
  /// boundary, so no promoted entry can be late -- and because the heap
  /// then applies the global total order, firing is bit-for-bit what
  /// the exact lane alone would have produced.
  void promoteDueBucket();
  /// Rescan the occupancy bitmaps for the new earliest-due bucket.
  void recomputeWheelNext();

  /// The exact heap's minimum, or null when it is empty.
  const Node* topNode() const { return heap_.empty() ? nullptr : heap_.data(); }

  /// Drop cancelled nodes (and promote due wheel buckets) until the
  /// heap's top is armed. Returns false when everything fireable is
  /// exhausted. `promoteLimit` bounds which wheel buckets may be
  /// promoted while the heap is empty: run()/step() pass
  /// kNever (drain the wheel too); runUntil(t) passes t so far-future
  /// buckets stay untouched on the wheel. A bucket whose boundary is at
  /// or before the current top key is always promoted -- it may hold
  /// deadlines that precede (or tie) that key in the global order.
  bool peekArmed(SimTime promoteLimit) {
    while (true) {
      const Node* top = topNode();
      if (wheelCount_ != 0 &&
          (top == nullptr ? wheelNextDue_ <= promoteLimit
                          : wheelNextDue_ <= top->at)) {
        promoteDueBucket();
        continue;
      }
      if (top == nullptr) return false;
      const std::uint32_t index = top->slot;
      if (gens_[index] & 1u) return true;
      heapPopTop();
      freeSlot(index);
    }
  }

  /// Fire the (armed) top node: advance the clock, disarm the slot, pop
  /// the node, then invoke the closure in place -- slot addresses are
  /// stable, and the slot is recycled only after the callback returns,
  /// so reentrant schedule/cancel/drain calls are safe.
  void fireTop() {
    const Node top = heap_.front();  // copy: callbacks may reallocate
    Slot& s = slot(top.slot);
    now_ = top.at;
    ++gens_[top.slot];  // odd -> even: disarmed; handles go stale here
    --live_;
    heapPopTop();
    ++fired_;
    s.action();  // slot addresses are stable; reentrancy-safe
    s.action.reset();
    freeSlot(top.slot);
  }

  void cancelSlot(std::uint32_t index, std::uint32_t gen) {
    if (gens_[index] != gen) return;  // already fired/cancelled/recycled
    slot(index).action.reset();       // release captures eagerly
    ++gens_[index];                   // odd -> even: disarmed
    --live_;
    // Exact lane: the heap node stays; peekArmed() recycles the slot
    // when it surfaces.
    if (!slotOnWheel(index)) return;
    // Deadline lane: unlink and reclaim immediately -- the whole point
    // of the wheel is that the common cancelled-before-expiry lease
    // timer costs O(1) and leaves nothing behind.
    wheelUnlink(index);
    freeSlot(index);
  }

  bool slotPending(std::uint32_t index, std::uint32_t gen) const {
    return gens_[index] == gen;  // handles only ever hold odd gens
  }

  SimTime now_ = 0;
  std::uint32_t nextSeq_ = 0;
  std::int64_t fired_ = 0;
  std::size_t live_ = 0;
  /// Exact lane: 4-ary min-heap of (time, seq) keys. Cancelled nodes
  /// stay until they reach the top (lazy deletion).
  std::vector<Node> heap_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  /// Per-slot generation counters; odd == armed. Slots whose counter
  /// nears 2^32 are retired by freeSlot (kGenRetire), so a stale handle
  /// can never alias a recycled slot across a generation wrap.
  std::vector<std::uint32_t> gens_;
  /// Per-slot links. For a free slot, next_ is the free-list link
  /// (kNoSlot terminated). For a slot armed on the wheel, next_/prev_
  /// are its bucket's doubly-linked list (prev_ of the head carries
  /// kBucketFlag | bucket). prev_ == kNoSlot marks a slot as NOT on the
  /// wheel -- the invariant every wheel exit path (unlink, promotion)
  /// restores, so cancelSlot can dispatch lanes with one load.
  std::vector<std::uint32_t> next_;
  std::vector<std::uint32_t> prev_;
  /// Per-slot deadline key, valid while the slot is linked on the wheel
  /// (promotion re-keys the heap node from these).
  std::vector<SimTime> wheelAt_;
  std::vector<std::uint32_t> wheelSeq_;
  std::uint32_t numSlots_ = 0;
  std::uint32_t freeHead_ = kNoSlot;

  // ---- timing-wheel state ----
  /// Per-level occupancy bitmaps are the source of truth: bucketHead_ /
  /// bucketDue_ are read only for buckets whose bit is set, so none of
  /// these arrays needs initialization.
  std::uint64_t wheelOcc_[kWheelLevels] = {};
  std::array<std::uint32_t, kWheelBuckets> bucketHead_;
  std::array<SimTime, kWheelBuckets> bucketDue_;
  /// Entries resident on the wheel, and the earliest due bucket
  /// (wheelNextDue_ == kNever iff wheelCount_ == 0).
  std::size_t wheelCount_ = 0;
  SimTime wheelNextDue_ = kNever;
  std::uint32_t wheelNextBucket_ = 0;

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
