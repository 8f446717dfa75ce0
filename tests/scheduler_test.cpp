// Unit tests for the discrete-event scheduler: ordering, FIFO ties,
// cancellation, runUntil semantics, reentrant scheduling, and the
// handle-less post() lane that shares the total order.
#include "sim/scheduler.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

namespace vlease::sim {
namespace {

TEST(SchedulerTest, StartsAtTimeZeroEmpty) {
  Scheduler s;
  EXPECT_EQ(s.now(), 0);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.pendingCount(), 0u);
  EXPECT_EQ(s.run(), 0);
}

TEST(SchedulerTest, FiresInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.scheduleAt(30, [&] { order.push_back(3); });
  s.scheduleAt(10, [&] { order.push_back(1); });
  s.scheduleAt(20, [&] { order.push_back(2); });
  EXPECT_EQ(s.run(), 3);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30);
}

TEST(SchedulerTest, SameInstantIsFifo) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    s.scheduleAt(5, [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SchedulerTest, ClockAdvancesToEventTime) {
  Scheduler s;
  SimTime seen = -1;
  s.scheduleAt(42, [&] { seen = s.now(); });
  s.run();
  EXPECT_EQ(seen, 42);
}

TEST(SchedulerTest, ScheduleAfterUsesNow) {
  Scheduler s;
  SimTime seen = -1;
  s.scheduleAt(10, [&] {
    s.scheduleAfter(5, [&] { seen = s.now(); });
  });
  s.run();
  EXPECT_EQ(seen, 15);
}

TEST(SchedulerTest, ReentrantSchedulingSameTickRunsBeforeLaterTick) {
  Scheduler s;
  std::vector<int> order;
  s.scheduleAt(10, [&] {
    order.push_back(1);
    // Same-instant chain: must run before the event at t=11.
    s.scheduleAt(10, [&] { order.push_back(2); });
  });
  s.scheduleAt(11, [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SchedulerTest, CancelPreventsFiring) {
  Scheduler s;
  bool fired = false;
  TimerHandle h = s.scheduleAt(10, [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  EXPECT_EQ(s.run(), 0);
  EXPECT_FALSE(fired);
}

TEST(SchedulerTest, CancelAfterFiringIsNoop) {
  Scheduler s;
  TimerHandle h = s.scheduleAt(10, [] {});
  s.run();
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not crash or corrupt counters
  EXPECT_TRUE(s.empty());
}

TEST(SchedulerTest, PendingCountTracksCancellation) {
  Scheduler s;
  TimerHandle a = s.scheduleAt(1, [] {});
  TimerHandle b = s.scheduleAt(2, [] {});
  EXPECT_EQ(s.pendingCount(), 2u);
  a.cancel();
  EXPECT_EQ(s.pendingCount(), 1u);
  s.run();
  EXPECT_EQ(s.pendingCount(), 0u);
  (void)b;
}

TEST(SchedulerTest, RunUntilStopsAtBoundaryInclusive) {
  Scheduler s;
  std::vector<SimTime> fired;
  for (SimTime t : {5, 10, 15, 20}) {
    s.scheduleAt(t, [&fired, t] { fired.push_back(t); });
  }
  s.runUntil(10);
  EXPECT_EQ(fired, (std::vector<SimTime>{5, 10}));
  EXPECT_EQ(s.now(), 10);
  s.runUntil(100);
  EXPECT_EQ(fired.size(), 4u);
  EXPECT_EQ(s.now(), 100);  // advances even past the last event
}

TEST(SchedulerTest, RunUntilAdvancesClockWithNoEvents) {
  Scheduler s;
  s.runUntil(1234);
  EXPECT_EQ(s.now(), 1234);
}

TEST(SchedulerTest, StepFiresExactlyOne) {
  Scheduler s;
  int count = 0;
  s.scheduleAt(1, [&] { ++count; });
  s.scheduleAt(2, [&] { ++count; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(s.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(s.step());
}

TEST(SchedulerTest, FiredCountAccumulates) {
  Scheduler s;
  for (int i = 0; i < 7; ++i) s.scheduleAt(i, [] {});
  s.run();
  EXPECT_EQ(s.firedCount(), 7);
}

TEST(SchedulerTest, CancelledEventsSkippedByStep) {
  Scheduler s;
  bool ran = false;
  TimerHandle h = s.scheduleAt(1, [&] { ran = true; });
  s.scheduleAt(2, [] {});
  h.cancel();
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(ran);
  EXPECT_EQ(s.now(), 2);
}

TEST(SchedulerDeathTest, SchedulingInPastAborts) {
  Scheduler s;
  s.scheduleAt(10, [] {});
  s.run();
  EXPECT_DEATH(s.scheduleAt(5, [] {}), "cannot schedule in the past");
}

// ---- give-up timers: far deadlines the reply usually cancels ----

TEST(SchedulerDeadlineTest, FiresAtExactDeadline) {
  Scheduler s;
  SimTime seen = -1;
  s.scheduleAt(1'000'000, [&] { seen = s.now(); });
  s.run();
  EXPECT_EQ(seen, 1'000'000);
  EXPECT_EQ(s.now(), 1'000'000);
}

TEST(SchedulerDeadlineTest, MixedLanesShareOneTotalOrder) {
  Scheduler s;
  std::vector<int> order;
  // Near and far timers interleaved in scheduling order; firing must
  // follow the global (time, seq) order.
  s.scheduleAt(70, [&] { order.push_back(4); });
  s.scheduleAt(70, [&] { order.push_back(5); });  // same t, later seq
  s.scheduleAt(10, [&] { order.push_back(1); });
  s.scheduleAt(1'000'000, [&] { order.push_back(6); });
  s.scheduleAt(20, [&] { order.push_back(2); });
  s.scheduleAt(30, [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

TEST(SchedulerDeadlineTest, SameInstantDeadlineIsFifoWithExactLane) {
  Scheduler s;
  std::vector<int> order;
  s.scheduleAt(5, [&] {
    s.scheduleAt(5, [&] { order.push_back(2); });  // == now
    s.scheduleAt(5, [&] { order.push_back(3); });
    order.push_back(1);
  });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SchedulerDeadlineTest, CancelPreventsFiringAndReclaims) {
  Scheduler s;
  bool fired = false;
  TimerHandle h = s.scheduleAt(hours(10), [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  EXPECT_EQ(s.pendingCount(), 1u);
  h.cancel();
  EXPECT_FALSE(h.pending());
  EXPECT_EQ(s.pendingCount(), 0u);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.run(), 0);
  EXPECT_FALSE(fired);
}

TEST(SchedulerDeadlineTest, RenewPatternScheduleCancelRepeat) {
  // The lease-renewal lifecycle: a far deadline is repeatedly cancelled
  // and replaced; only the last one fires.
  Scheduler s;
  int fires = 0;
  TimerHandle h;
  for (int i = 0; i < 10'000; ++i) {
    h.cancel();
    h = s.scheduleAfter(sec(30), [&] { ++fires; });
  }
  s.run();
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(s.now(), sec(30));
}

TEST(SchedulerDeadlineTest, CancelInsideCallbackSameInstant) {
  Scheduler s;
  std::vector<int> order;
  TimerHandle b;
  s.scheduleAt(5, [&] {
    order.push_back(1);
    b.cancel();
  });
  b = s.scheduleAt(5, [&] { order.push_back(2); });
  s.scheduleAt(5, [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(SchedulerDeadlineTest, HandleOutlivesSchedulerWithWheelEntry) {
  TimerHandle kept;
  {
    Scheduler s;
    kept = s.scheduleAt(sec(10), [] {});
    EXPECT_TRUE(kept.pending());
  }
  EXPECT_FALSE(kept.pending());
  kept.cancel();  // must be a safe no-op
}

// ---- post(): the handle-less delivery lane ----

TEST(SchedulerPostTest, PostsAndTimersAtOneInstantFireBySequence) {
  Scheduler s;
  std::vector<int> order;
  s.post(5, [&] { order.push_back(0); });
  s.scheduleAt(5, [&] { order.push_back(1); });
  s.post(5, [&] { order.push_back(2); });
  s.scheduleAfter(5, [&] { order.push_back(3); });
  s.post(5, [&] { order.push_back(4); });
  s.scheduleAt(4, [&] { order.push_back(-1); });
  EXPECT_EQ(s.run(), 6);
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3, 4}));
  EXPECT_EQ(s.now(), 5);
}

TEST(SchedulerPostTest, ShorterPostThanFifoTailTakesHeapAndFiresFirst) {
  Scheduler s;
  std::vector<int> order;
  s.post(10, [&] { order.push_back(10); });
  s.post(20, [&] { order.push_back(20); });
  s.post(3, [&] { order.push_back(3); });    // before the tail: heap
  s.post(20, [&] { order.push_back(21); });  // equal to the tail: FIFO
  s.post(15, [&] { order.push_back(15); });  // before the tail: heap
  EXPECT_EQ(s.pendingCount(), 5u);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{3, 10, 15, 20, 21}));
}

TEST(SchedulerPostTest, RunUntilIsInclusiveAtFifoHead) {
  Scheduler s;
  std::vector<SimTime> fired;
  for (SimDuration d : {5, 10, 10, 15}) {
    s.post(d, [&fired, &s] { fired.push_back(s.now()); });
  }
  EXPECT_EQ(s.runUntil(10), 3);
  EXPECT_EQ(fired, (std::vector<SimTime>{5, 10, 10}));
  EXPECT_EQ(s.now(), 10);
  EXPECT_EQ(s.pendingCount(), 1u);
  EXPECT_EQ(s.runUntil(14), 0);
  EXPECT_EQ(s.now(), 14);
  EXPECT_EQ(s.runUntil(15), 1);
  EXPECT_TRUE(s.empty());
}

TEST(SchedulerPostTest, StepPendingCountAndEmptyCountPosts) {
  Scheduler s;
  int fired = 0;
  s.post(1, [&] { ++fired; });
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.pendingCount(), 1u);
  TimerHandle h = s.scheduleAt(2, [&] { ++fired; });
  s.post(0, [&] { ++fired; });  // before the tail: heap
  EXPECT_EQ(s.pendingCount(), 3u);
  h.cancel();
  EXPECT_EQ(s.pendingCount(), 2u);
  EXPECT_TRUE(s.step());
  EXPECT_EQ(s.now(), 0);
  EXPECT_TRUE(s.step());
  EXPECT_EQ(s.now(), 1);
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.pendingCount(), 0u);
  EXPECT_FALSE(s.step());
  EXPECT_EQ(s.firedCount(), 2);
}

TEST(SchedulerPostTest, ReentrantPostsKeepTotalOrderAcrossRingGrowth) {
  // Each delivery posts the next at a fixed latency while a burst keeps
  // hundreds in flight, so the ring wraps and grows under the callbacks.
  Scheduler s;
  std::vector<SimTime> fired;
  int budget = 5000;
  std::function<void()> hop = [&] {
    fired.push_back(s.now());
    if (--budget > 0) s.post(7, [&] { hop(); });
  };
  for (int i = 0; i < 300; ++i) s.post(i % 7, [&] { hop(); });
  s.run();
  ASSERT_EQ(fired.size(), 5299u);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    ASSERT_LE(fired[i - 1], fired[i]) << "at firing " << i;
  }
}

TEST(SchedulerPostTest, StaleHandleCannotCancelPostInRecycledSlot) {
  Scheduler s;
  TimerHandle stale = s.scheduleAt(1, [] {});
  s.run();
  bool fired = false;
  s.post(1, [&] { fired = true; });  // reuses the fired timer's slot
  EXPECT_FALSE(stale.pending());
  stale.cancel();
  EXPECT_EQ(s.pendingCount(), 1u);
  s.run();
  EXPECT_TRUE(fired);
}

TEST(SchedulerPostTest, DestructorReleasesPendingPostHoldingHandle) {
  auto marker = std::make_shared<int>(0);
  std::weak_ptr<int> watch = marker;
  TimerHandle outside;
  {
    Scheduler s;
    TimerHandle inner = s.scheduleAt(sec(1), [] {});
    outside = inner;
    s.post(sec(2), [h = std::move(inner), m = std::move(marker)] {});
    s.post(sec(1), [] {});  // one post in the heap too
    EXPECT_EQ(s.pendingCount(), 3u);
  }
  EXPECT_TRUE(watch.expired());  // the post's closure was destroyed
  EXPECT_FALSE(outside.pending());
  outside.cancel();  // a safe no-op after the scheduler is gone
}

}  // namespace

// ---- generation-wraparound guard ----

/// Test-only backdoor: lets the regression test below fast-forward a
/// slot's generation counter to just below the retirement threshold
/// instead of cycling one slot 2^31 times.
struct SchedulerTestPeer {
  static std::uint32_t slotOf(const TimerHandle& h) { return h.slot_; }
  static std::uint32_t gen(const Scheduler& s, std::uint32_t slot) {
    return s.gens_[slot];
  }
  static void setGen(Scheduler& s, std::uint32_t slot, std::uint32_t gen) {
    s.gens_[slot] = gen;
  }
  static std::uint32_t arenaSlots(const Scheduler& s) { return s.numSlots_; }
  static constexpr std::uint32_t chunkSize() { return Scheduler::kChunkSize; }
  static constexpr std::uint32_t genRetire() { return Scheduler::kGenRetire; }
};

namespace {

TEST(SchedulerGenerationTest, SlotNearWrapIsRetiredNotRecycled) {
  Scheduler s;
  // Burn one lifecycle to learn which arena slot the scheduler hands out
  // first (slot recycling is LIFO, so the next schedule reuses it).
  TimerHandle h0 = s.scheduleAt(1, [] {});
  const std::uint32_t slot = SchedulerTestPeer::slotOf(h0);
  s.run();
  // Fast-forward the slot to one lifecycle before the wrap guard.
  SchedulerTestPeer::setGen(s, slot, SchedulerTestPeer::genRetire() - 2);
  int fires = 0;
  TimerHandle last = s.scheduleAt(2, [&] { ++fires; });
  ASSERT_EQ(SchedulerTestPeer::slotOf(last), slot);  // recycled as usual
  s.run();
  EXPECT_EQ(fires, 1);
  // The firing pushed the counter to the threshold: the slot is now
  // retired. All later schedules must draw fresh slots, and the stale
  // handle must stay dead forever.
  EXPECT_EQ(SchedulerTestPeer::gen(s, slot), SchedulerTestPeer::genRetire());
  for (int i = 0; i < 100; ++i) {
    TimerHandle h = s.scheduleAt(s.now() + 1, [] {});
    EXPECT_NE(SchedulerTestPeer::slotOf(h), slot);
    s.run();
  }
  EXPECT_EQ(SchedulerTestPeer::gen(s, slot), SchedulerTestPeer::genRetire());
  EXPECT_FALSE(last.pending());
  last.cancel();  // no-op: may not disturb any live event
  EXPECT_TRUE(s.empty());
}

TEST(SchedulerGenerationTest, DeadlineCancelAtWrapRetiresEagerly) {
  Scheduler s;
  TimerHandle h0 = s.scheduleAt(1, [] {});
  const std::uint32_t slot = SchedulerTestPeer::slotOf(h0);
  s.run();
  SchedulerTestPeer::setGen(s, slot, SchedulerTestPeer::genRetire() - 2);
  // Cancel reclaims eagerly; at the threshold it must retire the slot
  // instead of re-listing it.
  TimerHandle h = s.scheduleAt(sec(1), [] {});
  ASSERT_EQ(SchedulerTestPeer::slotOf(h), slot);
  h.cancel();
  EXPECT_EQ(SchedulerTestPeer::gen(s, slot), SchedulerTestPeer::genRetire());
  TimerHandle next = s.scheduleAt(sec(1), [] {});
  EXPECT_NE(SchedulerTestPeer::slotOf(next), slot);
  next.cancel();
}

TEST(SchedulerArenaTest, CancelRecyclesSlotAtOnce) {
  // A give-up timer cancelled long before its deadline must hand its
  // slot back immediately: 1e5 far-future timers, each cancelled before
  // the next is armed, never need more than the first arena chunk.
  Scheduler s;
  s.scheduleAt(1, [] {});  // keeps each cancelled node off the root
  for (int i = 0; i < 100'000; ++i) {
    TimerHandle h = s.scheduleAt(hours(1) + i, [] {});
    h.cancel();
    ASSERT_LE(SchedulerTestPeer::arenaSlots(s), SchedulerTestPeer::chunkSize())
        << "arena grew after " << i << " cancels";
  }
  EXPECT_EQ(s.pendingCount(), 1u);
  EXPECT_EQ(s.run(), 1);
  EXPECT_EQ(s.now(), 1);
}

}  // namespace
}  // namespace vlease::sim
