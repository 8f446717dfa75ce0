// Randomized differential test of the slab/heap event kernel against an
// independently implemented naive reference scheduler (a sorted vector).
//
// Both schedulers receive the identical stream of interleaved
// schedule / cancel / runUntil / step / run operations -- including
// events that cancel other pending events from inside their callback and
// events that schedule children reentrantly -- over ~1e5 events, and the
// firing sequences must match exactly (time order, FIFO within a tick,
// cancelled events skipped). Besides that random mix, the same harness
// drives three traffic shapes a kernel is tempted to special-case: a bulk
// monotone schedule-then-drain, same-instant fan-out bursts, and a mass
// of far-future timers cancelled before any fires. Directed cases cover
// cancellation during a callback at the same instant and handles that
// outlive the scheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <ostream>
#include <vector>

#include "sim/scheduler.h"
#include "util/rng.h"

namespace vlease::sim {
namespace {

/// Naive reference: a deque kept sorted by (at, seq); firing pops the
/// front live entry. Deliberately simple and structurally unlike the
/// production 4-ary-heap + arena kernel. (A deque, not a vector, so
/// popping the front of a 2^17-event queue stays O(1).)
class NaiveScheduler {
 public:
  using Handle = std::shared_ptr<bool>;  // *handle == still pending

  SimTime now() const { return now_; }

  Handle scheduleAt(SimTime at, std::function<void()> fn) {
    auto alive = std::make_shared<bool>(true);
    Entry e{at, seq_++, std::move(fn), alive};
    auto pos = std::upper_bound(
        queue_.begin(), queue_.end(), e, [](const Entry& a, const Entry& b) {
          if (a.at != b.at) return a.at < b.at;
          return a.seq < b.seq;
        });
    queue_.insert(pos, std::move(e));
    return alive;
  }

  std::int64_t runUntil(SimTime until) {
    std::int64_t n = 0;
    while (true) {
      // The front live entry; reentrant scheduleAt() calls keep the
      // deque sorted, so the front is always the global minimum.
      auto it = std::find_if(queue_.begin(), queue_.end(),
                             [](const Entry& e) { return *e.alive; });
      if (it == queue_.end() || it->at > until) break;
      Entry e = std::move(*it);
      queue_.erase(queue_.begin(), it + 1);  // drop dead prefix + fired
      now_ = e.at;
      *e.alive = false;
      e.fn();
      ++n;
    }
    if (now_ < until) now_ = until;
    return n;
  }

  std::int64_t run() {
    std::int64_t n = 0;
    while (step()) ++n;
    return n;
  }

  bool step() {
    auto it = std::find_if(queue_.begin(), queue_.end(),
                           [](const Entry& e) { return *e.alive; });
    if (it == queue_.end()) return false;
    Entry e = std::move(*it);
    queue_.erase(queue_.begin(), it + 1);
    now_ = e.at;
    *e.alive = false;
    e.fn();
    return true;
  }

  std::size_t pendingCount() const {
    return static_cast<std::size_t>(
        std::count_if(queue_.begin(), queue_.end(),
                      [](const Entry& e) { return *e.alive; }));
  }

 private:
  struct Entry {
    SimTime at;
    std::uint64_t seq;
    std::function<void()> fn;
    Handle alive;
  };
  SimTime now_ = 0;
  std::uint64_t seq_ = 0;
  std::deque<Entry> queue_;
};

/// Shared description of one logical event, so both schedulers run the
/// same side effects with the same pre-drawn parameters.
struct EventSpec {
  enum class Kind { kRecord, kCancelVictim, kSpawnChild, kFanOut };
  int id = 0;
  Kind kind = Kind::kRecord;
  std::size_t victim = 0;       // kCancelVictim: index into handle registry
  SimDuration childDelay = 0;   // kSpawnChild
  int childId = 0;              // kSpawnChild; kFanOut: first child id
  int width = 0;                // kFanOut
};

class DifferentialDriver {
 public:
  /// `mixedLanes` routes a random half of the real scheduler's events
  /// through scheduleDeadline (the timing-wheel lane) while the naive
  /// reference keeps exact semantics for everything -- so the test
  /// asserts the wheel's firing is indistinguishable, event for event,
  /// from the exact lane.
  explicit DifferentialDriver(std::uint64_t seed, bool mixedLanes = false)
      : rng_(seed), mixedLanes_(mixedLanes) {}

  void scheduleTopLevel() {
    const SimDuration delay = static_cast<SimDuration>(rng_.nextBelow(50));
    auto spec = std::make_shared<EventSpec>(drawSpec());
    schedule(real_.now() + delay, spec);
    ++scheduled_;
  }

  /// `count` top-level events at nondecreasing instants (four per
  /// tick), all scheduled before anything runs.
  void scheduleMonotone(int count) {
    const SimTime start = real_.now();
    for (int i = 0; i < count; ++i) {
      schedule(start + i / 4, std::make_shared<EventSpec>(drawSpec()));
      ++scheduled_;
    }
  }

  /// One event that, when it fires, fans out `width` recorders at now()
  /// and `width` at now()+1, with a deadline at now() after every fourth
  /// pair.
  void scheduleFanOut(SimDuration delay, int width) {
    EventSpec spec;
    spec.id = nextId_++;
    spec.kind = EventSpec::Kind::kFanOut;
    spec.width = width;
    spec.childId = nextId_;
    nextId_ += 3 * width;
    schedule(real_.now() + delay, std::make_shared<EventSpec>(spec));
    ++scheduled_;
  }

  /// `count` exact-lane timers far beyond every other event, all
  /// cancelled before any of them can fire.
  void scheduleAndCancelFarFuture(int count) {
    const std::size_t first = realHandles_.size();
    const SimTime far = real_.now() + 1'000'000'000;
    for (int i = 0; i < count; ++i) {
      schedule(far + i, std::make_shared<EventSpec>(drawSpec()));
      ++scheduled_;
    }
    for (std::size_t i = first; i < realHandles_.size(); ++i) cancel(i);
  }

  void cancelRandom() {
    if (realHandles_.empty()) return;
    cancel(rng_.nextBelow(realHandles_.size()));
  }

  void runUntilRandom() {
    const SimTime until =
        real_.now() + static_cast<SimDuration>(rng_.nextBelow(120));
    real_.runUntil(until);
    naive_.runUntil(until);
  }

  void stepBoth() {
    const bool a = real_.step();
    const bool b = naive_.step();
    ASSERT_EQ(a, b);
  }

  void drain() {
    real_.run();
    naive_.run();
  }

  void verify(int op) {
    ASSERT_EQ(firedReal_, firedNaive_) << "diverged by op " << op;
    ASSERT_EQ(real_.pendingCount(), naive_.pendingCount())
        << "pending mismatch by op " << op;
    ASSERT_EQ(real_.empty(), naive_.pendingCount() == 0)
        << "empty mismatch by op " << op;
    ASSERT_EQ(real_.now(), naive_.now());
  }

  int scheduled() const { return scheduled_; }
  const std::vector<int>& firedReal() const { return firedReal_; }
  Scheduler& real() { return real_; }

 private:
  EventSpec drawSpec() {
    EventSpec spec;
    spec.id = nextId_++;
    const std::uint64_t roll = rng_.nextBelow(100);
    if (roll < 15 && !realHandles_.empty()) {
      spec.kind = EventSpec::Kind::kCancelVictim;
      spec.victim = rng_.nextBelow(realHandles_.size());
    } else if (roll < 30) {
      spec.kind = EventSpec::Kind::kSpawnChild;
      spec.childDelay = static_cast<SimDuration>(rng_.nextBelow(10));
      spec.childId = nextId_++;
    }
    return spec;
  }

  void cancel(std::size_t i) {
    realHandles_[i].cancel();
    if (i < naiveHandles_.size()) *naiveHandles_[i] = false;
  }

  void schedule(SimTime at, const std::shared_ptr<EventSpec>& spec) {
    const bool viaWheel = mixedLanes_ && rng_.nextBelow(2) == 0;
    auto realFn = [this, spec] { fire(*spec, firedReal_, /*isReal=*/true); };
    realHandles_.push_back(viaWheel ? real_.scheduleDeadline(at, realFn)
                                    : real_.scheduleAt(at, realFn));
    naiveHandles_.push_back(naive_.scheduleAt(
        at, [this, spec] { fire(*spec, firedNaive_, /*isReal=*/false); }));
  }

  void fire(const EventSpec& spec, std::vector<int>& out, bool isReal) {
    out.push_back(spec.id);
    switch (spec.kind) {
      case EventSpec::Kind::kRecord:
        break;
      case EventSpec::Kind::kCancelVictim:
        if (isReal) {
          realHandles_[spec.victim].cancel();
        } else {
          *naiveHandles_[spec.victim] = false;
        }
        break;
      case EventSpec::Kind::kSpawnChild:
        // Reentrant scheduling: the child lands relative to the firing
        // instant, possibly inside the currently draining tick. The
        // child is a plain recorder; its parameters were drawn when the
        // parent was created, so both sides agree.
        spawnRecorder(isReal, spec.childDelay, spec.childId);
        break;
      case EventSpec::Kind::kFanOut:
        for (int i = 0; i < spec.width; ++i) {
          const int id = spec.childId + 3 * i;
          spawnRecorder(isReal, 0, id);
          spawnRecorder(isReal, 1, id + 1);
          if (i % 4 == 0) spawnRecorder(isReal, 0, id + 2, /*deadline=*/true);
        }
        break;
    }
  }

  /// Schedule a child that only records its id. On the real scheduler
  /// `deadline` routes it through scheduleDeadline; the reference keeps
  /// exact semantics for every child.
  void spawnRecorder(bool isReal, SimDuration delay, int id,
                     bool deadline = false) {
    if (!isReal) {
      naive_.scheduleAt(naive_.now() + delay,
                        [this, id] { firedNaive_.push_back(id); });
      return;
    }
    auto fn = [this, id] { firedReal_.push_back(id); };
    if (deadline) {
      real_.scheduleDeadline(real_.now() + delay, fn);
    } else {
      real_.scheduleAt(real_.now() + delay, fn);
    }
  }

  Rng rng_;
  Scheduler real_;
  NaiveScheduler naive_;
  std::vector<TimerHandle> realHandles_;
  std::vector<NaiveScheduler::Handle> naiveHandles_;
  std::vector<int> firedReal_;
  std::vector<int> firedNaive_;
  int nextId_ = 0;
  int scheduled_ = 0;
  bool mixedLanes_ = false;
};

/// Traffic the harness drives: the interleaved random mix, or one of
/// the shapes named in the file comment.
enum class Shape { kRandomMix, kBulkMonotone, kSameTickFanOut, kCancelledFarFuture };

struct DiffCase {
  Shape shape;
  std::uint64_t seed;
};

/// gtest prints the parameter into the test name: a random-mix case is
/// named by its bare seed, a shape by its name.
void PrintTo(const DiffCase& c, std::ostream* os) {
  switch (c.shape) {
    case Shape::kRandomMix:
      *os << c.seed;
      break;
    case Shape::kBulkMonotone:
      *os << "BulkMonotone";
      break;
    case Shape::kSameTickFanOut:
      *os << "SameTickFanOut";
      break;
    case Shape::kCancelledFarFuture:
      *os << "CancelledFarFuture";
      break;
  }
}

class SchedulerDifferentialTest : public ::testing::TestWithParam<DiffCase> {};

TEST_P(SchedulerDifferentialTest, MatchesNaiveReferenceOver1e5Events) {
  const DiffCase param = GetParam();
  DifferentialDriver driver(param.seed);
  Rng opRng(param.seed ^ 0xdeadbeefull);

  int op = 0;
  switch (param.shape) {
    case Shape::kRandomMix:
      while (driver.scheduled() < 100'000) {
        ++op;
        const std::uint64_t roll = opRng.nextBelow(100);
        if (roll < 70) {
          // schedule (ties are common; spawns/cancels mixed in)
          driver.scheduleTopLevel();
        } else if (roll < 85) {
          driver.cancelRandom();
        } else if (roll < 95) {
          driver.runUntilRandom();
          driver.verify(op);
        } else {
          driver.stepBoth();
        }
        if (::testing::Test::HasFatalFailure()) return;
      }
      break;
    case Shape::kBulkMonotone:
      // Everything is scheduled before the first event fires; the run()
      // below drains it.
      driver.scheduleMonotone(1 << 17);
      driver.verify(++op);
      break;
    case Shape::kSameTickFanOut:
      for (int round = 0; round < 6; ++round) {
        driver.scheduleFanOut(static_cast<SimDuration>(opRng.nextBelow(3)),
                              4096);
        for (int i = 0; i < 256; ++i) driver.scheduleTopLevel();
        // Checkpoints in the middle of the bursts, then past them.
        for (int chunk = 0; chunk < 8; ++chunk) {
          for (int i = 0; i < 512; ++i) driver.stepBoth();
          driver.verify(++op);
          if (::testing::Test::HasFatalFailure()) return;
        }
        driver.runUntilRandom();
        driver.verify(++op);
        if (::testing::Test::HasFatalFailure()) return;
      }
      break;
    case Shape::kCancelledFarFuture:
      driver.scheduleAndCancelFarFuture(1 << 14);
      driver.verify(++op);
      for (int i = 0; i < (1 << 16); ++i) {
        driver.scheduleTopLevel();
        if (i % 64 == 63) {
          driver.runUntilRandom();
          driver.verify(++op);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
      break;
  }
  if (::testing::Test::HasFatalFailure()) return;

  driver.drain();
  driver.verify(op);
  EXPECT_TRUE(driver.real().empty());
  EXPECT_GE(driver.firedReal().size(), 50'000u);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, SchedulerDifferentialTest,
    ::testing::Values(DiffCase{Shape::kRandomMix, 11},
                      DiffCase{Shape::kRandomMix, 23},
                      DiffCase{Shape::kRandomMix, 37},
                      DiffCase{Shape::kRandomMix, 59},
                      DiffCase{Shape::kBulkMonotone, 71},
                      DiffCase{Shape::kSameTickFanOut, 83},
                      DiffCase{Shape::kCancelledFarFuture, 97}));

/// Same differential harness, but half the real scheduler's events go
/// through the timing-wheel lane (scheduleDeadline) while the naive
/// reference stays exact. The firing sequences must still match event
/// for event: the wheel normalizes fire order through the global
/// (time, seq) heap at promotion, so coarse bucketing must be invisible.
class SchedulerWheelDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerWheelDifferentialTest, WheelLaneMatchesExactReference) {
  DifferentialDriver driver(GetParam(), /*mixedLanes=*/true);
  Rng opRng(GetParam() ^ 0xabad1deaull);

  int op = 0;
  while (driver.scheduled() < 100'000) {
    ++op;
    const std::uint64_t roll = opRng.nextBelow(100);
    if (roll < 70) {
      driver.scheduleTopLevel();
    } else if (roll < 85) {
      driver.cancelRandom();
    } else if (roll < 95) {
      driver.runUntilRandom();
      driver.verify(op);
    } else {
      driver.stepBoth();
    }
    if (::testing::Test::HasFatalFailure()) return;
  }

  driver.drain();
  driver.verify(op);
  EXPECT_TRUE(driver.real().empty());
  EXPECT_GE(driver.firedReal().size(), 50'000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerWheelDifferentialTest,
                         ::testing::Values(13, 29, 43, 61));

/// Deadline-band contract fuzz: every surviving deadline must fire
/// within [at, at + (at - scheduled)/8) -- one wheel-bucket granularity
/// -- across delays spanning every wheel level (1us .. ~3 days),
/// interleaved with renew-style cancellation churn.
TEST(SchedulerWheelContractTest, DeadlinesFireWithinOneBucketGranularity) {
  Rng rng(0xfeedull);
  Scheduler s;
  std::vector<TimerHandle> handles;
  int checked = 0;
  for (int i = 0; i < 20'000; ++i) {
    // Delay magnitude is log-uniform so far buckets get real coverage.
    const int bits = 1 + static_cast<int>(rng.nextBelow(38));
    const SimDuration delay =
        static_cast<SimDuration>(1 + rng.nextBelow(1ull << bits));
    const SimTime scheduledNow = s.now();
    const SimTime at = scheduledNow + delay;
    handles.push_back(s.scheduleDeadline(at, [&s, &checked, scheduledNow, at] {
      const SimDuration slack = std::max<SimDuration>(1, (at - scheduledNow) / 8);
      EXPECT_GE(s.now(), at);
      EXPECT_LT(s.now(), at + slack);
      ++checked;
    }));
    if (rng.nextBelow(3) == 0 && !handles.empty()) {
      handles[rng.nextBelow(handles.size())].cancel();
    }
    if (rng.nextBelow(8) == 0) {
      s.runUntil(s.now() + static_cast<SimDuration>(rng.nextBelow(1u << 20)));
    }
  }
  s.run();
  EXPECT_TRUE(s.empty());
  EXPECT_GT(checked, 5'000);
}

TEST(SchedulerDirectedTest, CancelDuringCallbackSameInstant) {
  Scheduler s;
  std::vector<int> order;
  TimerHandle b;
  // a fires at t=5 and cancels b, which is due at the same instant with a
  // later sequence number; b must not fire even though it is already in
  // the current drain window.
  s.scheduleAt(5, [&] {
    order.push_back(1);
    b.cancel();
  });
  b = s.scheduleAt(5, [&] { order.push_back(2); });
  s.scheduleAt(5, [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(SchedulerDirectedTest, CancelOwnHandleInsideCallbackIsNoop) {
  Scheduler s;
  int fires = 0;
  TimerHandle self;
  self = s.scheduleAt(1, [&] {
    ++fires;
    self.cancel();  // already firing: must not corrupt counters
    EXPECT_FALSE(self.pending());
  });
  s.run();
  EXPECT_EQ(fires, 1);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.pendingCount(), 0u);
}

TEST(SchedulerDirectedTest, HandleOutlivesScheduler) {
  TimerHandle kept;
  TimerHandle copy;
  {
    Scheduler s;
    kept = s.scheduleAt(10, [] {});
    copy = kept;
    EXPECT_TRUE(kept.pending());
  }
  // The scheduler (and its arena) are gone; the handles must stay inert.
  EXPECT_FALSE(kept.pending());
  EXPECT_FALSE(copy.pending());
  kept.cancel();
  copy.cancel();
}

TEST(SchedulerDirectedTest, HandleFromEarlierSlotGenerationStaysDead) {
  Scheduler s;
  int firstFires = 0;
  int secondFires = 0;
  TimerHandle first = s.scheduleAt(1, [&] { ++firstFires; });
  s.run();
  // The arena slot of `first` is recycled for a new event; the stale
  // handle must neither report pending nor cancel the newcomer.
  TimerHandle second = s.scheduleAt(2, [&] { ++secondFires; });
  EXPECT_FALSE(first.pending());
  first.cancel();
  EXPECT_TRUE(second.pending());
  s.run();
  EXPECT_EQ(firstFires, 1);
  EXPECT_EQ(secondFires, 1);
}

TEST(SchedulerDirectedTest, ManyCancelledEntriesDoNotFire) {
  Scheduler s;
  std::vector<TimerHandle> handles;
  int fires = 0;
  for (int i = 0; i < 10'000; ++i) {
    handles.push_back(s.scheduleAt(i % 97, [&] { ++fires; }));
  }
  for (std::size_t i = 0; i < handles.size(); i += 2) handles[i].cancel();
  EXPECT_EQ(s.pendingCount(), 5'000u);
  EXPECT_EQ(s.run(), 5'000);
  EXPECT_EQ(fires, 5'000);
}

}  // namespace
}  // namespace vlease::sim
