// Randomized stress test of the event scheduler against a brute-force
// reference model: interleaved schedule / cancel / step / runUntil
// operations must produce exactly the firing sequence the reference
// predicts (time order, FIFO within a tick, cancelled events skipped).
// Half the events come with a far-future give-up timer, and most of
// those are cancelled long before they come due.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/scheduler.h"
#include "util/rng.h"

namespace vlease::sim {
namespace {

/// Reference model: a plain vector of (time, seq, id, cancelled).
struct RefEvent {
  SimTime at;
  std::uint64_t seq;
  int id;
  bool cancelled = false;
  bool fired = false;
};

class SchedulerStressTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerStressTest, MatchesReferenceModel) {
  Rng rng(GetParam());
  Scheduler scheduler;
  std::vector<RefEvent> ref;
  std::vector<TimerHandle> handles;
  std::vector<int> fired;          // actual firing order (ids)
  std::vector<std::size_t> giveUps;  // handle indices of give-up timers
  std::size_t nextGiveUp = 0;        // oldest give-up timer not yet cancelled
  std::uint64_t seq = 0;
  int nextId = 0;

  auto refFireUpTo = [&](SimTime until, std::vector<int>* out) {
    // Collect uncancelled, unfired events with at <= until, in
    // (at, seq) order.
    std::vector<RefEvent*> due;
    for (auto& e : ref) {
      if (!e.cancelled && !e.fired && e.at <= until) due.push_back(&e);
    }
    std::sort(due.begin(), due.end(), [](const RefEvent* a, const RefEvent* b) {
      if (a->at != b->at) return a->at < b->at;
      return a->seq < b->seq;
    });
    for (RefEvent* e : due) {
      e->fired = true;
      out->push_back(e->id);
    }
  };

  std::vector<int> expected;
  for (int op = 0; op < 2000; ++op) {
    switch (rng.nextBelow(10)) {
      case 0:
      case 1:
      case 2:
      case 3:
      case 4: {  // schedule at now + random delay (ties are common)
        const SimDuration delay =
            static_cast<SimDuration>(rng.nextBelow(50));
        const SimTime at = scheduler.now() + delay;
        const int id = nextId++;
        handles.push_back(
            scheduler.scheduleAt(at, [&fired, id]() { fired.push_back(id); }));
        ref.push_back(RefEvent{at, seq++, id});
        // Half the events also arm a far-future give-up timer, the way
        // every request arms a timeout that its reply usually cancels.
        if (rng.nextBelow(2) == 0) {
          const SimTime giveUpAt =
              at + 1'000 + static_cast<SimDuration>(rng.nextBelow(1u << 20));
          const int giveUpId = nextId++;
          giveUps.push_back(handles.size());
          handles.push_back(scheduler.scheduleAt(
              giveUpAt, [&fired, giveUpId]() { fired.push_back(giveUpId); }));
          ref.push_back(RefEvent{giveUpAt, seq++, giveUpId});
        }
        break;
      }
      case 5:
      case 6: {  // cancel the oldest give-up timer, or a random handle
        if (handles.empty()) break;
        const std::size_t i =
            nextGiveUp < giveUps.size() && rng.nextBelow(2) == 0
                ? giveUps[nextGiveUp++]
                : rng.nextBelow(handles.size());
        handles[i].cancel();
        if (!ref[i].fired) ref[i].cancelled = true;
        break;
      }
      case 7:
      case 8: {  // runUntil a random future time
        const SimTime until =
            scheduler.now() + static_cast<SimDuration>(rng.nextBelow(80));
        refFireUpTo(until, &expected);
        scheduler.runUntil(until);
        EXPECT_GE(scheduler.now(), until);
        break;
      }
      case 9: {  // single step
        std::vector<int> one;
        // Reference: the earliest due event overall.
        refFireUpTo(kSimTimeMax, &one);
        if (!one.empty()) {
          // Only the first fires on step(); un-fire the rest.
          expected.push_back(one.front());
          for (std::size_t i = 1; i < one.size(); ++i) {
            for (auto& e : ref) {
              if (e.id == one[i]) e.fired = false;
            }
          }
          EXPECT_TRUE(scheduler.step());
        } else {
          EXPECT_FALSE(scheduler.step());
        }
        break;
      }
    }
    ASSERT_EQ(fired, expected) << "diverged at op " << op;
  }

  // Drain everything.
  refFireUpTo(kSimTimeMax, &expected);
  scheduler.run();
  EXPECT_EQ(fired, expected);
  EXPECT_TRUE(scheduler.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerStressTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace vlease::sim
