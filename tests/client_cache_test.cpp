// Tests for the shared client-side helpers: LeaseCache entries and the
// PendingReads op table (resolution, timeouts, reentrancy).
#include "proto/client_cache.h"

#include <gtest/gtest.h>

namespace vlease::proto {
namespace {

constexpr ObjectId kObj = makeObjectId(5);
constexpr ObjectId kOther = makeObjectId(6);

TEST(CacheEntryTest, DefaultInvalid) {
  LeaseCache::Entry entry;
  EXPECT_FALSE(entry.valid(0));
  EXPECT_EQ(entry.version(), kNoVersion);
}

TEST(CacheEntryTest, ValidityWindow) {
  LeaseCache::Entry entry;
  entry.hasData = true;
  entry.validUntil = sec(10);
  EXPECT_TRUE(entry.valid(sec(9)));
  EXPECT_FALSE(entry.valid(sec(10)));  // boundary: expire > now required
  entry.hasData = false;
  EXPECT_FALSE(entry.valid(sec(9)));
}

TEST(CacheEntryTest, InvalidateResets) {
  LeaseCache::Entry entry;
  entry.setVersion(3);
  entry.hasData = true;
  entry.validUntil = sec(10);
  entry.invalidate();
  EXPECT_FALSE(entry.hasData);
  EXPECT_EQ(entry.version(), kNoVersion);
  EXPECT_FALSE(entry.valid(0));
}

TEST(ClientCacheTest, FindVsEntry) {
  LeaseCache cache;
  EXPECT_EQ(cache.find(kObj), nullptr);
  cache.entry(kObj).setVersion(4);
  ASSERT_NE(cache.find(kObj), nullptr);
  EXPECT_EQ(cache.find(kObj)->version(), 4);
  cache.clear();
  EXPECT_EQ(cache.find(kObj), nullptr);
}

struct PendingFixture : ::testing::Test {
  sim::Scheduler scheduler;
  PendingReads pending{scheduler};
};

TEST_F(PendingFixture, ResolveAllHitsEveryWaiter) {
  int calls = 0;
  ReadResult seen;
  for (int i = 0; i < 3; ++i) {
    pending.add(kObj, sec(10), [&](const ReadResult& r) {
      ++calls;
      seen = r;
    });
  }
  pending.add(kOther, sec(10), [&](const ReadResult&) { ++calls; });
  EXPECT_EQ(pending.size(), 4u);

  ReadResult ok;
  ok.ok = true;
  ok.version = 9;
  pending.resolveAll(kObj, ok);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(seen.version, 9);
  EXPECT_EQ(pending.size(), 1u);
  EXPECT_FALSE(pending.waitingOn(kObj));
  EXPECT_TRUE(pending.waitingOn(kOther));
}

TEST_F(PendingFixture, TimeoutFailsTheRead) {
  bool resolved = false;
  pending.add(kObj, sec(10), [&](const ReadResult& r) {
    resolved = true;
    EXPECT_FALSE(r.ok);
  });
  scheduler.runUntil(sec(9));
  EXPECT_FALSE(resolved);
  scheduler.runUntil(sec(10));
  EXPECT_TRUE(resolved);
  EXPECT_EQ(pending.size(), 0u);
}

TEST_F(PendingFixture, ResolutionCancelsTimeout) {
  int calls = 0;
  pending.add(kObj, sec(10), [&](const ReadResult&) { ++calls; });
  pending.resolveAll(kObj, ReadResult{true, false, false, 1});
  scheduler.runUntil(sec(20));
  EXPECT_EQ(calls, 1);  // the timer must not fire a second resolution
}

TEST_F(PendingFixture, ResolveOneLeavesOthers) {
  int calls = 0;
  auto t1 = pending.add(kObj, sec(10), [&](const ReadResult&) { ++calls; });
  pending.add(kObj, sec(10), [&](const ReadResult&) { ++calls; });
  pending.resolveOne(t1, ReadResult{});
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(pending.waitingOn(kObj));
  EXPECT_EQ(pending.tokensFor(kObj).size(), 1u);
  pending.resolveOne(t1, ReadResult{});  // double resolve is a no-op
  EXPECT_EQ(calls, 1);
}

TEST_F(PendingFixture, ReentrantAddDuringResolution) {
  // A callback that issues a new read on the same object must not be
  // resolved by the same resolveAll sweep, and must not corrupt the
  // table.
  int outer = 0, inner = 0;
  pending.add(kObj, sec(10), [&](const ReadResult&) {
    ++outer;
    pending.add(kObj, sec(10), [&](const ReadResult&) { ++inner; });
  });
  pending.resolveAll(kObj, ReadResult{true, false, false, 1});
  EXPECT_EQ(outer, 1);
  EXPECT_EQ(inner, 0);
  EXPECT_TRUE(pending.waitingOn(kObj));
  pending.resolveAll(kObj, ReadResult{true, false, false, 1});
  EXPECT_EQ(inner, 1);
}

TEST_F(PendingFixture, ManyOpsManyObjects) {
  int calls = 0;
  for (std::uint64_t o = 0; o < 50; ++o) {
    pending.add(makeObjectId(o), sec(10),
                [&](const ReadResult&) { ++calls; });
  }
  for (std::uint64_t o = 0; o < 50; o += 2) {
    pending.resolveAll(makeObjectId(o), ReadResult{true, false, false, 1});
  }
  EXPECT_EQ(calls, 25);
  scheduler.runUntil(sec(10));  // the rest time out
  EXPECT_EQ(calls, 50);
  EXPECT_EQ(pending.size(), 0u);
}

}  // namespace
}  // namespace vlease::proto
