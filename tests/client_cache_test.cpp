// Tests for the shared client-side helpers: LeaseCache entries and the
// PendingReads op table (resolution, timeouts, reentrancy).
#include "proto/client_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "util/rng.h"

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

TEST(ClientCacheTest, FootprintTracksHeldPagesNotTheCatalog) {
  // A client's slice of a 512-object catalog: 25 ids in five runs of
  // five, spread over 0..511. Five 16-id pages hold them.
  LeaseCache cache;
  for (const std::uint64_t base : {3, 130, 250, 377, 501}) {
    for (std::uint64_t k = 0; k < 5; ++k) cache.entry(makeObjectId(base + k));
  }
  EXPECT_EQ(cache.size(), 25u);
  EXPECT_LT(cache.memoryBytes(), 4096u);

  // Fully scattered, one page per id, it still reserves less than a
  // catalog-wide array of 24-byte entries would (512 x 24 B).
  LeaseCache scattered;
  for (std::uint64_t i = 0; i < 25; ++i) scattered.entry(makeObjectId(i * 20));
  EXPECT_EQ(scattered.size(), 25u);
  EXPECT_LT(scattered.memoryBytes(), 512u * 24u);

  const std::size_t before = cache.memoryBytes();
  cache.clear();  // keeps the storage
  EXPECT_EQ(cache.memoryBytes(), before);
  cache.releaseMemory();
  EXPECT_EQ(cache.memoryBytes(), 0u);
}

/// The naive model LeaseCache must match: held ids in insertion order,
/// ids in recency order, and an id -> Entry map.
struct NaiveCache {
  explicit NaiveCache(std::size_t cap) : capacity(cap) {}

  LeaseCache::Entry* find(std::uint64_t id) {
    const auto it = entries.find(id);
    return it == entries.end() ? nullptr : &it->second;
  }
  void use(std::uint64_t id) {
    recency.erase(std::find(recency.begin(), recency.end(), id));
    recency.push_back(id);
  }
  LeaseCache::Entry& entry(std::uint64_t id) {
    if (find(id) != nullptr) {
      use(id);
      return entries[id];
    }
    entries[id] = LeaseCache::Entry{};
    entries[id].present = true;
    held.push_back(id);
    recency.push_back(id);
    if (capacity > 0 && held.size() > capacity) {
      const std::uint64_t victim = recency.front();
      recency.erase(recency.begin());
      held.erase(std::find(held.begin(), held.end(), victim));
      entries.erase(victim);
      ++evictions;
    }
    return entries[id];
  }
  void touch(std::uint64_t id) {
    if (find(id) != nullptr) use(id);
  }
  void invalidate(std::uint64_t id) {
    if (LeaseCache::Entry* e = find(id)) e->invalidate();
  }
  void clear() {
    held.clear();
    recency.clear();
    entries.clear();
  }

  std::size_t capacity;
  std::vector<std::uint64_t> held;     // oldest insertion first
  std::vector<std::uint64_t> recency;  // least recently used first
  std::map<std::uint64_t, LeaseCache::Entry> entries;
  std::int64_t evictions = 0;
};

using EntryFields = std::tuple<std::uint64_t, SimTime, std::int32_t, bool,
                               bool, bool>;

EntryFields fields(std::uint64_t id, const LeaseCache::Entry& e) {
  return {id, e.validUntil, e.version32, e.present, e.hasData,
          e.lastGrantCarriedData};
}

class LeaseCacheDifferentialTest
    : public ::testing::TestWithParam<std::size_t> {};

// Random entry/touch/invalidate/clear/releaseMemory sequences over ids
// that straddle 16-id page boundaries and reach far past the catalog
// sizes the simulations use: every find() and the whole forEach
// sequence (newest insertion first) must match the naive model.
TEST_P(LeaseCacheDifferentialTest, MatchesNaiveModel) {
  std::vector<std::uint64_t> ids;
  for (std::uint64_t i = 0; i < 40; ++i) ids.push_back(i);
  for (const std::uint64_t i : {63, 64, 65, 511, 512, 1000, 4097, 70001}) {
    ids.push_back(i);
  }
  for (const std::uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    LeaseCache cache(GetParam());
    NaiveCache model(GetParam());
    for (int op = 0; op < 4000; ++op) {
      const std::uint64_t id = ids[rng.nextBelow(ids.size())];
      const ObjectId obj = makeObjectId(id);
      const std::uint64_t kind = rng.nextBelow(40);
      if (kind < 18) {
        LeaseCache::Entry& e = cache.entry(obj);
        LeaseCache::Entry& m = model.entry(id);
        const bool data = rng.nextBool(0.5);
        const bool carried = rng.nextBool(0.5);
        const Version version = static_cast<Version>(rng.nextBelow(1000));
        const SimTime until = static_cast<SimTime>(rng.nextBelow(1000));
        for (LeaseCache::Entry* x : {&e, &m}) {
          x->hasData = data;
          x->lastGrantCarriedData = carried;
          x->setVersion(version);
          x->validUntil = until;
        }
      } else if (kind < 26) {
        cache.touch(obj);
        model.touch(id);
      } else if (kind < 32) {
        cache.invalidate(obj);
        model.invalidate(id);
      } else if (kind == 38) {
        cache.clear();
        model.clear();
      } else if (kind == 39) {
        cache.releaseMemory();
        model.clear();
      }  // otherwise only compare

      for (const std::uint64_t probe : ids) {
        const LeaseCache::Entry* e = cache.find(makeObjectId(probe));
        const LeaseCache::Entry* m = model.find(probe);
        ASSERT_EQ(e == nullptr, m == nullptr) << "op " << op << " id " << probe;
        if (e != nullptr) {
          ASSERT_EQ(fields(probe, *e), fields(probe, *m))
              << "op " << op << " id " << probe;
        }
      }
      std::vector<EntryFields> seen, expected;
      cache.forEach([&](ObjectId o, const LeaseCache::Entry& e) {
        seen.push_back(fields(raw(o), e));
      });
      for (auto it = model.held.rbegin(); it != model.held.rend(); ++it) {
        expected.push_back(fields(*it, model.entries[*it]));
      }
      ASSERT_EQ(seen, expected) << "op " << op;
      ASSERT_EQ(cache.size(), model.held.size()) << "op " << op;
      ASSERT_EQ(cache.evictions(), model.evictions) << "op " << op;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, LeaseCacheDifferentialTest,
                         ::testing::Values(0, 1, 3, 64));

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
  EXPECT_EQ(pending.size(), 1u);
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
