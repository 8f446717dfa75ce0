// Tests for util::LifoIndexMap -- the dense holder table behind the
// volume server: LIFO iteration plus the grant order the expiry sweep
// pops from.
#include "util/lifo_index_map.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace vlease::util {
namespace {

std::vector<std::uint32_t> iterationOrder(const LifoIndexMap<int>& m) {
  std::vector<std::uint32_t> keys;
  m.forEach([&](std::uint32_t key, const int&) { keys.push_back(key); });
  return keys;
}

/// Empties `m` from the oldest end, returning the grant order.
std::vector<std::uint32_t> drainGrantOrder(LifoIndexMap<int>& m) {
  std::vector<std::uint32_t> keys;
  for (auto e = m.oldest(); e.value != nullptr; e = m.oldest()) {
    keys.push_back(e.key);
    m.erase(e.key);
  }
  return keys;
}

TEST(LifoIndexMapTest, EmptyMapHasNoOldestOrNewest) {
  LifoIndexMap<int> m;
  EXPECT_EQ(m.oldest().value, nullptr);
  EXPECT_EQ(m.oldest().key, kNilIdx);
  EXPECT_EQ(m.newest().value, nullptr);
}

TEST(LifoIndexMapTest, TouchMovesGrantOrderButNotIteration) {
  LifoIndexMap<int> m;
  for (std::uint32_t k : {1u, 2u, 3u}) *m.tryEmplace(k).first = int(k) * 10;
  EXPECT_EQ(m.oldest().key, 1u);
  EXPECT_EQ(m.newest().key, 3u);

  m.touch(1);
  EXPECT_EQ(m.oldest().key, 2u);
  EXPECT_EQ(m.newest().key, 1u);
  EXPECT_EQ(*m.newest().value, 10);
  m.touch(1);  // already newest: no-op
  EXPECT_EQ(m.newest().key, 1u);

  // Re-emplacing an existing key moves neither order.
  EXPECT_FALSE(m.tryEmplace(2).second);
  EXPECT_EQ(m.oldest().key, 2u);

  EXPECT_EQ(iterationOrder(m), (std::vector<std::uint32_t>{3, 2, 1}));
  EXPECT_EQ(drainGrantOrder(m), (std::vector<std::uint32_t>{2, 3, 1}));
  EXPECT_TRUE(m.empty());
}

TEST(LifoIndexMapTest, EraseAndClearUnlinkGrantOrder) {
  LifoIndexMap<int> m;
  for (std::uint32_t k = 0; k < 5; ++k) m.tryEmplace(k);
  m.erase(0);  // oldest
  m.erase(2);  // middle
  m.erase(4);  // newest
  EXPECT_EQ(m.oldest().key, 1u);
  EXPECT_EQ(m.newest().key, 3u);
  EXPECT_EQ(iterationOrder(m), (std::vector<std::uint32_t>{3, 1}));

  m.clear();
  EXPECT_EQ(m.oldest().value, nullptr);
  EXPECT_EQ(m.newest().value, nullptr);
  // Slots recycled after clear() start fresh in both orders.
  for (std::uint32_t k : {7u, 3u}) m.tryEmplace(k);
  EXPECT_EQ(iterationOrder(m), (std::vector<std::uint32_t>{3, 7}));
  EXPECT_EQ(drainGrantOrder(m), (std::vector<std::uint32_t>{7, 3}));
}

/// Random insert/touch/erase/clear against a two-vector model: the
/// LIFO iteration order and the grant order must both match after
/// every operation.
TEST(LifoIndexMapTest, RandomOpsMatchModel) {
  Rng rng(15);
  LifoIndexMap<int> m;
  std::vector<std::uint32_t> lifo;   // front = newest insertion
  std::vector<std::uint32_t> grant;  // front = oldest grant
  auto drop = [](std::vector<std::uint32_t>& v, std::uint32_t key) {
    v.erase(std::find(v.begin(), v.end(), key));
  };
  for (int op = 0; op < 20000; ++op) {
    const auto key = static_cast<std::uint32_t>(rng.nextBelow(32));
    const bool present = m.contains(key);
    const auto roll = rng.nextBelow(1000);
    if (roll == 0) {
      m.clear();
      lifo.clear();
      grant.clear();
    } else if (roll < 400) {
      const bool inserted = m.tryEmplace(key).second;
      EXPECT_EQ(inserted, !present);
      if (inserted) {
        lifo.insert(lifo.begin(), key);
        grant.push_back(key);
      }
    } else if (roll < 700) {
      if (!present) continue;
      m.touch(key);
      drop(grant, key);
      grant.push_back(key);
    } else {
      EXPECT_EQ(m.erase(key), present);
      if (present) {
        drop(lifo, key);
        drop(grant, key);
      }
    }
    ASSERT_EQ(iterationOrder(m), lifo) << "op " << op;
    ASSERT_EQ(m.size(), grant.size());
    if (!grant.empty()) {
      ASSERT_EQ(m.oldest().key, grant.front()) << "op " << op;
      ASSERT_EQ(m.newest().key, grant.back()) << "op " << op;
    }
  }
  EXPECT_EQ(drainGrantOrder(m), grant);
}

}  // namespace
}  // namespace vlease::util
