// Tests for finite (LRU) client caches and Liu-Cao invalidation
// retransmission.
#include <gtest/gtest.h>

#include "core/volume_server.h"
#include "driver/simulation.h"
#include "driver/workloads.h"
#include "proto/client_cache.h"
#include "proto_fixture.h"
#include "util/rng.h"

namespace vlease {
namespace {

using proto::Algorithm;
using proto::LeaseCache;
using proto::ProtocolConfig;
using testing::ProtoHarness;

// ---------------------------------------------------------------------
// LeaseCache LRU mechanics
// ---------------------------------------------------------------------

TEST(LruCacheTest, UnboundedByDefault) {
  LeaseCache cache;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    cache.entry(makeObjectId(i)).hasData = true;
  }
  EXPECT_EQ(cache.size(), 1000u);
  EXPECT_EQ(cache.evictions(), 0);
}

TEST(LruCacheTest, CapacityEnforced) {
  LeaseCache cache(3);
  for (std::uint64_t i = 0; i < 10; ++i) {
    cache.entry(makeObjectId(i)).hasData = true;
  }
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 7);
  // The three most recent survive.
  EXPECT_NE(cache.find(makeObjectId(9)), nullptr);
  EXPECT_NE(cache.find(makeObjectId(8)), nullptr);
  EXPECT_NE(cache.find(makeObjectId(7)), nullptr);
  EXPECT_EQ(cache.find(makeObjectId(6)), nullptr);
}

TEST(LruCacheTest, TouchProtectsFromEviction) {
  LeaseCache cache(2);
  cache.entry(makeObjectId(1)).hasData = true;
  cache.entry(makeObjectId(2)).hasData = true;
  cache.touch(makeObjectId(1));        // 1 is now most recent
  cache.entry(makeObjectId(3));        // evicts 2, not 1
  EXPECT_NE(cache.find(makeObjectId(1)), nullptr);
  EXPECT_EQ(cache.find(makeObjectId(2)), nullptr);
}

TEST(LruCacheTest, InvalidateNeitherInsertsNorRefreshes) {
  LeaseCache cache(2);
  cache.entry(makeObjectId(1)).hasData = true;
  cache.entry(makeObjectId(2)).hasData = true;
  cache.invalidate(makeObjectId(3));  // not held: stays absent
  EXPECT_EQ(cache.find(makeObjectId(3)), nullptr);
  EXPECT_EQ(cache.size(), 2u);
  cache.invalidate(makeObjectId(1));  // held: emptied, recency unchanged
  ASSERT_NE(cache.find(makeObjectId(1)), nullptr);
  EXPECT_FALSE(cache.find(makeObjectId(1))->hasData);
  cache.entry(makeObjectId(3));  // evicts 1, the least recently used
  EXPECT_EQ(cache.find(makeObjectId(1)), nullptr);
  EXPECT_NE(cache.find(makeObjectId(2)), nullptr);
}

TEST(LruCacheTest, ReinsertAfterEviction) {
  LeaseCache cache(1);
  cache.entry(makeObjectId(1)).setVersion(5);
  cache.entry(makeObjectId(2)).setVersion(6);
  EXPECT_EQ(cache.find(makeObjectId(1)), nullptr);
  // Re-inserting 1 starts from a fresh entry, not a stale one.
  EXPECT_EQ(cache.entry(makeObjectId(1)).version(), kNoVersion);
}

TEST(LruCacheTest, ClearResetsEverything) {
  LeaseCache cache(4);
  for (std::uint64_t i = 0; i < 8; ++i) cache.entry(makeObjectId(i));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  for (std::uint64_t i = 0; i < 8; ++i) {
    cache.entry(makeObjectId(i));  // must not trip the LRU bookkeeping
  }
  EXPECT_EQ(cache.size(), 4u);
}

TEST(LruCacheTest, ForEachVisitsAllEntries) {
  LeaseCache cache(8);
  for (std::uint64_t i = 0; i < 5; ++i) {
    cache.entry(makeObjectId(i)).hasData = true;
  }
  int visited = 0;
  cache.forEach([&](ObjectId, const LeaseCache::Entry& e) {
    EXPECT_TRUE(e.hasData);
    ++visited;
  });
  EXPECT_EQ(visited, 5);
}

// ---------------------------------------------------------------------
// finite caches under the protocols
// ---------------------------------------------------------------------

ProtocolConfig volumeCfg(std::size_t capacity) {
  ProtocolConfig config;
  config.algorithm = Algorithm::kVolumeLease;
  config.objectTimeout = sec(100'000);
  config.volumeTimeout = sec(100);
  config.clientCacheCapacity = capacity;
  return config;
}

TEST(FiniteCacheTest, EvictedObjectRefetches) {
  ProtoHarness h(volumeCfg(2), 1, 1, /*objectsPerVolume=*/4);
  h.read(0, 0);
  h.read(0, 1);
  h.read(0, 2);  // evicts object 0
  auto r = h.read(0, 0);
  EXPECT_TRUE(r.usedNetwork);
  EXPECT_TRUE(r.fetchedData);  // capacity miss: full refetch
}

TEST(FiniteCacheTest, WorkingSetWithinCapacityStillHits) {
  ProtoHarness h(volumeCfg(4), 1, 1, 4);
  for (std::uint64_t o = 0; o < 4; ++o) h.read(0, o);
  for (std::uint64_t o = 0; o < 4; ++o) {
    EXPECT_FALSE(h.read(0, o).usedNetwork) << o;
  }
}

TEST(FiniteCacheTest, SmallerCachesCostMoreMessages) {
  driver::WorkloadOptions opts;
  opts.scale = 0.01;
  opts.numServers = 50;
  driver::Workload workload = driver::buildWorkload(opts);
  std::int64_t prev = std::numeric_limits<std::int64_t>::max();
  for (std::size_t capacity : {std::size_t{4}, std::size_t{64},
                               std::size_t{0} /* infinite */}) {
    driver::Simulation sim(workload.catalog, volumeCfg(capacity));
    const std::int64_t messages = sim.run(workload.events).totalMessages();
    EXPECT_LE(messages, prev) << "capacity " << capacity;
    prev = messages;
  }
}

TEST(FiniteCacheTest, ConsistencyHoldsUnderEvictionChurn) {
  // Tiny caches force constant eviction/refetch alongside writes and
  // invalidations; nothing may ever be stale.
  for (Algorithm algorithm :
       {Algorithm::kLease, Algorithm::kVolumeLease,
        Algorithm::kVolumeDelayedInval}) {
    ProtocolConfig config = volumeCfg(2);
    config.algorithm = algorithm;
    ProtoHarness h(config, 1, 2, /*objectsPerVolume=*/6);
    Rng rng(31 + static_cast<std::uint64_t>(algorithm));
    SimTime t = 0;
    for (int op = 0; op < 400; ++op) {
      t += static_cast<SimDuration>(
          rng.nextExponential(static_cast<double>(sec(5))));
      h.sim->drainTo(t);
      const auto obj = makeObjectId(rng.nextBelow(6));
      if (rng.nextBool(0.25)) {
        h.sim->issueWrite(obj);
      } else {
        h.sim->issueRead(
            h.client(static_cast<std::uint32_t>(rng.nextBelow(2))), obj);
      }
    }
    h.sim->finish();
    EXPECT_EQ(h.metrics().staleReads(), 0) << proto::algorithmName(algorithm);
    EXPECT_EQ(h.metrics().failedReads(), 0) << proto::algorithmName(algorithm);
  }
}

TEST(FiniteCacheTest, EvictionForgettingLeaseIsSafeOnWrite) {
  // The server still believes the evicted client holds a lease; the
  // invalidation goes out, the client acks an object it no longer has,
  // and the write commits normally.
  ProtoHarness h(volumeCfg(1), 1, 1, 3);
  h.read(0, 0);
  h.read(0, 1);  // evicts object 0 client-side
  auto w = h.write(0);
  EXPECT_EQ(w.delay, 0);  // ack arrived despite the missing entry
  EXPECT_FALSE(w.blocked);
}

TEST(FiniteCacheTest, InvalidationOfUncachedObjectEvictsNothing) {
  // The server still holds a lease on an object the client evicted. Its
  // invalidation must not re-insert that object into the full cache and
  // push out one the client still holds.
  ProtocolConfig config = volumeCfg(2);
  config.algorithm = Algorithm::kLease;
  ProtoHarness h(config, 1, 1, 3);
  h.read(0, 2);
  h.read(0, 0);
  h.read(0, 1);  // evicts object 2 client-side
  h.write(2);    // invalidates the uncached object 2
  EXPECT_FALSE(h.read(0, 0).usedNetwork);
  EXPECT_FALSE(h.read(0, 1).usedNetwork);
}

// ---------------------------------------------------------------------
// Liu-Cao retransmission
// ---------------------------------------------------------------------

ProtocolConfig liuCaoCfg(int retries) {
  ProtocolConfig config;
  config.algorithm = Algorithm::kBestEffortLease;
  config.objectTimeout = sec(10'000);
  config.bestEffortRetries = retries;
  config.retryInterval = sec(30);
  return config;
}

TEST(LiuCaoTest, RetransmitRepairsLostInvalidation) {
  ProtoHarness h(liuCaoCfg(3));
  h.read(0, 0);
  h.network().failures().isolate(h.client(0));
  h.write(0);  // first invalidation dropped
  h.network().failures().deisolate(h.client(0));

  // Before the retry fires: stale.
  h.advanceTo(h.scheduler().now() + sec(10));
  EXPECT_EQ(h.read(0, 0).version, 1);
  EXPECT_EQ(h.metrics().staleReads(), 1);

  // The 30 s retransmission lands and the cache is repaired -- staleness
  // window ~retryInterval instead of the full 10'000 s lease.
  h.advanceTo(h.scheduler().now() + sec(35));
  auto r = h.read(0, 0);
  EXPECT_EQ(r.version, 2);
  EXPECT_EQ(h.metrics().staleReads(), 1);
}

TEST(LiuCaoTest, AckStopsRetransmission) {
  ProtoHarness h(liuCaoCfg(5));
  h.read(0, 0);
  const std::int64_t before = h.metrics().totalMessages();
  h.write(0);  // delivered; client acks immediately
  h.advanceTo(h.scheduler().now() + sec(300));  // several retry intervals
  // Exactly one invalidation + one ack -- no retransmissions.
  EXPECT_EQ(h.metrics().totalMessages(), before + 2);
}

TEST(LiuCaoTest, RetryBudgetBounded) {
  ProtoHarness h(liuCaoCfg(3));
  h.read(0, 0);
  h.network().failures().isolate(h.client(0));
  const std::int64_t before = h.metrics().totalMessages();
  h.write(0);
  h.advanceTo(h.scheduler().now() + sec(500));  // all retries elapsed
  // 1 original + 3 retransmissions, all counted at the sender.
  EXPECT_EQ(h.metrics().totalMessages(), before + 4);
}

TEST(LiuCaoTest, WithoutRetriesClientsDoNotAck) {
  ProtoHarness h(liuCaoCfg(0));
  h.read(0, 0);
  const std::int64_t before = h.metrics().totalMessages();
  h.write(0);
  h.advanceTo(h.scheduler().now() + sec(300));
  EXPECT_EQ(h.metrics().totalMessages(), before + 1);  // invalidation only
}

TEST(LiuCaoTest, NewWriteSupersedesRetryChain) {
  ProtoHarness h(liuCaoCfg(2));
  h.read(0, 0);
  h.network().failures().isolate(h.client(0));
  h.write(0);
  h.advanceTo(h.scheduler().now() + sec(5));
  h.write(0);  // resets the retry budget for the same (obj, client)
  h.network().failures().deisolate(h.client(0));
  h.advanceTo(h.scheduler().now() + sec(100));
  auto r = h.read(0, 0);  // repaired by the superseding chain
  EXPECT_EQ(r.version, 3);
}

TEST(LiuCaoTest, StillWeakUnderLongPartition) {
  // The paper's §6 point about Liu & Cao: retransmission helps but
  // cannot guarantee strong consistency across a partition.
  ProtoHarness h(liuCaoCfg(2));
  h.read(0, 0);
  h.network().failures().isolate(h.client(0));
  h.write(0);
  // Stay partitioned past the whole retry budget...
  h.advanceTo(h.scheduler().now() + sec(200));
  h.network().failures().deisolate(h.client(0));
  // ...the client still serves the stale copy (lease runs to 10'000 s).
  EXPECT_EQ(h.read(0, 0).version, 1);
  EXPECT_EQ(h.metrics().staleReads(), 1);
}

}  // namespace
}  // namespace vlease
