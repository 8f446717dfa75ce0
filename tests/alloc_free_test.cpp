// Verifies the zero-allocation contracts: after warm-up (arena, heap
// array, delivery ring, metrics tables, and protocol slot pools at
// capacity), scheduleAt/run, SimNetwork::send with and without latency,
// and a full volume-lease read/write/invalidate/ack replay perform zero
// heap allocations.
//
// The hook is a counting override of the global operator new; it only
// counts, so it is safe binary-wide, and each measurement window
// contains no gtest assertions (gtest allocates freely).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "core/volume_client.h"
#include "core/volume_server.h"
#include "net/message.h"
#include "net/sim_network.h"
#include "sim/scheduler.h"
#include "stats/metrics.h"
#include "trace/catalog.h"
#include "trace/stream.h"

namespace {
std::int64_t g_newCalls = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_newCalls;
  void* p = std::malloc(n ? n : 1);
  if (!p) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  ++g_newCalls;
  void* p = std::aligned_alloc(static_cast<std::size_t>(a),
                               (n + static_cast<std::size_t>(a) - 1) &
                                   ~(static_cast<std::size_t>(a) - 1));
  if (!p) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return ::operator new(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace vlease {
namespace {

constexpr int kEvents = 4096;

TEST(AllocFreeTest, SchedulerSteadyStateIsAllocationFree) {
  sim::Scheduler s;
  long long sink = 0;
  // Warm-up: grow the slot arena and heap array to capacity, twice so
  // free-list recycling is exercised before measuring.
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < kEvents; ++i) {
      s.scheduleAfter(i % 7, [&sink] { ++sink; });
    }
    s.run();
  }

  const std::int64_t before = g_newCalls;
  for (int i = 0; i < kEvents; ++i) {
    s.scheduleAfter(i % 7, [&sink] { ++sink; });
  }
  s.run();
  const std::int64_t after = g_newCalls;

  EXPECT_EQ(after - before, 0)
      << "scheduleAt/run allocated in steady state";
  EXPECT_EQ(sink, 3 * kEvents);
}

TEST(AllocFreeTest, SchedulerCancelIsAllocationFree) {
  sim::Scheduler s;
  std::vector<sim::TimerHandle> handles(kEvents);
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < kEvents; ++i) {
      handles[static_cast<std::size_t>(i)] = s.scheduleAfter(i % 5, [] {});
    }
    for (auto& h : handles) h.cancel();
    s.run();
  }

  const std::int64_t before = g_newCalls;
  for (int i = 0; i < kEvents; ++i) {
    handles[static_cast<std::size_t>(i)] = s.scheduleAfter(i % 5, [] {});
  }
  for (auto& h : handles) h.cancel();
  s.run();
  const std::int64_t after = g_newCalls;

  EXPECT_EQ(after - before, 0) << "schedule+cancel allocated in steady state";
  EXPECT_TRUE(s.empty());
}

TEST(AllocFreeTest, SchedulerDeadlineLaneIsAllocationFree) {
  // Far deadlines that are mostly cancelled (the lease-renewal
  // lifecycle), plus a drained remainder. Cancels remove heap nodes and
  // recycle slots eagerly, so steady state allocates nothing.
  sim::Scheduler s;
  std::vector<sim::TimerHandle> handles(kEvents);
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < kEvents; ++i) {
      handles[static_cast<std::size_t>(i)] =
          s.scheduleAfter(sec(30) + i % 7, [] {});
    }
    for (int i = 0; i < kEvents; i += 2) {
      handles[static_cast<std::size_t>(i)].cancel();
    }
    s.run();
  }

  const std::int64_t before = g_newCalls;
  for (int i = 0; i < kEvents; ++i) {
    handles[static_cast<std::size_t>(i)] =
        s.scheduleAfter(sec(30) + i % 7, [] {});
  }
  for (int i = 0; i < kEvents; i += 2) {
    handles[static_cast<std::size_t>(i)].cancel();
  }
  s.run();
  const std::int64_t after = g_newCalls;

  EXPECT_EQ(after - before, 0) << "far schedule+cancel allocated in steady state";
  EXPECT_TRUE(s.empty());
}

class CountingSink final : public net::MessageSink {
 public:
  void deliver(const net::Message&) override { ++delivered; }
  int delivered = 0;
};

TEST(AllocFreeTest, NetworkSendSteadyStateIsAllocationFree) {
  sim::Scheduler scheduler;
  stats::Metrics metrics;
  net::SimNetwork network(scheduler, metrics);
  CountingSink a, b;
  const NodeId na = makeNodeId(0), nb = makeNodeId(1);
  network.attach(na, &a);
  network.attach(nb, &b);

  auto sendOne = [&](int i) {
    net::Message m{i % 2 ? na : nb, i % 2 ? nb : na,
                   net::AckInvalidate{makeObjectId(7)}};
    network.send(std::move(m));
  };
  // Warm-up: metrics node tables, scheduler arena, heap array.
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < kEvents; ++i) sendOne(i);
    scheduler.run();
  }

  const std::int64_t before = g_newCalls;
  for (int i = 0; i < kEvents; ++i) sendOne(i);
  scheduler.run();
  const std::int64_t after = g_newCalls;

  EXPECT_EQ(after - before, 0) << "SimNetwork::send allocated in steady state";
  EXPECT_EQ(a.delivered + b.delivered, 3 * kEvents);
}

/// Answers every message by sending one back: a fixed number of
/// request/response chains that never end.
class EchoSink final : public net::MessageSink {
 public:
  explicit EchoSink(net::SimNetwork& network) : network_(network) {}
  void deliver(const net::Message& m) override {
    ++delivered;
    network_.send(net::Message{m.to, m.from, m.payload});
  }
  int delivered = 0;

 private:
  net::SimNetwork& network_;
};

// With real latency every delivery is posted to the scheduler's delivery
// FIFO. Echoing chains keep it from ever emptying, so a FIFO that could
// only reclaim its space by draining would grow through the window.
TEST(AllocFreeTest, NetworkSendWithLatencyIsAllocationFree) {
  constexpr int kChains = 200;  // in flight at once: a 256-node ring
  constexpr int kRounds = 40;   // 8000 deliveries, over 4x the ring
  sim::Scheduler scheduler;
  stats::Metrics metrics;
  net::SimNetwork network(scheduler, metrics);
  network.setLatency(msec(5));
  EchoSink a(network), b(network);
  const NodeId na = makeNodeId(0), nb = makeNodeId(1);
  network.attach(na, &a);
  network.attach(nb, &b);
  for (int i = 0; i < kChains; ++i) {
    network.send(net::Message{i % 2 ? na : nb, i % 2 ? nb : na,
                              net::AckInvalidate{makeObjectId(7)}});
  }
  // Warm-up: metrics node tables, scheduler arena, the ring.
  scheduler.runUntil(scheduler.now() + 8 * msec(5));

  const int deliveredBefore = a.delivered + b.delivered;
  const std::size_t pendingBefore = scheduler.pendingCount();
  const std::int64_t before = g_newCalls;
  scheduler.runUntil(scheduler.now() + kRounds * msec(5));
  const std::int64_t after = g_newCalls;

  EXPECT_EQ(after - before, 0)
      << "SimNetwork::send with latency allocated in steady state";
  EXPECT_EQ(a.delivered + b.delivered - deliveredBefore, kRounds * kChains);
  EXPECT_EQ(pendingBefore, static_cast<std::size_t>(kChains));
  EXPECT_EQ(scheduler.pendingCount(), static_cast<std::size_t>(kChains));
}

// The dense-state protocol engine's contract: once the slot pools,
// holder sets, and deferred rings are at capacity, the whole
// read -> grant -> write -> invalidate fan-out -> ack -> commit cycle
// touches no heap, in BOTH invalidation modes (with valid volume
// leases, kDelayed takes the same immediate fan-out path; the delayed
// flush path builds per-batch message vectors and is excluded from the
// contract).
TEST(AllocFreeTest, VolumeProtocolReplayIsAllocationFree) {
  for (const core::InvalidationMode mode :
       {core::InvalidationMode::kImmediate,
        core::InvalidationMode::kDelayed}) {
    constexpr std::uint32_t kClients = 8;
    constexpr std::uint64_t kObjects = 4;
    trace::Catalog catalog(1, kClients);
    VolumeId vol = catalog.addVolume(catalog.serverNode(0));
    for (std::uint64_t i = 0; i < kObjects; ++i) catalog.addObject(vol, 1000);

    sim::Scheduler scheduler;
    stats::Metrics metrics;
    net::SimNetwork network(scheduler, metrics);
    proto::ProtocolConfig config;
    config.objectTimeout = hours(10);
    config.volumeTimeout = hours(10);
    proto::ProtocolContext ctx{scheduler, network, metrics, catalog, nullptr};
    core::VolumeServer server(ctx, catalog.serverNode(0), config, mode);
    std::vector<std::unique_ptr<core::VolumeClient>> clients;
    for (std::uint32_t c = 0; c < kClients; ++c) {
      clients.push_back(std::make_unique<core::VolumeClient>(
          ctx, catalog.clientNode(c), config));
    }

    long long served = 0, committed = 0;
    auto round = [&](int r) {
      const ObjectId obj = makeObjectId(static_cast<std::uint64_t>(r) %
                                        kObjects);
      for (auto& client : clients) {
        client->read(obj, [&served](const proto::ReadResult& result) {
          served += result.ok;
        });
      }
      scheduler.run();
      server.write(obj, [&committed](const proto::WriteResult&) {
        ++committed;
      });
      scheduler.run();
    };

    // Warm-up: populate caches, grow every pool, and cycle each object
    // through invalidate/re-grant once so free lists are exercised.
    constexpr int kWarmupRounds = 2 * static_cast<int>(kObjects);
    constexpr int kMeasuredRounds = 64;
    for (int r = 0; r < kWarmupRounds; ++r) round(r);

    const std::int64_t before = g_newCalls;
    for (int r = kWarmupRounds; r < kWarmupRounds + kMeasuredRounds; ++r) {
      round(r);
    }
    const std::int64_t after = g_newCalls;

    EXPECT_EQ(after - before, 0)
        << "protocol replay allocated in steady state (mode "
        << (mode == core::InvalidationMode::kImmediate ? "immediate"
                                                       : "delayed")
        << ")";
    EXPECT_EQ(served,
              static_cast<long long>(kClients) *
                  (kWarmupRounds + kMeasuredRounds));
    EXPECT_EQ(committed, kWarmupRounds + kMeasuredRounds);
  }
}

// The streaming workload engine feeds hundred-million-event replays one
// event at a time; with every composition enabled (zipf, flash crowd,
// churn, diurnal) next() must never allocate, or the generator would
// show up in the replay's hot path and RSS.
TEST(AllocFreeTest, EventStreamNextIsAllocationFree) {
  trace::Catalog catalog(1, 1000);
  VolumeId vol = catalog.addVolume(catalog.serverNode(0));
  std::vector<ObjectId> objects;
  for (std::uint64_t i = 0; i < 32; ++i) {
    objects.push_back(catalog.addObject(vol, 1000));
  }

  trace::StreamOptions opt;
  opt.seed = 9;
  opt.events = 1 << 20;
  opt.numClients = 1000;
  opt.writeEvery = 512;
  opt.zipfSkew = 0.9;
  opt.flashClients = 256;
  opt.flashAt = msec(50);
  opt.flashDuration = msec(10);
  opt.churnEvery = 64;
  opt.diurnalAmplitude = 0.5;
  opt.diurnalPeriod = sec(1);
  trace::EventStream stream(opt, catalog, objects);

  trace::TraceEvent event;
  for (int i = 0; i < 4096; ++i) {
    ASSERT_TRUE(stream.next(event));  // warm-up (crosses the flash window)
  }

  const std::int64_t before = g_newCalls;
  long long kinds = 0;
  for (int i = 0; i < 65536; ++i) {
    if (!stream.next(event)) break;
    kinds += static_cast<int>(event.kind);
  }
  const std::int64_t after = g_newCalls;
  EXPECT_EQ(after - before, 0)
      << "EventStream::next allocated in steady state";
  EXPECT_GT(kinds, 0);  // churn markers actually streamed in the window
}

}  // namespace
}  // namespace vlease
