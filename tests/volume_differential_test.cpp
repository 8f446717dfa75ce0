// Randomized differential test: the dense-state core::VolumeServer must
// behave observably identically to the frozen pre-refactor hash-map
// implementation (tests/reference_volume_server.*).
//
// Two full simulations run the SAME randomized schedule of reads,
// writes, time advances, cache drops, client crash/recover cycles, and
// server crash+reboots; the only difference is which server
// implementation answers. With a loss-free network both runs are
// deterministic, so every read/write outcome, every metric counter, and
// the servers' final introspectable state must match exactly.
//
// 20 clients deliberately exceeds the holder counts the determinism
// goldens pin (where LifoIndexMap's LIFO order and unordered_map
// iteration coincide): at this scale the two servers may fan out
// invalidations in different per-instant orders, and the test proves
// that divergence is semantically invisible -- same results, same
// counts, same state.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/volume_server.h"
#include "driver/simulation.h"
#include "net/message.h"
#include "reference_volume_server.h"
#include "trace/catalog.h"
#include "util/rng.h"

namespace vlease {
namespace {

constexpr std::uint32_t kNumClients = 20;
constexpr std::uint32_t kNumVolumes = 2;
constexpr std::uint32_t kObjectsPerVolume = 6;
constexpr std::uint64_t kNumObjects = kNumVolumes * kObjectsPerVolume;
constexpr int kNumOps = 400;

struct Op {
  enum Kind {
    kRead,       // client a reads object b
    kWrite,      // write object b
    kAdvance,    // advance virtual time by dt
    kDropCache,  // client a restarts with a cold cache
    kCrash,      // client a loses network (messages drop both ways)
    kRecover,    // client a comes back (cold cache, like a reboot)
    kServerCrash  // server crash+reboot (epoch bump, recovery wait)
  } kind;
  std::uint32_t a = 0;
  std::uint64_t b = 0;
  SimDuration dt = 0;
};

/// Pure function of the seed: both simulations replay the same schedule.
std::vector<Op> makeSchedule(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Op> ops;
  ops.reserve(kNumOps);
  // Only a small client pool crashes, so most reads still make progress.
  std::vector<bool> crashed(kNumClients, false);
  for (int i = 0; i < kNumOps; ++i) {
    const std::uint64_t roll = rng.nextBelow(100);
    if (roll < 45) {
      ops.push_back({Op::kRead,
                     static_cast<std::uint32_t>(rng.nextBelow(kNumClients)),
                     rng.nextBelow(kNumObjects), 0});
    } else if (roll < 65) {
      ops.push_back({Op::kWrite, 0, rng.nextBelow(kNumObjects), 0});
    } else if (roll < 80) {
      ops.push_back({Op::kAdvance, 0, 0, rng.nextInt(msec(1), sec(2))});
    } else if (roll < 88) {
      ops.push_back({Op::kAdvance, 0, 0, rng.nextInt(sec(2), sec(15))});
    } else if (roll < 92) {
      ops.push_back({Op::kDropCache,
                     static_cast<std::uint32_t>(rng.nextBelow(kNumClients)),
                     0, 0});
    } else if (roll < 98) {
      const auto c = static_cast<std::uint32_t>(rng.nextBelow(5));
      ops.push_back({crashed[c] ? Op::kRecover : Op::kCrash, c, 0, 0});
      crashed[c] = !crashed[c];
    } else {
      ops.push_back({Op::kServerCrash, 0, 0, 0});
    }
  }
  return ops;
}

trace::Catalog makeCatalog() {
  trace::Catalog catalog(/*numServers=*/1, kNumClients);
  for (std::uint32_t v = 0; v < kNumVolumes; ++v) {
    VolumeId vol = catalog.addVolume(catalog.serverNode(0));
    for (std::uint32_t i = 0; i < kObjectsPerVolume; ++i) {
      catalog.addObject(vol, /*bytes=*/1000);
    }
  }
  return catalog;
}

driver::SimOptions withLatency(SimDuration latency) {
  driver::SimOptions options;
  options.networkLatency = latency;
  return options;
}

/// One wired simulation; when `useReference` the dense server is
/// replaced (detach + attach through the transport) by the frozen
/// hash-map implementation.
struct Rig {
  Rig(const trace::Catalog& catalog, const proto::ProtocolConfig& config,
      bool useReference)
      : sim(std::make_unique<driver::Simulation>(catalog, config,
                                                 withLatency(msec(20)))) {
    if (useReference) {
      const auto mode = config.algorithm == proto::Algorithm::kVolumeLease
                            ? core::InvalidationMode::kImmediate
                            : core::InvalidationMode::kDelayed;
      ctx = std::make_unique<proto::ProtocolContext>(proto::ProtocolContext{
          sim->scheduler(), sim->network(), sim->metrics(), sim->catalog(),
          &sim->clocks()});
      sim->protocol().servers[0].reset();  // detach before re-attaching
      sim->protocol().servers[0] = std::make_unique<testref::RefVolumeServer>(
          *ctx, catalog.serverNode(0), config, mode);
    }
  }

  // ctx must outlive sim: the swapped-in server detaches itself through
  // ctx->transport when sim destroys the protocol instance.
  std::unique_ptr<proto::ProtocolContext> ctx;
  std::unique_ptr<driver::Simulation> sim;
};

/// Replay `ops` against `rig`, appending one line per resolved read /
/// committed write (in resolution order) to `log`.
void replay(Rig& rig, const std::vector<Op>& ops,
            std::vector<std::string>& log) {
  driver::Simulation& sim = *rig.sim;
  const trace::Catalog& catalog = sim.catalog();
  auto now = [&] { return sim.scheduler().now(); };
  int opId = 0;
  for (const Op& op : ops) {
    const int id = opId++;
    switch (op.kind) {
      case Op::kRead:
        sim.issueRead(catalog.clientNode(op.a), makeObjectId(op.b),
                      [&log, &sim, id](const proto::ReadResult& r) {
                        log.push_back(
                            "R" + std::to_string(id) + " ok=" +
                            std::to_string(r.ok) + " net=" +
                            std::to_string(r.usedNetwork) + " fetch=" +
                            std::to_string(r.fetchedData) + " v=" +
                            std::to_string(r.version) + " t=" +
                            std::to_string(sim.scheduler().now()));
                      });
        break;
      case Op::kWrite:
        sim.issueWrite(makeObjectId(op.b),
                       [&log, &sim, id](const proto::WriteResult& w) {
                         log.push_back(
                             "W" + std::to_string(id) + " delay=" +
                             std::to_string(w.delay) + " blocked=" +
                             std::to_string(w.blocked) + " v=" +
                             std::to_string(w.newVersion) + " t=" +
                             std::to_string(sim.scheduler().now()));
                       });
        break;
      case Op::kAdvance:
        sim.drainTo(now() + op.dt);
        break;
      case Op::kDropCache:
        sim.protocol().client(catalog, catalog.clientNode(op.a)).dropCache();
        break;
      case Op::kCrash:
        sim.network().failures().crash(catalog.clientNode(op.a));
        break;
      case Op::kRecover:
        sim.network().failures().recover(catalog.clientNode(op.a));
        sim.protocol().client(catalog, catalog.clientNode(op.a)).dropCache();
        break;
      case Op::kServerCrash:
        sim.protocol().servers[0]->crashAndReboot();
        break;
    }
    sim.drainTo(now());  // process same-instant activity before the next op
  }
  sim.finish();  // drain in-flight work, freeze metrics and accounting
}

template <typename ServerA, typename ServerB>
void expectSameServerState(const trace::Catalog& catalog, const ServerA& a,
                           const ServerB& b) {
  EXPECT_EQ(a.recoveryUntil(), b.recoveryUntil());
  for (std::uint32_t v = 0; v < catalog.numVolumes(); ++v) {
    const VolumeId vol = makeVolumeId(v);
    EXPECT_EQ(a.volumeEpoch(vol), b.volumeEpoch(vol)) << "vol " << v;
    EXPECT_EQ(a.validVolumeHolders(vol), b.validVolumeHolders(vol))
        << "vol " << v;
    for (std::uint32_t c = 0; c < catalog.numClients(); ++c) {
      const NodeId client = catalog.clientNode(c);
      EXPECT_EQ(a.isUnreachable(client, vol), b.isUnreachable(client, vol))
          << "client " << c << " vol " << v;
      EXPECT_EQ(a.isInactive(client, vol), b.isInactive(client, vol))
          << "client " << c << " vol " << v;
      EXPECT_EQ(a.pendingMessageCount(client, vol),
                b.pendingMessageCount(client, vol))
          << "client " << c << " vol " << v;
    }
  }
  for (std::uint64_t o = 0; o < kNumObjects; ++o) {
    const ObjectId obj = makeObjectId(o);
    EXPECT_EQ(a.currentVersion(obj), b.currentVersion(obj)) << "obj " << o;
    EXPECT_EQ(a.validObjectHolders(obj), b.validObjectHolders(obj))
        << "obj " << o;
  }
}

void expectSameMetrics(stats::Metrics& a, stats::Metrics& b,
                       NodeId serverNode) {
  EXPECT_EQ(a.totalMessages(), b.totalMessages());
  EXPECT_EQ(a.totalBytes(), b.totalBytes());
  EXPECT_EQ(a.droppedMessages(), b.droppedMessages());
  EXPECT_DOUBLE_EQ(a.totalCpuUnits(), b.totalCpuUnits());
  for (std::size_t t = 0; t < net::kNumPayloadTypes; ++t) {
    EXPECT_EQ(a.messagesOfType(t), b.messagesOfType(t))
        << net::payloadTypeName(t);
  }
  EXPECT_EQ(a.reads(), b.reads());
  EXPECT_EQ(a.cacheLocalReads(), b.cacheLocalReads());
  EXPECT_EQ(a.staleReads(), b.staleReads());
  EXPECT_EQ(a.failedReads(), b.failedReads());
  EXPECT_EQ(a.writes(), b.writes());
  EXPECT_EQ(a.delayedWrites(), b.delayedWrites());
  EXPECT_EQ(a.blockedWrites(), b.blockedWrites());
  EXPECT_EQ(a.writeDelay().count(), b.writeDelay().count());
  EXPECT_EQ(a.writeDelay().sum(), b.writeDelay().sum());
  EXPECT_DOUBLE_EQ(a.avgStateBytes(serverNode), b.avgStateBytes(serverNode));
}

struct DiffCase {
  const char* name;
  proto::Algorithm algorithm;
  bool piggyback = false;
  bool writeByLeaseExpiry = false;
  SimDuration clockEpsilon = 0;
  SimDuration inactiveDiscard = kNever;
};

// gtest would otherwise print a case as its raw bytes, which include
// the name pointer, so the test ids would change on every run.
void PrintTo(const DiffCase& c, std::ostream* os) { *os << c.name; }

class VolumeDifferentialTest : public ::testing::TestWithParam<DiffCase> {};

TEST_P(VolumeDifferentialTest, DenseMatchesReference) {
  const DiffCase& c = GetParam();
  proto::ProtocolConfig config;
  config.algorithm = c.algorithm;
  config.volumeTimeout = sec(5);
  config.objectTimeout = sec(60);
  config.msgTimeout = sec(2);
  config.readTimeout = sec(10);
  config.piggybackVolumeLease = c.piggyback;
  config.writeByLeaseExpiry = c.writeByLeaseExpiry;
  config.clockEpsilon = c.clockEpsilon;
  config.inactiveDiscard = c.inactiveDiscard;

  const trace::Catalog catalog = makeCatalog();
  for (std::uint64_t seed : {0x5eedull, 0xfeedbeefull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::vector<Op> ops = makeSchedule(seed);

    Rig dense(catalog, config, /*useReference=*/false);
    Rig ref(catalog, config, /*useReference=*/true);
    std::vector<std::string> denseLog, refLog;
    replay(dense, ops, denseLog);
    replay(ref, ops, refLog);

    ASSERT_GT(denseLog.size(), 100u);  // the schedule really ran
    ASSERT_EQ(denseLog.size(), refLog.size());
    for (std::size_t i = 0; i < denseLog.size(); ++i) {
      ASSERT_EQ(denseLog[i], refLog[i]) << "first divergence at entry " << i;
    }

    auto* denseServer = dynamic_cast<core::VolumeServer*>(
        dense.sim->protocol().servers[0].get());
    auto* refServer = dynamic_cast<testref::RefVolumeServer*>(
        ref.sim->protocol().servers[0].get());
    ASSERT_NE(denseServer, nullptr);
    ASSERT_NE(refServer, nullptr);
    expectSameServerState(catalog, *denseServer, *refServer);
    expectSameMetrics(dense.sim->metrics(), ref.sim->metrics(),
                      catalog.serverNode(0));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, VolumeDifferentialTest,
    ::testing::Values(
        DiffCase{"Immediate", proto::Algorithm::kVolumeLease},
        DiffCase{"Delayed", proto::Algorithm::kVolumeDelayedInval},
        DiffCase{"DelayedDiscard", proto::Algorithm::kVolumeDelayedInval,
                 false, false, 0, sec(20)},
        DiffCase{"ImmediatePiggyback", proto::Algorithm::kVolumeLease, true},
        DiffCase{"DelayedPiggyback", proto::Algorithm::kVolumeDelayedInval,
                 true},
        DiffCase{"ImmediateByExpiry", proto::Algorithm::kVolumeLease, false,
                 true},
        DiffCase{"DelayedByExpiry", proto::Algorithm::kVolumeDelayedInval,
                 false, true},
        DiffCase{"ImmediateEpsilon", proto::Algorithm::kVolumeLease, false,
                 false, msec(5)}),
    [](const ::testing::TestParamInfo<DiffCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace vlease
