#include "driver/simulation.h"

#include <algorithm>

#include "driver/consistency_oracle.h"
#include "util/check.h"

namespace vlease::driver {

Simulation::Simulation(const trace::Catalog& catalog,
                       const proto::ProtocolConfig& config,
                       SimOptions options)
    : catalog_(catalog),
      network_(std::make_unique<net::SimNetwork>(scheduler_, metrics_)),
      routing_(catalog),
      ctx_{scheduler_, *network_, metrics_, catalog_, &clocks_, &routing_},
      protocol_(core::makeProtocol(config, ctx_)),
      options_(std::move(options)) {
  network_->setLatency(options_.networkLatency);
  network_->failures().setLossProbability(options_.lossProbability);
  if (options_.trackServerLoad) {
    for (std::uint32_t s = 0; s < catalog_.numServers(); ++s) {
      metrics_.trackLoad(catalog_.serverNode(s));
    }
  }
  if (options_.enableOracle) {
    ConsistencyOracle::Options oracleOptions;
    oracleOptions.auditPeriod = options_.oracleAuditPeriod;
    oracleOptions.clocks = &clocks_;
    oracleOptions.skewBound = options_.oracleSkewBound;
    // A Poll validation's answer is already a round trip old when it
    // lands; the Poll staleness bound must allow for it.
    oracleOptions.validationLatency = 2 * options_.networkLatency;
    oracleOptions.routing = &routing_;
    oracle_ = std::make_unique<ConsistencyOracle>(catalog_, config, metrics_,
                                                  oracleOptions);
    scheduleAudit();
  }
  if (options_.faultPlan != nullptr) installFaultPlan(*options_.faultPlan);
  if (!options_.migrations.empty()) installMigrations();
}

Simulation::~Simulation() = default;

void Simulation::installFaultPlan(const net::FaultPlan& plan) {
  faultTimers_.reserve(plan.size());
  for (const net::FaultEvent& event : plan.events()) {
    faultTimers_.push_back(scheduler_.scheduleAt(
        event.at, [this, event]() { applyFault(event); }));
  }
}

void Simulation::applyFault(const net::FaultEvent& event) {
  if (oracle_) oracle_->onFault(event, scheduler_.now());
  net::applyToFailures(event, network_->failures());
  using Kind = net::FaultEvent::Kind;
  switch (event.kind) {
    case Kind::kCrash:
      if (catalog_.isServer(event.a)) {
        // Volatile lease state dies with the process; the recovery
        // bookkeeping (recoveryUntil, epoch bump) is anchored at the
        // crash instant, matching the paper's stable-storage scheme.
        protocol_.servers[raw(event.a)]->crashAndReboot();
      }
      break;
    case Kind::kRecover:
      if (catalog_.isClient(event.a)) {
        // A rebooted client comes back with a cold cache.
        protocol_.client(catalog_, event.a).dropCache();
      }
      break;
    case Kind::kSkew:
      clocks_.setOffset(event.a, scheduler_.now(), event.offset);
      break;
    case Kind::kDrift:
      clocks_.setDrift(event.a, scheduler_.now(), event.ppm);
      break;
    case Kind::kPartition:
    case Kind::kHeal:
    case Kind::kIsolate:
    case Kind::kDeisolate:
    case Kind::kSetLoss:
      break;  // the failure model's alone
  }
}

void Simulation::installMigrations() {
  migrationTimers_.reserve(options_.migrations.size());
  for (const MigrationEvent& event : options_.migrations) {
    migrationTimers_.push_back(scheduler_.scheduleAt(
        event.at, [this, event]() { applyMigration(event); }));
  }
}

void Simulation::applyMigration(const MigrationEvent& event) {
  const NodeId src = routing_.serverOf(event.vol);
  const NodeId dst = event.dstServer;
  if (src == dst) {
    ++migrationsApplied_;  // already there; nothing to move
    return;
  }
  proto::ServerNode& srcServer = protocol_.serverAt(src);
  proto::ServerNode& dstServer = protocol_.serverAt(dst);
  VL_CHECK_MSG(
      srcServer.supportsMigration() && dstServer.supportsMigration(),
      "online migration requires servers with epoch handoff support");
  // The handoff needs both endpoints alive (the source to drain and
  // serialize, the destination to adopt) and the volume write-quiet at
  // the source. Otherwise retry on a short deterministic cadence -- a
  // migration scheduled inside a crash window simply slides past it.
  const net::FailureModel& failures = network_->failures();
  if (failures.isCrashed(src) || failures.isCrashed(dst) ||
      !srcServer.volumeQuiescent(event.vol)) {
    if (finished_) {
      // End of run and still blocked (e.g. a crash window the plan
      // never closed): drop it, or the drain would never terminate.
      ++migrationsDropped_;
      return;
    }
    migrationTimers_.push_back(scheduler_.scheduleAfter(
        msec(100), [this, event]() { applyMigration(event); }));
    return;
  }
  proto::VolumeHandoff handoff = srcServer.migrateOut(event.vol);
  routing_.setServerOf(event.vol, dst);
  dstServer.adoptVolume(handoff, event.bumpEpoch);
  ++migrationsApplied_;
}

void Simulation::scheduleAudit() {
  // Rescheduling is gated on finished_: finish() must be able to drain
  // the scheduler, and a timer that always re-arms itself would keep
  // the queue nonempty forever.
  auditTimer_ =
      scheduler_.scheduleAfter(options_.oracleAuditPeriod, [this]() {
        oracle_->audit(protocol_, scheduler_.now());
        if (!finished_) scheduleAudit();
      });
}

std::size_t Simulation::pendingFaultEvents() const {
  std::size_t n = 0;
  for (const sim::TimerHandle& timer : faultTimers_) {
    if (timer.pending()) ++n;
  }
  return n;
}

void Simulation::onReadComplete(NodeId client, ObjectId obj,
                                const proto::ReadResult& result) {
  // The owner is resolved at completion time, not capture time: a
  // migration may move the volume while the read is in flight, and the
  // authoritative version then lives at the new owner.
  if (result.ok) {
    const Version actual = protocol_.serverFor(ctx_, obj).currentVersion(obj);
    metrics_.onRead(result.usedNetwork, result.version != actual);
    if (oracle_) {
      oracle_->onRead(client, obj, result, actual, scheduler_.now());
    }
  } else {
    metrics_.onReadFailed();
    if (oracle_) {
      oracle_->onRead(client, obj, result, kNoVersion, scheduler_.now());
    }
  }
}

void Simulation::issueRead(NodeId client, ObjectId obj,
                           proto::ReadCallback extra) {
  if (options_.faultPlan != nullptr &&
      network_->failures().isCrashed(client)) {
    // A crashed client issues nothing; the trace event is a dead read.
    metrics_.onReadFailed();
    if (extra) extra(proto::ReadResult{});
    return;
  }
  proto::ClientNode& node = protocol_.client(catalog_, client);
  if (!extra) {
    // Trace-replay fast path: pack (client, obj) into one word so the
    // closure is 16 bytes and std::function stores it inline -- no heap
    // allocation per injected read.
    VL_DCHECK(raw(obj) <= 0xffffffffull);
    const std::uint64_t packed = (static_cast<std::uint64_t>(raw(client))
                                  << 32) |
                                 static_cast<std::uint32_t>(raw(obj));
    node.read(obj, [this, packed](const proto::ReadResult& result) {
      onReadComplete(makeNodeId(static_cast<std::uint32_t>(packed >> 32)),
                     makeObjectId(packed & 0xffffffffull), result);
    });
    return;
  }
  node.read(obj, [this, client, obj, extra = std::move(extra)](
                     const proto::ReadResult& result) {
    onReadComplete(client, obj, result);
    extra(result);
  });
}

void Simulation::issueWrite(ObjectId obj, proto::WriteCallback extra) {
  if (options_.faultPlan != nullptr &&
      network_->failures().isCrashed(ctx_.serverOf(obj))) {
    // The owning server is down; the write never happens.
    return;
  }
  if (!oracle_) {
    protocol_.serverFor(ctx_, obj).write(obj, std::move(extra));
    return;
  }
  oracle_->onWriteIssued(obj, scheduler_.now());
  protocol_.serverFor(ctx_, obj)
      .write(obj, [this, obj, extra = std::move(extra)](
                      const proto::WriteResult& result) {
        oracle_->onWriteComplete(obj, result, scheduler_.now());
        if (extra) extra(result);
      });
}

void Simulation::inject(const trace::TraceEvent& event) {
  VL_CHECK_MSG(!finished_,
               "Simulation::inject() after finish() would corrupt the "
               "frozen metrics");
  lastEventTime_ = std::max(lastEventTime_, event.at);
  switch (event.kind) {
    case trace::EventKind::kRead:
      issueRead(event.client, event.obj);
      break;
    case trace::EventKind::kWrite:
      issueWrite(event.obj);
      break;
    case trace::EventKind::kArrive:
      // A new client starts cold and lazily; nothing to do until its
      // first read. The event exists so generators, logs, and oracles
      // see churn explicitly.
      break;
    case trace::EventKind::kDepart:
      // Graceful departure, distinct from a crash: no fault is
      // injected, the client just forgets its leases and returns its
      // storage; the server lets the holder records expire.
      protocol_.client(catalog_, event.client).retire();
      break;
  }
}

void Simulation::drainTo(SimTime t) { scheduler_.runUntil(t); }

void Simulation::finish() {
  VL_CHECK_MSG(!finished_, "Simulation::finish() called twice");
  finished_ = true;
  // The audit timer re-arms itself; cancel it or run() never drains.
  // Fault timers are left in place: random plans close every window by
  // their horizon, so draining them ends the run with a healed network
  // (and applies recoveries, whose cache drops the oracle relies on).
  auditTimer_.cancel();
  // Like the audit timer, servers' self-rearming maintenance timers
  // (the lease-expiry sweep) must stop or the drain never terminates;
  // quiescing also keeps them from stretching now() past the last
  // protocol event.
  protocol_.quiesce();
  scheduler_.run();  // drain in-flight writes/timers/fault events
  const SimTime horizon =
      options_.horizon > 0
          ? options_.horizon
          : std::max(lastEventTime_, scheduler_.now());
  metrics_.setHorizon(horizon);
  protocol_.finalizeAccounting(horizon);
  if (oracle_) oracle_->finalAudit(protocol_, scheduler_.now());
}

stats::Metrics& Simulation::run(const std::vector<trace::TraceEvent>& events) {
  VL_CHECK_MSG(!ran_ && !finished_,
               "Simulation::run() is single-shot; construct a fresh "
               "Simulation per run");
  ran_ = true;
  VL_DCHECK(trace::isSorted(events));
  for (const trace::TraceEvent& event : events) {
    // Drain everything scheduled before this event, inject, then drain
    // the same-instant activity it kicked off (paper's sequential
    // processing in the zero-latency configuration).
    scheduler_.runUntil(event.at);
    inject(event);
    scheduler_.runUntil(event.at);
  }
  finish();
  return metrics_;
}

}  // namespace vlease::driver
