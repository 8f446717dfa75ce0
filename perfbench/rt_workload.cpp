// rt_zipf: the real-socket open loop. One process runs one
// core::VolumeServer on its own rt::RealTimeDriver thread and three
// core::VolumeClients on a second driver driven by the main thread, all
// over loopback rt::TcpTransport (the clients share one transport: one
// outbound connection to the server, three back). Clients have LRU
// caches smaller than the Zipf working set, and one op in ten is a
// write, so reads keep missing and writes fan out invalidations.
//
// Ops come from a seeded trace::EventStream (kind, client, object); the
// benchmark decides when each is due. Phases, in order:
//   * reference: the reference rate, open loop, for the latency metrics
//     (timed from when each op was due);
//   * saturation: a closed loop with a fixed window of outstanding ops,
//     for the completed-ops-per-second capacity;
//   * ladder: fixed offered rates, open loop, up to the first rung that
//     fails; a rung passes when its read p99 stays under kLatencyLimitUs
//     and the backlog drains (a rung whose backlog passes kMaxBacklog
//     sheds its remaining ops).
// After the run, successful reads (all of the open loops', the closed
// loop's up to a cap) are checked against the writes the server had
// committed before the read was issued (stale = older).
#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>

#include "common.h"
#include "core/volume_client.h"
#include "core/volume_server.h"
#include "rt/real_time.h"
#include "rt/tcp_transport.h"
#include "trace/stream.h"

namespace vlbench {

using namespace vlease;

namespace {

constexpr std::uint32_t kClients = 3;
constexpr std::uint64_t kObjects = 1024;
constexpr std::size_t kCacheCapacity = 64;
constexpr double kLatencyLimitUs = 20000;
constexpr double kReferenceRate = 4000;
// The top rungs lie above the closed loop's capacity on the recording
// host (80k-290k ops/s), so the first failing rung falls inside the
// ladder; a run whose every rung passes notes that its result is only a
// lower bound.
const double kLadder[] = {1000,  2000,  4000,   8000,   16000,
                          32000, 64000, 96000,  128000, 192000,
                          256000, 384000, 512000};
constexpr double kRungShare = 0.03;  // of --seconds, per rung
constexpr int kSaturationWindow = 48;
// An open-loop rung that falls this far behind has failed; it stops
// issuing, so an overloaded rung cannot pile up unbounded queues.
constexpr std::int64_t kMaxBacklog = 2000;
// Reads kept for the stale-read check, in a buffer allocated (and
// touched) up front so the benchmark's own memory does not follow the
// host's speed. The open loops stay well under it; the closed loop,
// whose op count does follow the host, is checked up to it.
constexpr std::size_t kMaxReadRecords = 600'000;
// The closed loop's throughput is sampled per window of this length.
constexpr std::int64_t kRateWindowNs = 50'000'000;

/// Transport in front of a TcpTransport: spans every send() once a
/// tracer is set (from the thread that sends).
class TracedTransport final : public net::Transport {
 public:
  explicit TracedTransport(net::Transport& inner) : inner_(inner) {}
  void setTracer(Tracer* tracer) {
    tracer_ = tracer;
    if (tracer_ != nullptr) name_ = tracer_->nameId("net.send");
  }
  void attach(NodeId node, net::MessageSink* sink) override {
    inner_.attach(node, sink);
  }
  void detach(NodeId node) override { inner_.detach(node); }
  void send(net::Message msg) override {
    if (tracer_ == nullptr) {
      inner_.send(std::move(msg));
      return;
    }
    tracer_->open(name_);
    inner_.send(std::move(msg));
    tracer_->close();
  }

 private:
  net::Transport& inner_;
  Tracer* tracer_ = nullptr;
  std::uint32_t name_ = 0;
};

/// Open sockets of this process that are not listeners, halved: both
/// ends of each loopback connection live here.
int countConnections(int listeners) {
  int sockets = 0;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  while (dirent* e = ::readdir(dir)) {
    char target[256];
    const std::string path = std::string("/proc/self/fd/") + e->d_name;
    const ssize_t n = ::readlink(path.c_str(), target, sizeof target - 1);
    if (n <= 0) continue;
    target[n] = '\0';
    if (std::strncmp(target, "socket:", 7) == 0) ++sockets;
  }
  ::closedir(dir);
  return (sockets - listeners) / 2;
}

struct ReadRec {
  std::uint32_t obj = 0;
  Version version = kNoVersion;
  std::int64_t issuedNs = 0;
};
struct Commit {
  std::uint32_t obj = 0;
  Version version = kNoVersion;
  std::int64_t atNs = 0;
};

/// Samples of one phase.
struct Phase {
  std::vector<double> readUs, writeUs, lagUs;
  std::int64_t issued = 0, completed = 0, failed = 0;
  std::int64_t backlogPeak = 0, backlogAtEnd = 0;
  bool drained = true;
  bool overloaded = false;          // open loop: backlog passed kMaxBacklog
  std::int64_t shed = 0;            // due ops dropped once overloaded
  std::vector<double> windowRates;  // closed loop: ops/s per window
  // Closed loop, per window: ops per second of process CPU time, raw
  // and in reference seconds (HostProbe), and the window's host factor.
  std::vector<double> windowCpuRates, windowNormRates, windowHostFactors;
  double seconds = 0;
};

/// The whole deployment. Constructed and destroyed on the main thread
/// while the server loop is not running.
struct Deployment {
  trace::Catalog catalog{1, kClients};
  std::vector<ObjectId> objects;
  proto::ProtocolConfig config;
  trace::StreamOptions stream;

  rt::RealTimeDriver serverDriver;
  stats::Metrics serverMetrics;
  rt::TcpTransport serverTcp{serverDriver, serverMetrics, 0};
  std::unique_ptr<TracedTransport> serverFwd;
  std::unique_ptr<proto::ProtocolContext> serverCtx;
  std::unique_ptr<core::VolumeServer> server;

  rt::RealTimeDriver clientDriver;
  stats::Metrics clientMetrics;
  rt::TcpTransport clientTcp{clientDriver, clientMetrics, 0};
  std::unique_ptr<TracedTransport> clientFwd;
  std::unique_ptr<proto::ProtocolContext> clientCtx;
  std::vector<std::unique_ptr<core::VolumeClient>> clients;

  std::unique_ptr<trace::EventStream> events;
  /// Catalog population, config and EventStream construction.
  double buildSec = 0;

  explicit Deployment(std::uint64_t seed) {
    const std::int64_t b0 = nowNs();
    std::vector<VolumeId> volumes;
    for (int v = 0; v < 4; ++v) {
      volumes.push_back(catalog.addVolume(catalog.serverNode(0)));
    }
    for (std::uint64_t o = 0; o < kObjects; ++o) {
      objects.push_back(catalog.addObject(volumes[o % volumes.size()], 4096));
    }
    config.algorithm = proto::Algorithm::kVolumeLease;
    config.objectTimeout = sec(10);
    config.volumeTimeout = sec(2);
    config.msgTimeout = sec(1);
    config.readTimeout = sec(2);
    config.piggybackVolumeLease = true;
    config.clientCacheCapacity = kCacheCapacity;

    stream.seed = seed;
    stream.events = 1'000'000'000;  // drawn on demand, never exhausted
    stream.numClients = kClients;
    stream.interarrival = usec(1);
    stream.writeEvery = 10;
    stream.zipfSkew = 0.9;
    events = std::make_unique<trace::EventStream>(stream, catalog, objects);
    buildSec = static_cast<double>(nowNs() - b0) * 1e-9;

    serverFwd = std::make_unique<TracedTransport>(serverTcp);
    serverCtx = std::make_unique<proto::ProtocolContext>(proto::ProtocolContext{
        serverDriver.scheduler(), *serverFwd, serverMetrics, catalog, nullptr});
    server = std::make_unique<core::VolumeServer>(
        *serverCtx, catalog.serverNode(0), config,
        core::InvalidationMode::kImmediate);

    clientFwd = std::make_unique<TracedTransport>(clientTcp);
    clientCtx = std::make_unique<proto::ProtocolContext>(proto::ProtocolContext{
        clientDriver.scheduler(), *clientFwd, clientMetrics, catalog, nullptr});
    for (std::uint32_t c = 0; c < kClients; ++c) {
      clients.push_back(std::make_unique<core::VolumeClient>(
          *clientCtx, catalog.clientNode(c), config));
      serverTcp.addPeer(catalog.clientNode(c), "127.0.0.1",
                        clientTcp.listenPort());
    }
    clientTcp.addPeer(catalog.serverNode(0), "127.0.0.1",
                      serverTcp.listenPort());
  }
};

class Runner {
 public:
  explicit Runner(Deployment& d) : d_(d), reads_(kMaxReadRecords) {
    // Touched up front for the same reason as reads_: clear() keeps the
    // capacity, so commits land in pages already resident. One op in
    // ten is a write, and commits stop with the kept reads.
    commits_.resize(kMaxReadRecords / 4);
    commits_.clear();
  }

  void setTracer(Tracer* tracer) {
    tracer_ = tracer;
    nNext_ = tracer_->nameId("trace.next");
    nIssue_ = tracer_->nameId("rt.issue");
    nStep_ = tracer_->nameId("rt.client_step");
  }

  /// Open loop at `rate` ops/s for `seconds`, then drain.
  Phase openLoop(double rate, double seconds) {
    Phase ph;
    begin(ph);
    sampling_ = true;
    const std::int64_t start = nowNs();
    const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
    const double gapNs = 1e9 / rate;
    std::int64_t i = 0;
    for (;;) {
      const std::int64_t now = nowNs();
      if (now >= end) break;
      std::int64_t due = start + static_cast<std::int64_t>(static_cast<double>(i) * gapNs);
      if (outstanding() > kMaxBacklog) ph_->overloaded = true;
      while (due <= now && due < end) {
        if (ph_->overloaded) {  // shed: due ops are dropped, not queued
          ++ph_->shed;
          ++i;
          due = start + static_cast<std::int64_t>(static_cast<double>(i) * gapNs);
          continue;
        }
        issue(due);
        ++i;
        due = start + static_cast<std::int64_t>(static_cast<double>(i) * gapNs);
      }
      sampleBacklog();
      step(due - nowNs() > 1'500'000 ? 1 : 0);
    }
    ph_->backlogAtEnd = outstanding();
    finish(start);
    return ph;
  }

  /// Closed loop with `window` ops outstanding, for `seconds`. The
  /// client loop blocks until a reply is ready rather than spinning, so
  /// the process's CPU time is the ops' own. After every rate window
  /// the main thread runs a host probe, left out of the next window.
  Phase closedLoop(int window, double seconds) {
    Phase ph;
    begin(ph);
    sampling_ = false;
    const std::int64_t start = nowNs();
    const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
    std::int64_t windowStart = start;
    std::int64_t windowCpu = processCpuNs();
    std::int64_t windowIssued = 0;
    while (nowNs() < end) {
      for (int k = 0; k < window && outstanding() < window; ++k) {
        issue(nowNs());
        ++windowIssued;
      }
      sampleBacklog();
      step(1);
      const std::int64_t now = nowNs();
      if (now - windowStart >= kRateWindowNs) {
        const auto ops = static_cast<double>(windowIssued);
        ProbedTime cpu;
        cpu.workNs = processCpuNs() - windowCpu;
        cpu.probeNs = HostProbe::instance().run();
        cpu.probes = 1;
        ph_->windowRates.push_back(ops * 1e9 /
                                   static_cast<double>(now - windowStart));
        ph_->windowCpuRates.push_back(ops * 1e9 /
                                      static_cast<double>(cpu.workNs));
        ph_->windowNormRates.push_back(ops / cpu.referenceSec());
        ph_->windowHostFactors.push_back(cpu.hostFactor());
        windowStart = nowNs();
        windowCpu = processCpuNs();
        windowIssued = 0;
      }
    }
    ph_->backlogAtEnd = outstanding();
    finish(start);
    return ph;
  }

  /// The reads kept for the stale-read check (the first readCount()
  /// entries of the preallocated buffer, not copied: the check must not
  /// add memory that follows how many reads the host completed).
  const std::vector<ReadRec>& reads() const { return reads_; }
  std::size_t readCount() const { return readCount_; }
  std::int64_t readsOk() const { return readsOk_; }
  std::int64_t readsLocal() const { return readsLocal_; }
  std::int64_t pendingPeak() const { return pendingPeak_; }
  /// Writes completed on the server thread (samples kept there), up to
  /// the last kept read.
  std::vector<Commit>& commits() { return commits_; }
  /// All writes completed.
  std::int64_t writesTotal() {
    std::lock_guard<std::mutex> lock(mu_);
    return writesTotal_;
  }

 private:
  void begin(Phase& ph) {
    ph_ = &ph;
    ++phaseGen_;
  }
  void finish(std::int64_t start) {
    // Drain: wait (bounded) for every outstanding op to complete.
    const std::int64_t limit = nowNs() + 3'000'000'000LL;
    while (outstanding() > 0 && nowNs() < limit) step(1);
    ph_->drained = outstanding() == 0;
    ph_->seconds = static_cast<double>(nowNs() - start) * 1e-9;
    // Write samples were recorded on the server thread.
    {
      std::lock_guard<std::mutex> lock(mu_);
      ph_->writeUs.swap(writeUs_);
      ph_->completed += writesDone_;
      ph_->failed += writesFailed_;
      writesDone_ = writesFailed_ = 0;
    }
    ph_->failed += outstanding();  // never completed
    readsOutstanding_ = 0;
    writesOutstanding_.store(0);
    ph_ = nullptr;
  }

  std::int64_t outstanding() const {
    return readsOutstanding_ + writesOutstanding_.load();
  }
  void sampleBacklog() {
    const std::int64_t o = outstanding();
    if (o > ph_->backlogPeak) ph_->backlogPeak = o;
    pendingPeak_ = std::max<std::int64_t>(
        pendingPeak_,
        static_cast<std::int64_t>(d_.clientDriver.scheduler().pendingCount()));
  }
  void step(int waitMs) {
    if (tracer_ != nullptr) tracer_->open(nStep_);
    d_.clientDriver.step(waitMs);
    if (tracer_ != nullptr) tracer_->close();
  }

  void issue(std::int64_t due) {
    trace::TraceEvent ev;
    if (tracer_ != nullptr) {
      tracer_->setOp(static_cast<std::uint64_t>(opsIssued_ + 1));
      tracer_->open(nNext_);
    }
    d_.events->next(ev);
    if (tracer_ != nullptr) {
      tracer_->close();
      tracer_->open(nIssue_);
    }
    ++opsIssued_;
    ++ph_->issued;
    const std::int64_t now = nowNs();
    const bool sample = sampling_;  // latency samples: open loops only
    if (sample) ph_->lagUs.push_back(static_cast<double>(now - due) * 1e-3);
    if (ev.kind == trace::EventKind::kWrite) {
      writesOutstanding_.fetch_add(1);
      const ObjectId obj = ev.obj;
      d_.serverDriver.post([this, obj, due, sample] {
        d_.server->write(obj, [this, obj, due, sample](const proto::WriteResult& w) {
          const std::int64_t done = nowNs();
          {
            std::lock_guard<std::mutex> lock(mu_);
            if (sample) writeUs_.push_back(static_cast<double>(done - due) * 1e-3);
            if (w.blocked) ++writesFailed_;
            ++writesDone_;
            ++writesTotal_;
            // Once the last kept read has completed, later commits
            // cannot precede any kept read's issue and are not needed.
            if (!readsFull_.load()) {
              commits_.push_back({static_cast<std::uint32_t>(raw(obj)),
                                  w.newVersion, done});
            }
          }
          writesOutstanding_.fetch_sub(1);
        });
      });
    } else {
      ++readsOutstanding_;
      const std::uint32_t client = raw(ev.client) - d_.catalog.numServers();
      Phase* ph = ph_;
      const std::uint64_t gen = phaseGen_;
      const ObjectId obj = ev.obj;
      d_.clients[client]->read(
          obj, [this, ph, gen, obj, due, now, sample](const proto::ReadResult& r) {
            if (gen != phaseGen_ || ph_ == nullptr) return;  // phase gave up on it
            --readsOutstanding_;
            ++ph->completed;
            if (!r.ok) {
              ++ph->failed;
              return;
            }
            if (sample) {
              ph->readUs.push_back(static_cast<double>(nowNs() - due) * 1e-3);
            }
            ++readsOk_;
            if (!r.usedNetwork) ++readsLocal_;
            if (readCount_ < reads_.size()) {
              reads_[readCount_++] = {static_cast<std::uint32_t>(raw(obj)),
                                      r.version, now};
              if (readCount_ == reads_.size()) readsFull_.store(true);
            }
          });
    }
    if (tracer_ != nullptr) tracer_->close();
  }

  Deployment& d_;
  Tracer* tracer_ = nullptr;
  std::uint32_t nNext_ = 0, nIssue_ = 0, nStep_ = 0;
  Phase* ph_ = nullptr;
  std::uint64_t phaseGen_ = 0;
  bool sampling_ = true;  // reads finishing after their phase are ignored
  std::int64_t readsOutstanding_ = 0;
  std::atomic<std::int64_t> writesOutstanding_{0};
  std::int64_t opsIssued_ = 0;
  std::int64_t readsOk_ = 0;
  std::int64_t readsLocal_ = 0;
  std::int64_t pendingPeak_ = 0;
  std::vector<ReadRec> reads_;
  std::size_t readCount_ = 0;
  std::atomic<bool> readsFull_{false};
  std::mutex mu_;  // guards the server-thread samples below
  std::vector<double> writeUs_;
  std::int64_t writesDone_ = 0;
  std::int64_t writesFailed_ = 0;
  std::int64_t writesTotal_ = 0;
  std::vector<Commit> commits_;
};

/// Of the first `count` reads, those that returned an older version than
/// one the server had already committed before the read was issued.
/// Sorts `commits` in place by (object, commit time).
std::int64_t countStale(const std::vector<ReadRec>& reads, std::size_t count,
                        std::vector<Commit>& commits) {
  std::sort(commits.begin(), commits.end(), [](const Commit& a, const Commit& b) {
    return a.obj != b.obj ? a.obj < b.obj : a.atNs < b.atNs;
  });
  std::int64_t stale = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const ReadRec& r = reads[i];
    auto c = std::lower_bound(
        commits.begin(), commits.end(), r.obj,
        [](const Commit& a, std::uint32_t obj) { return a.obj < obj; });
    Version newest = kNoVersion;
    bool any = false;
    for (; c != commits.end() && c->obj == r.obj && c->atNs < r.issuedNs; ++c) {
      newest = any ? std::max(newest, c->version) : c->version;
      any = true;
    }
    if (any && r.version < newest) ++stale;
  }
  return stale;
}

}  // namespace

Result runRtZipf(const Args& args) {
  Result r;
  const bool traced = args.trace;
  Tracer serverTracer, clientTracer;
  MessageSample serverSample, clientSample;

  // Set-up: build the whole deployment several times; keep the last.
  // Each is timed in thread CPU time, in reference seconds at the host
  // factor of a probe run just before it.
  std::vector<double> setups, builds;
  std::unique_ptr<Deployment> d;
  for (int i = 0; i < 21; ++i) {
    d.reset();
    ProbedTime cpu;
    cpu.probeNs = HostProbe::instance().run();
    cpu.probes = 1;
    const std::int64_t s0 = threadCpuNs();
    d = std::make_unique<Deployment>(args.seed);
    cpu.workNs = threadCpuNs() - s0;
    setups.push_back(cpu.referenceSec());
    builds.push_back(d->buildSec);
  }

  double serverCpu = 0, serverWall = 0;
  std::thread serverThread([&] {
    const std::int64_t cpu0 = threadCpuNs();
    const std::int64_t w0 = nowNs();
    d->serverDriver.run();
    const SimTime end = d->serverDriver.scheduler().now();
    d->serverMetrics.setHorizon(end);
    d->server->finalizeAccounting(end);
    serverCpu = static_cast<double>(threadCpuNs() - cpu0) * 1e-9;
    serverWall = static_cast<double>(nowNs() - w0) * 1e-9;
  });

  Runner run(*d);
  const double s = args.seconds;
  Phase warm = run.openLoop(kReferenceRate, 0.05 * s);
  std::vector<Phase> ladder;
  double maxRate = 0;
  Phase ref, sat, untracedSat;
  std::vector<std::unique_ptr<TracedSink>> sinks;
  double peakRss = 0;
  if (!traced) {
    ref = run.openLoop(kReferenceRate, 0.25 * s);
    sat = run.closedLoop(kSaturationWindow, 0.35 * s);
    // The ladder runs last and is left out of peak_rss_mb: how far it
    // climbs follows the host's speed, and each rung's rate sets how
    // much memory its in-flight ops hold.
    peakRss = peakRssMb();
    for (const double rate : kLadder) {
      ladder.push_back(run.openLoop(rate, kRungShare * s));
      const Phase& ph = ladder.back();
      const Dist rd = summarize(ph.readUs);
      const bool ok =
          ph.drained && !ph.overloaded && ph.failed == 0 &&
          rd.p99 < kLatencyLimitUs &&
          ph.backlogAtEnd <=
              std::max<std::int64_t>(16, static_cast<std::int64_t>(rate * 0.002));
      r.add("rt.ladder." + std::to_string(static_cast<int>(rate)) +
                ".read_p99_us",
            rd.p99, "us");
      ladder.back().readUs = {};  // summarised; only the counts are kept
      ladder.back().writeUs = {};
      ladder.back().lagUs = {};
      // The ladder stops at its first failing rung: rungs past capacity
      // shed ops and can leave ops waiting seconds for timeouts, which
      // would spill into every later rung.
      if (!ok) break;
      maxRate = rate;
    }
  } else {
    // The same closed loop untraced, then tracing switched on: the
    // server side from its own thread, the client side from this one.
    untracedSat = run.closedLoop(kSaturationWindow, 0.2 * s);
    const auto serverNames = deliverNames(serverTracer, "core.server_deliver");
    const auto clientNames = deliverNames(clientTracer, "core.client_deliver");
    sinks.push_back(std::make_unique<TracedSink>(*d->server, serverTracer,
                                                 serverNames, &serverSample));
    std::atomic<bool> attached{false};
    d->serverDriver.post([&] {
      d->serverTcp.attach(d->catalog.serverNode(0), sinks.front().get());
      d->serverFwd->setTracer(&serverTracer);
      attached.store(true);
    });
    while (!attached.load()) std::this_thread::yield();
    for (std::uint32_t c = 0; c < kClients; ++c) {
      sinks.push_back(std::make_unique<TracedSink>(
          *d->clients[c], clientTracer, clientNames, &clientSample));
      d->clientTcp.attach(d->catalog.clientNode(c), sinks.back().get());
    }
    d->clientFwd->setTracer(&clientTracer);
    run.setTracer(&clientTracer);
    ref = run.openLoop(kReferenceRate, 0.35 * s);
    sat = run.closedLoop(kSaturationWindow, 0.2 * s);
  }

  d->serverDriver.stop();
  serverThread.join();
  const int connections = countConnections(2);

  // ---- accounting ----
  std::int64_t issued =
      warm.issued + ref.issued + sat.issued + untracedSat.issued;
  std::int64_t failed =
      warm.failed + ref.failed + sat.failed + untracedSat.failed;
  std::int64_t shed = 0;
  for (const Phase& ph : ladder) {
    issued += ph.issued;
    failed += ph.failed;
    shed += ph.shed;
  }
  const std::int64_t stale =
      countStale(run.reads(), run.readCount(), run.commits());
  r.attempted = issued;
  r.failed = failed + stale;
  r.add("operations_attempted", static_cast<double>(r.attempted), "count");
  r.add("operations_failed", static_cast<double>(r.failed), "count");
  r.add("failed_op_ratio",
        static_cast<double>(r.failed) / static_cast<double>(r.attempted),
        "ratio");
  r.add("stale_reads", static_cast<double>(stale), "count");
  r.add("rt.stale_checked_reads", static_cast<double>(run.readCount()),
        "count");
  r.add("rt.shed_ops", static_cast<double>(shed), "count");

  const std::int64_t messages =
      d->serverMetrics.totalMessages() + d->clientMetrics.totalMessages();
  std::array<std::int64_t, net::kNumPayloadTypes> msgs{};
  for (std::size_t t = 0; t < msgs.size(); ++t) {
    msgs[t] = d->serverMetrics.messagesOfType(t) +
              d->clientMetrics.messagesOfType(t);
  }
  r.add("msgs_per_read",
        static_cast<double>(messages) /
            static_cast<double>(std::max<std::int64_t>(run.readsOk(), 1)),
        "msgs/read");

  const Dist refRead = summarize(ref.readUs);
  const Dist refWrite = summarize(ref.writeUs);
  const Dist lag = summarize(ref.lagUs);
  // Closed-loop capacity: the upper quartile of the 50 ms window rates.
  // Co-tenants on a shared host only ever slow a window down; the upper
  // quartile tracks the unhindered rate without resting on one window.
  std::vector<double> satWindows = sat.windowRates;
  std::sort(satWindows.begin(), satWindows.end());
  const double satRate =
      satWindows.empty() ? 0.0 : satWindows[satWindows.size() * 3 / 4];
  r.add("events_per_norm_cpu_s", median(sat.windowNormRates), "events/s");
  r.add("events_per_cpu_s", median(sat.windowCpuRates), "events/s");
  r.add("events_per_s", satRate, "events/s");
  r.add("host.probe_factor", median(sat.windowHostFactors), "ratio");
  r.add("rt.saturation_windows", static_cast<double>(satWindows.size()),
        "count");
  r.add("rt_read_p50_us", refRead.p50, "us");
  r.add("rt_read_p99_us", refRead.p99, "us");
  addDist(r, "rt_read_us", refRead, "us");
  r.add("rt_write_p99_us", refWrite.p99, "us");
  addDist(r, "rt_write_us", refWrite, "us");
  if (!traced) {
    r.add("rt_max_ops_per_s", maxRate, "ops/s");
    if (maxRate == kLadder[std::size(kLadder) - 1]) {
      r.notes.push_back("rt_zipf: every ladder rung passed; rt_max_ops_per_s "
                        "is a lower bound");
    }
  }
  r.add("rt.reference_rate", kReferenceRate, "ops/s");
  r.add("rt.latency_limit_us", kLatencyLimitUs, "us");
  r.add("rt.gen_lag_p99_us", lag.p99, "us");
  r.add("rt.backlog_peak", static_cast<double>(ref.backlogPeak), "count");
  r.add("rt.threads", 2, "count");
  r.add("rt.connections", connections, "count");
  r.add("rt.loop_busy_ratio", serverCpu / std::max(serverWall, 1e-9), "ratio");
  r.add("rt.frames_per_op",
        static_cast<double>(d->serverTcp.framesSent() + d->clientTcp.framesSent()) /
            static_cast<double>(issued),
        "frames/op");
  r.add("rt.send_retries",
        static_cast<double>(d->serverTcp.sendRetries() + d->clientTcp.sendRetries()),
        "count");
  r.add("rt.send_failures",
        static_cast<double>(d->serverTcp.sendFailures() + d->clientTcp.sendFailures()),
        "count");
  r.add("rt.frames_rejected",
        static_cast<double>(d->serverTcp.framesRejected() + d->clientTcp.framesRejected()),
        "count");
  r.add("rt.reconnects",
        static_cast<double>(d->serverTcp.reconnects() + d->clientTcp.reconnects()),
        "count");
  const unsigned nproc = std::thread::hardware_concurrency();
  r.check(connections > 0 && static_cast<unsigned>(connections) <= nproc,
          "rt_zipf used " + std::to_string(connections) +
              " connections, more than nproc or none");
  r.check(2 <= nproc, "rt_zipf needs two hardware threads");
  r.check(ref.drained && sat.drained, "rt_zipf: ops did not drain");
  r.check(refRead.n >= 1000, "rt_zipf: too few reference reads");
  if (lag.p99 > 0.25 * kLatencyLimitUs) {
    r.notes.push_back("rt_zipf generator fell behind schedule: latencies invalid");
  }

  addMessageCounts(msgs, r);
  r.add("net.msgs_per_op",
        static_cast<double>(messages) / static_cast<double>(issued), "msgs/op");
  r.add("net.drops",
        static_cast<double>(d->serverMetrics.droppedMessages() +
                            d->clientMetrics.droppedMessages()),
        "count");
  r.add("core.local_read_ratio",
        static_cast<double>(run.readsLocal()) /
            static_cast<double>(std::max<std::int64_t>(run.readsOk(), 1)),
        "ratio");
  const std::int64_t invals = msgs[net::payloadIndex<net::Invalidate>()] +
                              msgs[net::payloadIndex<net::BatchInvalRenew>()] +
                              msgs[net::payloadIndex<net::MustRenewAll>()];
  r.add("core.invals_per_write",
        static_cast<double>(invals) /
            static_cast<double>(std::max<std::int64_t>(run.writesTotal(), 1)),
        "msgs/write");
  r.add("stats.state_bytes_avg",
        d->serverMetrics.avgStateBytes(d->catalog.serverNode(0)), "B");
  r.add("sim.fired_per_event",
        static_cast<double>(d->serverDriver.scheduler().firedCount() +
                            d->clientDriver.scheduler().firedCount()) /
            static_cast<double>(issued),
        "fired/event");
  r.add("sim.pending_peak", static_cast<double>(run.pendingPeak()), "count");
  r.add("setup_s", median(setups), "s");

  if (!traced) {
    r.add("peak_rss_mb", peakRss, "MB");
    return r;
  }
  // ---- traced extras ----
  Tracer tracer;
  tracer.merge(clientTracer);
  tracer.merge(serverTracer);
  MessageSample sample;
  sample.merge(clientSample);
  sample.merge(serverSample);
  r.add("trace.next_ns",
        static_cast<double>(tracer.totals("trace.next").totalNs) /
            static_cast<double>(tracer.totals("trace.next").count),
        "ns");
  r.add("trace.build_s", median(builds), "s");
  const auto& send = tracer.totals("net.send");
  r.add("rt.send_ns",
        static_cast<double>(send.totalNs) / static_cast<double>(std::max<std::int64_t>(send.count, 1)),
        "ns");
  addDeliverMetrics(tracer, "core.server_deliver", "core.server_deliver", r);
  addDeliverMetrics(tracer, "core.client_deliver", "core.client_deliver", r);
  timeWireCodec(sample, r);
  r.add("trace_overhead",
        median(untracedSat.windowRates) / median(sat.windowRates) - 1.0,
        "ratio");
  r.add("trace.spans_kept", static_cast<double>(tracer.spans().size()), "count");
  r.add("trace.spans_dropped", static_cast<double>(tracer.droppedSpans()), "count");
  if (!tracer.write(outPath(args, "spans.tsv"))) {
    r.notes.push_back("could not write " + outPath(args, "spans.tsv"));
  }
  return r;
}

}  // namespace vlbench
