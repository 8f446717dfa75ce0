#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sys/mman.h>

#include "net/wire.h"

namespace vlbench {

using namespace vlease;

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

}  // namespace

Dist summarize(std::vector<double> values) {
  Dist d;
  d.n = values.size();
  if (values.empty()) return d;
  std::sort(values.begin(), values.end());
  d.p50 = quantile(values, 0.5);
  d.p99 = quantile(values, 0.99);
  d.highName = "p50";
  d.high = d.p50;
  struct Level {
    double q;
    const char* name;
  };
  for (const Level level : {Level{0.9, "p90"}, Level{0.99, "p99"},
                            Level{0.999, "p99.9"}, Level{0.9999, "p99.99"}}) {
    if (static_cast<double>(d.n) * (1.0 - level.q) < 10.0) break;
    d.high = quantile(values, level.q);
    d.highName = level.name;
  }
  return d;
}

void addDist(Result& result, const std::string& name, const Dist& d,
             const std::string& unit) {
  result.add(name + ".p50", d.p50, unit);
  if (d.highName != "p50") result.add(name + "." + d.highName, d.high, unit);
  result.add(name + ".n", static_cast<double>(d.n), "count");
}

namespace {

double statusMb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string word;
  while (status >> word) {
    if (word == field) {
      long kb = 0;
      status >> kb;
      return static_cast<double>(kb) / 1024.0;
    }
  }
  return 0;
}

}  // namespace

double peakRssMb() {
  return statusMb("VmHWM:") - HostProbe::instance().residentMb();
}

// ---------------------------------------------------------------------

HostProbe& HostProbe::instance() {
  static HostProbe probe;
  return probe;
}

namespace {

void* mapBytes(std::size_t bytes) {
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) {
    std::perror("vlbench: host probe mmap");
    std::exit(1);
  }
  return p;
}

/// splitmix64: the key of node i.
std::uint64_t probeKey(std::uint64_t i) {
  std::uint64_t z = i + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint32_t probeBucket(std::uint64_t key) {
  return static_cast<std::uint32_t>(key >> 32) & (HostProbe::kNodes - 1);
}

}  // namespace

HostProbe::HostProbe() {
  const double before = statusMb("VmRSS:");
  nodes_ = static_cast<Node*>(mapBytes(kNodes * sizeof(Node)));
  buckets_ = static_cast<std::uint32_t*>(mapBytes(kNodes * sizeof(std::uint32_t)));
  for (std::uint32_t i = 0; i < kNodes; ++i) buckets_[i] = 0;
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    const std::uint64_t key = probeKey(i);
    std::uint32_t& head = buckets_[probeBucket(key)];
    nodes_[i] = Node{key, 0, head};
    head = i + 1;
  }
  residentMb_ = statusMb("VmRSS:") - before;
}

HostProbe::~HostProbe() {
  ::munmap(nodes_, kNodes * sizeof(Node));
  ::munmap(buckets_, kNodes * sizeof(std::uint32_t));
}

std::uint64_t HostProbe::lookups(std::uint64_t x) {
  for (int i = 0; i < kLookups; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint64_t key = probeKey(x & (kNodes - 1));
    std::uint32_t n = buckets_[probeBucket(key)];
    while (nodes_[n - 1].key != key) n = nodes_[n - 1].next;
    ++nodes_[n - 1].value;
  }
  return x;
}

std::int64_t HostProbe::run() {
  const std::uint64_t start = rng_;
  rng_ = lookups(start);  // untimed: brings these entries into the caches
  const std::int64_t t0 = threadCpuNs();
  lookups(start);
  return threadCpuNs() - t0;
}

double ProbedTime::hostFactor() const {
  if (probes == 0) return 1.0;
  return static_cast<double>(probeNs) / static_cast<double>(probes) /
         HostProbe::kNominalNs;
}

double ProbedTime::referenceSec() const {
  return static_cast<double>(workNs) * 1e-9 / hostFactor();
}

// ---------------------------------------------------------------------

Tracer::Tracer(std::size_t capacity) : capacity_(capacity) {
  spans_.reserve(std::min<std::size_t>(capacity_, 1u << 16));
}

std::uint32_t Tracer::nameId(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.push_back(name);
  totals_.emplace_back();
  return static_cast<std::uint32_t>(names_.size() - 1);
}

const Tracer::Totals& Tracer::totals(const std::string& name) const {
  static const Totals kEmpty;
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return totals_[i];
  }
  return kEmpty;
}

void Tracer::merge(const Tracer& other) {
  std::vector<std::uint32_t> remap(other.names_.size());
  for (std::size_t i = 0; i < other.names_.size(); ++i) {
    remap[i] = nameId(other.names_[i]);
    Totals& t = totals_[remap[i]];
    t.count += other.totals_[i].count;
    t.totalNs += other.totals_[i].totalNs;
    t.selfNs += other.totals_[i].selfNs;
  }
  const auto base = static_cast<std::uint32_t>(spans_.size());
  for (const Span& s : other.spans_) {
    if (spans_.size() >= capacity_) {
      ++droppedSpans_;
      continue;
    }
    Span copy = s;
    copy.name = remap[s.name];
    if (s.parent != kNoParent) copy.parent = base + s.parent;
    spans_.push_back(copy);
  }
  droppedSpans_ += other.droppedSpans_;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# span\top\tname\tparent\tstart_ns\tend_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%llu\t%s\t%lld\t%lld\t%lld\n", i,
                 static_cast<unsigned long long>(s.op),
                 names_[s.name].c_str(),
                 s.parent == kNoParent ? -1LL
                                       : static_cast<long long>(s.parent),
                 static_cast<long long>(s.start),
                 static_cast<long long>(s.end));
  }
  return std::fclose(f) == 0;
}

std::array<std::uint32_t, net::kNumPayloadTypes> deliverNames(
    Tracer& tracer, const std::string& prefix) {
  std::array<std::uint32_t, net::kNumPayloadTypes> ids{};
  for (std::size_t t = 0; t < net::kNumPayloadTypes; ++t) {
    ids[t] = tracer.nameId(prefix + "." + net::payloadTypeName(t));
  }
  return ids;
}

void MessageSample::merge(const MessageSample& other) {
  for (const net::Message& m : other.kept_) {
    if (kept_.size() >= cap_) break;
    kept_.push_back(m);
  }
}

void timeWireCodec(const MessageSample& sample, Result& result) {
  const std::vector<net::Message>& msgs = sample.kept();
  if (msgs.empty()) {
    result.fail("wire codec: no messages sampled");
    return;
  }
  // Several rounds over the sample; the median round is reported.
  std::vector<double> encodeNs, decodeNs;
  std::int64_t bytes = 0;
  std::vector<std::vector<std::uint8_t>> frames(msgs.size());
  for (int round = 0; round < 5; ++round) {
    const std::int64_t t0 = nowNs();
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      frames[i] = net::encodeMessage(msgs[i]);
    }
    const std::int64_t t1 = nowNs();
    std::size_t ok = 0;
    for (const auto& frame : frames) {
      const auto decoded = net::decodeMessage(frame.data(), frame.size());
      if (decoded && decoded->payload.index() != std::variant_npos) ++ok;
    }
    const std::int64_t t2 = nowNs();
    if (ok != frames.size()) {
      result.fail("wire codec: a sampled message did not decode");
      return;
    }
    encodeNs.push_back(static_cast<double>(t1 - t0) /
                       static_cast<double>(msgs.size()));
    decodeNs.push_back(static_cast<double>(t2 - t1) /
                       static_cast<double>(msgs.size()));
  }
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    const auto decoded = net::decodeMessage(frames[i].data(), frames[i].size());
    if (!decoded || decoded->from != msgs[i].from || decoded->to != msgs[i].to ||
        decoded->payload.index() != msgs[i].payload.index()) {
      result.fail("wire codec: round trip changed a message");
      return;
    }
    bytes += static_cast<std::int64_t>(frames[i].size());
  }
  result.add("net.wire_encode_ns", median(encodeNs), "ns");
  result.add("net.wire_decode_ns", median(decodeNs), "ns");
  result.add("net.wire_bytes_per_msg",
             static_cast<double>(bytes) / static_cast<double>(msgs.size()),
             "B/msg");
  result.add("net.wire_sampled_msgs", static_cast<double>(msgs.size()),
             "count");
}

void addDeliverMetrics(const Tracer& tracer, const std::string& prefix,
                       const std::string& metricPrefix, Result& result) {
  std::int64_t count = 0, ns = 0;
  for (std::size_t t = 0; t < net::kNumPayloadTypes; ++t) {
    const std::string type = net::payloadTypeName(t);
    const Tracer::Totals& tot = tracer.totals(prefix + "." + type);
    if (tot.count == 0) continue;
    count += tot.count;
    ns += tot.selfNs;
    result.add(metricPrefix + "_ns." + type,
               static_cast<double>(tot.selfNs) / static_cast<double>(tot.count),
               "ns");
    result.add(metricPrefix + "_count." + type,
               static_cast<double>(tot.count), "count");
  }
  result.add(metricPrefix + "_ns",
             count > 0 ? static_cast<double>(ns) / static_cast<double>(count)
                       : 0.0,
             "ns");
  result.add(metricPrefix + "_count", static_cast<double>(count), "count");
}

void addMessageCounts(
    const std::array<std::int64_t, net::kNumPayloadTypes>& counts,
    Result& result) {
  for (std::size_t t = 0; t < net::kNumPayloadTypes; ++t) {
    result.add(std::string("net.msgs.") + net::payloadTypeName(t),
               static_cast<double>(counts[t]), "count");
  }
}

void SimCounters::add(const SimCounters& o) {
  runs += o.runs;
  fired += o.fired;
  for (std::size_t t = 0; t < msgs.size(); ++t) msgs[t] += o.msgs[t];
  messages += o.messages;
  dropped += o.dropped;
  reads += o.reads;
  localReads += o.localReads;
  writes += o.writes;
  failedReads += o.failedReads;
  staleReads += o.staleReads;
  oracleViolations += o.oracleViolations;
  blockedWrites += o.blockedWrites;
  stateBytesSum += o.stateBytesSum;
  events += o.events;
  readEvents += o.readEvents;
  writeEvents += o.writeEvents;
}

std::string SimCounters::describe() const {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "fired=%lld messages=%lld reads=%lld local=%lld writes=%lld "
                "failed=%lld stale=%lld oracle=%lld state_bytes_sum=%.6f",
                static_cast<long long>(fired), static_cast<long long>(messages),
                static_cast<long long>(reads),
                static_cast<long long>(localReads),
                static_cast<long long>(writes),
                static_cast<long long>(failedReads),
                static_cast<long long>(staleReads),
                static_cast<long long>(oracleViolations), stateBytesSum);
  return buf;
}

std::int64_t SimCounters::failedOps(bool staleIsFailure) const {
  return failedReads + (staleIsFailure ? staleReads : 0) +
         (writeEvents - writes) + blockedWrites;
}

SimCounters countersOf(const stats::Metrics& m, const trace::Catalog& catalog) {
  SimCounters c;
  c.runs = 1;
  for (std::size_t t = 0; t < c.msgs.size(); ++t) c.msgs[t] = m.messagesOfType(t);
  c.messages = m.totalMessages();
  c.dropped = m.droppedMessages();
  c.reads = m.reads();
  c.localReads = m.cacheLocalReads();
  c.writes = m.writes();
  c.failedReads = m.failedReads();
  c.staleReads = m.staleReads();
  c.oracleViolations = m.oracleViolations();
  c.blockedWrites = m.blockedWrites();
  double state = 0;
  for (std::uint32_t s = 0; s < catalog.numServers(); ++s) {
    state += m.avgStateBytes(catalog.serverNode(s));
  }
  c.stateBytesSum = state / catalog.numServers();
  return c;
}

void addCounterMetrics(const SimCounters& total, std::int64_t failed,
                       Result& r) {
  auto per = [](std::int64_t num, std::int64_t den) {
    return static_cast<double>(num) /
           static_cast<double>(std::max<std::int64_t>(den, 1));
  };
  r.attempted = total.readEvents + total.writeEvents;
  r.failed = failed;
  r.add("operations_attempted", static_cast<double>(r.attempted), "count");
  r.add("operations_failed", static_cast<double>(r.failed), "count");
  r.add("failed_op_ratio", per(r.failed, r.attempted), "ratio");
  r.add("failed_reads", static_cast<double>(total.failedReads), "count");
  r.add("stale_reads", static_cast<double>(total.staleReads), "count");
  r.add("oracle_violations", static_cast<double>(total.oracleViolations),
        "count");
  r.add("writes_lost", static_cast<double>(total.writeEvents - total.writes),
        "count");
  r.add("writes_blocked", static_cast<double>(total.blockedWrites), "count");
  r.add("msgs_per_read", per(total.messages, total.readEvents), "msgs/read");
  addMessageCounts(total.msgs, r);
  r.add("net.msgs_per_op", per(total.messages, r.attempted), "msgs/op");
  r.add("net.drops", static_cast<double>(total.dropped), "count");
  r.add("core.local_read_ratio", per(total.localReads, total.reads), "ratio");
  const std::int64_t invals =
      total.msgs[net::payloadIndex<net::Invalidate>()] +
      total.msgs[net::payloadIndex<net::BatchInvalRenew>()] +
      total.msgs[net::payloadIndex<net::MustRenewAll>()];
  r.add("core.invals_per_write", per(invals, total.writes), "msgs/write");
  r.add("stats.state_bytes_avg",
        total.stateBytesSum / std::max(total.runs, 1), "B");
}

std::string outPath(const Args& args, const std::string& what) {
  return args.outDir + "/" + args.workload + "-seed" +
         std::to_string(args.seed) + "-" + what;
}

}  // namespace vlbench
