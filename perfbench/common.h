// Shared pieces of the lease-system benchmark: the run arguments, the
// result every workload returns, timing and percentile helpers, and the
// in-memory span tracer plus the forwarding sink that feeds it.
//
// The benchmark measures the libraries from outside: spans are opened
// and closed around the benchmark's own calls into each module's public
// functions (EventStream::next, Simulation::inject/drainTo, a node's
// MessageSink::deliver, Transport::send, the wire codec), never inside
// the program.
#pragma once

#include <array>
#include <chrono>
#include <ctime>
#include <cstdint>
#include <string>
#include <vector>

#include "net/message.h"
#include "net/transport.h"
#include "stats/metrics.h"
#include "trace/catalog.h"

namespace vlbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline std::int64_t cpuClockNs(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}
/// CPU time the calling thread, or the whole process, has run. Unlike
/// wall time it leaves out time the thread waited for a CPU: other
/// threads' and processes' turns and, on a guest with paravirtual
/// steal-time accounting, the turns the hypervisor gave other guests.
inline std::int64_t threadCpuNs() { return cpuClockNs(CLOCK_THREAD_CPUTIME_ID); }
inline std::int64_t processCpuNs() { return cpuClockNs(CLOCK_PROCESS_CPUTIME_ID); }

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory the traced run writes its spans into.
  std::string outDir = ".bench_out";
  /// Directory holding the vlease_scale binary built alongside.
  std::string toolsDir = ".";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run produced. `metrics` holds every metric the run
/// measured; main() prints them all as report lines and copies the ones
/// BENCHMARK.json declares into the final JSON line.
struct Result {
  bool correct = true;
  std::vector<std::string> problems;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// A failed correctness check: the run reports correct=false.
  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
  void check(bool ok, const std::string& why) {
    if (!ok) fail(why);
  }
};

double median(std::vector<double> values);

/// Timing summary: the median, the highest of p90/p99/p99.9/p99.99 that
/// still has at least ten samples beyond it, and the sample count.
struct Dist {
  double p50 = 0;
  double p99 = 0;  // the plain p99, for metrics named after it
  double high = 0;
  std::string highName;  // "p99", "p99.9", ...
  std::size_t n = 0;
};
Dist summarize(std::vector<double> values);
/// Adds <name>.p50, <name>.<highName> and <name>.n to `result`.
void addDist(Result& result, const std::string& name, const Dist& d,
             const std::string& unit);

/// Peak resident set of this process (VmHWM) in MB, less the host
/// probe's table, which stays resident from before the first workload
/// allocation to the end of the run and so adds exactly its own size.
double peakRssMb();

// ---------------------------------------------------------------------
// host probe
// ---------------------------------------------------------------------

/// A fixed yardstick for the host's current speed. One probe makes
/// kLookups random lookups, each with an update, in a chained hash table
/// of kNodes entries (28 MB, mapped outside the heap), then makes the
/// same lookups again and times only that second, cache-warm pass in
/// thread CPU time: hashing, dependent loads from the core's own caches
/// and stores, the mix the replay loops spend their time on. On a
/// shared host the co-tenants change how fast a core runs that mix, and
/// a probe's time follows the replay's closely. (On the recording host
/// it tracked the replay's CPU time better than the same lookups cold,
/// pointer chases over 1 to 64 MB, a small event-queue simulation or an
/// ALU loop did; see perfbench/README.md.) The throughput metrics run a
/// probe between short slices of the measured work and report the
/// work's CPU time in reference seconds: scaled by kNominalNs over the
/// probes' mean. The probe's code and table belong to the benchmark, and
/// the timed pass finds its entries already cached, so a change to the
/// program moves the measured work and not the yardstick.
class HostProbe {
 public:
  static constexpr std::uint32_t kNodes = 1u << 20;
  static constexpr int kLookups = 8'000;
  /// A probe's timed pass on the recording host (perfbench/README.md).
  static constexpr double kNominalNs = 4.0e5;

  /// The process-wide probe. main() creates it before any workload runs.
  static HostProbe& instance();
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;
  /// Runs one probe and returns its thread CPU time in ns.
  std::int64_t run();
  /// Resident size the table added, in MB.
  double residentMb() const { return residentMb_; }

 private:
  struct Node {
    std::uint64_t key;
    std::uint64_t value;
    std::uint32_t next;  // 1-based node index, 0 ends the chain
  };
  HostProbe();
  ~HostProbe();
  /// kLookups lookups from generator state `x`; returns the new state.
  std::uint64_t lookups(std::uint64_t x);
  /// Mapped straight from the kernel, not through malloc, so that the
  /// heap the program allocates from is the same with or without it.
  Node* nodes_ = nullptr;
  std::uint32_t* buckets_ = nullptr;  // 1-based head node, 0 = empty
  std::uint64_t rng_ = 0x9e3779b97f4a7c15ull;
  double residentMb_ = 0;
};

/// CPU time of measured work and of the probes run next to it.
struct ProbedTime {
  std::int64_t workNs = 0;
  std::int64_t probeNs = 0;
  std::int64_t probes = 0;

  void add(const ProbedTime& other) {
    workNs += other.workNs;
    probeNs += other.probeNs;
    probes += other.probes;
  }
  /// Mean probe time over HostProbe::kNominalNs: above 1 on a slowed host.
  double hostFactor() const;
  /// The work's CPU time in reference seconds (scaled by 1/hostFactor).
  double referenceSec() const;
};

// ---------------------------------------------------------------------
// tracing
// ---------------------------------------------------------------------

/// In-memory span recorder for one thread. A span has a name, a start,
/// an end, its parent span and the id of the operation (trace event or
/// rt op) it belongs to. Per-name totals and self times (duration minus
/// the time child spans cover) are aggregated for every span; the spans
/// themselves are kept up to `capacity` and written out at the end.
class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  struct Span {
    std::uint32_t name = 0;
    std::uint32_t parent = kNoParent;
    std::uint64_t op = 0;
    std::int64_t start = 0;
    std::int64_t end = 0;
  };
  struct Totals {
    std::int64_t count = 0;
    std::int64_t totalNs = 0;
    std::int64_t selfNs = 0;
  };

  explicit Tracer(std::size_t capacity = 200'000);

  /// Id of a span name (registered on first use).
  std::uint32_t nameId(const std::string& name);
  void setOp(std::uint64_t op) { op_ = op; }

  void open(std::uint32_t name) {
    Frame f;
    f.name = name;
    f.start = nowNs();
    f.index = kNoParent;
    if (spans_.size() < capacity_) {
      f.index = static_cast<std::uint32_t>(spans_.size());
      Span s;
      s.name = name;
      s.parent = stack_.empty() ? kNoParent : stack_.back().index;
      s.op = op_;
      s.start = f.start;
      spans_.push_back(s);
    } else {
      ++droppedSpans_;
    }
    stack_.push_back(f);
  }
  void close() {
    const std::int64_t end = nowNs();
    const Frame f = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = end - f.start;
    Totals& t = totals_[f.name];
    ++t.count;
    t.totalNs += dur;
    t.selfNs += dur - f.childNs;
    if (!stack_.empty()) stack_.back().childNs += dur;
    if (f.index != kNoParent) spans_[f.index].end = end;
  }

  const Totals& totals(const std::string& name) const;
  const std::vector<Span>& spans() const { return spans_; }
  std::int64_t droppedSpans() const { return droppedSpans_; }

  /// Adds another tracer's totals (by name) and spans (renamed, with
  /// parents re-based) to this one.
  void merge(const Tracer& other);
  /// Writes the kept spans as tab-separated lines to `path`.
  bool write(const std::string& path) const;

 private:
  struct Frame {
    std::uint32_t name = 0;
    std::uint32_t index = kNoParent;
    std::int64_t start = 0;
    std::int64_t childNs = 0;
  };
  std::size_t capacity_;
  std::uint64_t op_ = 0;
  std::vector<std::string> names_;
  std::vector<Totals> totals_;
  std::vector<Span> spans_;
  std::vector<Frame> stack_;
  std::int64_t droppedSpans_ = 0;
};

/// Span names for a node's deliver(), one per payload type:
/// "<prefix>.<Type>".
std::array<std::uint32_t, vlease::net::kNumPayloadTypes> deliverNames(
    Tracer& tracer, const std::string& prefix);

/// Keeps every k-th message it is offered (up to a cap), so the wire
/// codec can be timed afterwards on the workload's own message mix.
class MessageSample {
 public:
  explicit MessageSample(std::size_t every = 7, std::size_t cap = 20'000)
      : every_(every), cap_(cap) {}
  void offer(const vlease::net::Message& msg) {
    if (++seen_ % every_ == 0 && kept_.size() < cap_) kept_.push_back(msg);
  }
  const std::vector<vlease::net::Message>& kept() const { return kept_; }
  void merge(const MessageSample& other);

 private:
  std::size_t every_;
  std::size_t cap_;
  std::size_t seen_ = 0;
  std::vector<vlease::net::Message> kept_;
};

/// Times net::encodeMessage / decodeMessage over the sample and checks
/// each message round-trips. Adds net.wire_encode_ns, net.wire_decode_ns
/// and net.wire_bytes_per_msg.
void timeWireCodec(const MessageSample& sample, Result& result);

/// A MessageSink re-attached in front of a protocol node: it opens a
/// span named after the payload type, forwards to the node, and counts.
class TracedSink final : public vlease::net::MessageSink {
 public:
  TracedSink(vlease::net::MessageSink& inner, Tracer& tracer,
             const std::array<std::uint32_t, vlease::net::kNumPayloadTypes>&
                 names,
             MessageSample* sample)
      : inner_(&inner), tracer_(&tracer), names_(&names), sample_(sample) {}

  void deliver(const vlease::net::Message& msg) override {
    const std::size_t type = msg.payload.index();
    tracer_->open((*names_)[type]);
    inner_->deliver(msg);
    tracer_->close();
    if (sample_ != nullptr) sample_->offer(msg);
  }

 private:
  vlease::net::MessageSink* inner_;
  Tracer* tracer_;
  const std::array<std::uint32_t, vlease::net::kNumPayloadTypes>* names_;
  MessageSample* sample_;
};

/// Per-type deliver totals from `tracer` under `prefix`, added to the
/// result as <prefix>_ns.<Type> (mean) and <prefix>.count.<Type>, plus
/// the overall <prefix>_ns mean.
void addDeliverMetrics(const Tracer& tracer, const std::string& prefix,
                       const std::string& metricPrefix, Result& result);

/// Adds net.msgs.<Type> for all payload types from a per-type count.
void addMessageCounts(
    const std::array<std::int64_t, vlease::net::kNumPayloadTypes>& counts,
    Result& result);

// ---------------------------------------------------------------------
// simulated counters
// ---------------------------------------------------------------------

/// The counters a deterministic simulation must reproduce exactly,
/// summed over `runs` simulations. Replays of one seed compare them
/// with ==, stateBytesSum included (it is computed the same way every
/// time, so equal runs give bit-equal doubles).
struct SimCounters {
  int runs = 0;
  std::int64_t fired = 0;  // set by callers that drive the scheduler
  std::array<std::int64_t, vlease::net::kNumPayloadTypes> msgs{};
  std::int64_t messages = 0;
  std::int64_t dropped = 0;
  std::int64_t reads = 0;
  std::int64_t localReads = 0;
  std::int64_t writes = 0;
  std::int64_t failedReads = 0;
  std::int64_t staleReads = 0;
  std::int64_t oracleViolations = 0;
  std::int64_t blockedWrites = 0;
  double stateBytesSum = 0;  // Σ over runs of the servers' average
  // From the trace itself, set by callers.
  std::int64_t events = 0;
  std::int64_t readEvents = 0;
  std::int64_t writeEvents = 0;

  bool operator==(const SimCounters&) const = default;
  void add(const SimCounters& o);
  std::string describe() const;
  /// Failed operations: failed reads, stale reads when they count as
  /// failures, writes that never committed (owner crashed) and writes
  /// committed only by force (blocked).
  std::int64_t failedOps(bool staleIsFailure) const;
};

/// One simulation's counters (runs = 1), fired and the trace counts
/// left at 0.
SimCounters countersOf(const vlease::stats::Metrics& metrics,
                       const vlease::trace::Catalog& catalog);

/// Sets attempted/failed and adds the counter-derived metrics:
/// operations and failures, stale reads, msgs_per_read, net.msgs.*,
/// net.msgs_per_op, net.drops, core.local_read_ratio,
/// core.invals_per_write and stats.state_bytes_avg.
void addCounterMetrics(const SimCounters& total, std::int64_t failed,
                       Result& result);

/// Where the traced run writes `what` for this workload and seed.
std::string outPath(const Args& args, const std::string& what);

// ---------------------------------------------------------------------
// workloads
// ---------------------------------------------------------------------

Result runScaleRenew(const Args& args);
Result runChaosWrites(const Args& args);
Result runPaperSweep(const Args& args);
Result runRtZipf(const Args& args);

}  // namespace vlbench
