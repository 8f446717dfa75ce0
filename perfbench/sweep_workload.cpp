// paper_sweep: the paper's Fig. 5 grid -- seven algorithm lines x seven
// object timeouts (Callback runs once) -- on the materialised BU-like
// workload, through driver::runSweep with one worker per hardware
// thread. A repetition builds the workload (set-up) and runs the sweep.
// The number of repetitions is fixed by --seconds, every one must
// reproduce the first one's per-point counters, and each rate is the
// median repetition's. events_per_norm_cpu_s counts the sweep's process
// CPU time (all workers) in reference seconds, at the host factor of
// probes run on either side of the repetition.
//
// The traced run replays each point itself on a ThreadPool of the same
// size, with TracedSinks in front of every node, and requires the
// per-point counters to equal runSweep's.
#include <algorithm>
#include <cmath>
#include <future>
#include <map>
#include <memory>

#include "common.h"
#include "driver/sweep.h"
#include "util/thread_pool.h"

namespace vlbench {

using namespace vlease;

namespace {

driver::WorkloadOptions workloadOptions(std::uint64_t seed) {
  driver::WorkloadOptions w;
  w.seed = seed;
  w.scale = 0.1;
  return w;
}

driver::SweepSpec fig5Spec() {
  driver::SweepSpec spec;
  spec.name = "fig5";
  auto makeConfig = [](proto::Algorithm algorithm, std::int64_t tvSec) {
    proto::ProtocolConfig c;
    c.algorithm = algorithm;
    c.volumeTimeout = sec(tvSec);
    return c;
  };
  const std::vector<driver::SweepLine> lines = {
      {"Callback", makeConfig(proto::Algorithm::kCallback, 0), false},
      {"Poll(t)", makeConfig(proto::Algorithm::kPoll, 0)},
      {"Lease(t)", makeConfig(proto::Algorithm::kLease, 0)},
      {"Volume(10,t)", makeConfig(proto::Algorithm::kVolumeLease, 10)},
      {"Volume(100,t)", makeConfig(proto::Algorithm::kVolumeLease, 100)},
      {"Delay(10,t,inf)",
       makeConfig(proto::Algorithm::kVolumeDelayedInval, 10)},
      {"Delay(100,t,inf)",
       makeConfig(proto::Algorithm::kVolumeDelayedInval, 100)},
  };
  spec.points = driver::timeoutGrid(
      lines, {10, 100, 1'000, 10'000, 100'000, 1'000'000, 10'000'000});
  return spec;
}

bool isVolumeAlgorithm(proto::Algorithm a) {
  return a == proto::Algorithm::kVolumeLease ||
         a == proto::Algorithm::kVolumeDelayedInval;
}

/// One point's counters, with the trace counts filled in from the
/// materialised workload every point replays.
SimCounters pointCounters(const stats::Metrics& m,
                          const driver::Workload& workload) {
  SimCounters c = countersOf(m, workload.catalog);
  c.events = static_cast<std::int64_t>(workload.events.size());
  c.readEvents = workload.readCount;
  c.writeEvents = workload.writeCount;
  return c;
}

struct TracedPoint {
  SimCounters counters;
  std::int64_t fired = 0;
  std::int64_t pendingPeak = 0;
  double wallMs = 0;
  Tracer tracer{20'000};
  MessageSample sample{97, 2'000};
};

/// One sweep point replayed like Simulation::run, with every node's sink
/// wrapped and the scheduler's pending count sampled between events.
void runTracedPoint(const driver::SweepPoint& point,
                    const driver::Workload& workload, std::uint64_t opBase,
                    TracedPoint& out) {
  Tracer& tr = out.tracer;
  const std::string layer = isVolumeAlgorithm(point.config.algorithm)
                                ? "core"
                                : "proto";
  const auto serverNames = deliverNames(tr, layer + ".server_deliver");
  const auto clientNames = deliverNames(tr, layer + ".client_deliver");
  const std::uint32_t nPoint = tr.nameId("driver.point");
  const std::int64_t t0 = nowNs();
  tr.setOp(opBase);
  tr.open(nPoint);
  driver::Simulation sim(workload.catalog, point.config, point.sim);
  std::vector<std::unique_ptr<TracedSink>> sinks;
  for (auto& s : sim.protocol().servers) {
    sinks.push_back(
        std::make_unique<TracedSink>(*s, tr, serverNames, &out.sample));
    sim.network().attach(s->id(), sinks.back().get());
  }
  for (auto& c : sim.protocol().clients) {
    sinks.push_back(
        std::make_unique<TracedSink>(*c, tr, clientNames, &out.sample));
    sim.network().attach(c->id(), sinks.back().get());
  }
  std::int64_t pendingPeak = 0;
  for (const trace::TraceEvent& event : workload.events) {
    sim.drainTo(event.at);
    sim.inject(event);
    sim.drainTo(event.at);
    pendingPeak = std::max<std::int64_t>(
        pendingPeak, static_cast<std::int64_t>(sim.scheduler().pendingCount()));
  }
  sim.finish();
  tr.close();
  out.wallMs = static_cast<double>(nowNs() - t0) * 1e-6;
  out.counters = pointCounters(sim.metrics(), workload);
  out.fired = sim.scheduler().firedCount();
  out.pendingPeak = pendingPeak;
}

std::int64_t eventsOf(const driver::Workload& w) {
  return static_cast<std::int64_t>(w.events.size());
}

/// Adds the sweep's counter metrics. Poll gives no consistency
/// guarantee: its stale reads are the paper's measured cost, so they are
/// reported in stale_reads but not counted as failed operations.
void addTotals(const driver::SweepSpec& spec,
               const std::vector<SimCounters>& points, Result& r) {
  SimCounters total;
  std::int64_t failed = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    total.add(points[i]);
    failed += points[i].failedOps(spec.points[i].config.algorithm !=
                                  proto::Algorithm::kPoll);
  }
  addCounterMetrics(total, failed, r);
  r.add("sweep_points", static_cast<double>(points.size()), "count");
}

std::vector<SimCounters> pointCounters(
    const std::vector<driver::SweepResult>& results,
    const driver::Workload& workload) {
  std::vector<SimCounters> out;
  for (const driver::SweepResult& res : results) {
    out.push_back(pointCounters(res.metrics, workload));
  }
  return out;
}

/// Host probes run next to each repetition, before and after it.
constexpr int kProbesPerSide = 8;

void probeHost(ProbedTime& t) {
  for (int k = 0; k < kProbesPerSide; ++k) {
    t.probeNs += HostProbe::instance().run();
    ++t.probes;
  }
}

}  // namespace

Result runPaperSweep(const Args& args) {
  Result r;
  const unsigned threads = util::ThreadPool::defaultThreads();
  const driver::SweepSpec spec = fig5Spec();
  driver::ParallelOptions parallel;
  parallel.threads = threads;
  r.notes.push_back("paper_sweep threads=" + std::to_string(threads) +
                    " points=" + std::to_string(spec.points.size()));

  std::vector<double> setups, rates, cpuRates, normRates, hostFactors;
  std::vector<SimCounters> reference;
  // About one repetition's length on the recording host, fixed so that
  // the work a run times depends on --seconds only.
  constexpr double kRepetitionsPerSecond = 1.6;
  const int planned = std::max(
      3, static_cast<int>(std::lround(args.seconds * kRepetitionsPerSecond)));
  if (!args.trace) {
    const std::int64_t t0 = nowNs();
    for (int rep = 0; rep < planned; ++rep) {
      // Stop early, and say so, rather than overrun the run's time limit.
      if (rep >= 3 && static_cast<double>(nowNs() - t0) * 1e-9 >
                          2.5 * args.seconds) {
        r.notes.push_back("host too slow: ran " + std::to_string(rep) +
                          " of " + std::to_string(planned) + " repetitions");
        break;
      }
      // Probes on either side of the repetition give its host factor.
      ProbedTime cpu;
      probeHost(cpu);
      const std::int64_t s0 = threadCpuNs();
      const driver::Workload workload =
          driver::buildWorkload(workloadOptions(args.seed));
      const std::int64_t s1 = threadCpuNs();
      const std::int64_t w1 = nowNs();
      const std::int64_t c1 = processCpuNs();
      const auto results = driver::runSweep(spec, workload, parallel);
      cpu.workNs = processCpuNs() - c1;
      const std::int64_t w2 = nowNs();
      probeHost(cpu);
      setups.push_back(static_cast<double>(s1 - s0) * 1e-9 / cpu.hostFactor());
      const auto pointEvents = static_cast<double>(
          eventsOf(workload) * static_cast<std::int64_t>(results.size()));
      rates.push_back(pointEvents / (static_cast<double>(w2 - w1) * 1e-9));
      cpuRates.push_back(pointEvents / (static_cast<double>(cpu.workNs) * 1e-9));
      normRates.push_back(pointEvents / cpu.referenceSec());
      hostFactors.push_back(cpu.hostFactor());
      const auto counters = pointCounters(results, workload);
      if (reference.empty()) {
        reference = counters;
        addTotals(spec, counters, r);
      } else if (counters != reference) {
        r.fail("sweep counters differ between repetitions");
      }
    }
    r.add("events_per_norm_cpu_s", median(normRates), "events/s");
    r.add("events_per_cpu_s", median(cpuRates), "events/s");
    r.add("events_per_s", median(rates), "events/s");
    r.add("host.probe_factor", median(hostFactors), "ratio");
    r.add("repetitions", static_cast<double>(rates.size()), "count");
    r.add("setup_s", median(setups), "s");
    r.add("peak_rss_mb", peakRssMb(), "MB");
    return r;
  }

  // ---- traced run ----
  const std::int64_t b0 = nowNs();
  const driver::Workload workload =
      driver::buildWorkload(workloadOptions(args.seed));
  const double buildSec = static_cast<double>(nowNs() - b0) * 1e-9;
  const std::int64_t u0 = nowNs();
  const auto results = driver::runSweep(spec, workload, parallel);
  const double untracedSec = static_cast<double>(nowNs() - u0) * 1e-9;
  reference = pointCounters(results, workload);
  addTotals(spec, reference, r);

  std::vector<std::unique_ptr<TracedPoint>> traced;
  for (std::size_t i = 0; i < spec.points.size(); ++i) {
    traced.push_back(std::make_unique<TracedPoint>());
  }
  const std::int64_t w0 = nowNs();
  {
    util::ThreadPool pool(threads);
    std::vector<std::future<void>> done;
    for (std::size_t i = 0; i < spec.points.size(); ++i) {
      done.push_back(pool.submit([&, i] {
        runTracedPoint(spec.points[i], workload,
                       static_cast<std::uint64_t>(i), *traced[i]);
      }));
    }
    for (auto& f : done) f.get();
  }
  const double tracedSec = static_cast<double>(nowNs() - w0) * 1e-9;

  Tracer tracer;
  MessageSample sample;
  std::int64_t fired = 0, pendingPeak = 0;
  double busyMs = 0;
  std::vector<double> pointMs;
  std::map<std::string, std::vector<double>> byAlgorithm;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    const TracedPoint& p = *traced[i];
    if (!(p.counters == reference[i])) {
      r.fail("point " + spec.points[i].label +
             ": traced counters differ from runSweep's");
    }
    tracer.merge(p.tracer);
    sample.merge(p.sample);
    fired += p.fired;
    pendingPeak = std::max(pendingPeak, p.pendingPeak);
    busyMs += p.wallMs;
    pointMs.push_back(p.wallMs);
    byAlgorithm[proto::algorithmName(spec.points[i].config.algorithm)]
        .push_back(p.wallMs);
  }
  const double events = static_cast<double>(eventsOf(workload));
  const double allEvents = events * static_cast<double>(traced.size());
  r.add("trace_overhead", tracedSec / untracedSec - 1.0, "ratio");
  r.add("trace.build_s", buildSec, "s");
  r.add("trace.build_ns_per_event", buildSec * 1e9 / events, "ns");
  r.add("driver.step_ns", busyMs * 1e6 / allEvents, "ns");
  const Dist pd = summarize(pointMs);
  r.add("driver.sweep_point_ms.p50", pd.p50, "ms");
  r.add("driver.sweep_point_ms.max",
        *std::max_element(pointMs.begin(), pointMs.end()), "ms");
  r.add("driver.sweep_busy_ratio",
        busyMs / (static_cast<double>(threads) * tracedSec * 1e3), "ratio");
  for (const auto& [name, ms] : byAlgorithm) {
    r.add("proto.point_ms." + name, median(ms), "ms");
  }
  r.add("sim.fired_per_event", static_cast<double>(fired) / allEvents,
        "fired/event");
  r.add("sim.pending_peak", static_cast<double>(pendingPeak), "count");
  addDeliverMetrics(tracer, "core.server_deliver", "core.server_deliver", r);
  addDeliverMetrics(tracer, "core.client_deliver", "core.client_deliver", r);
  addDeliverMetrics(tracer, "proto.server_deliver", "proto.server_deliver", r);
  addDeliverMetrics(tracer, "proto.client_deliver", "proto.client_deliver", r);
  timeWireCodec(sample, r);
  r.add("trace.spans_kept", static_cast<double>(tracer.spans().size()),
        "count");
  r.add("trace.spans_dropped", static_cast<double>(tracer.droppedSpans()),
        "count");
  if (!tracer.write(outPath(args, "spans.tsv"))) {
    r.notes.push_back("could not write " + outPath(args, "spans.tsv"));
  }
  return r;
}

}  // namespace vlbench
