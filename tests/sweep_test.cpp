#include "driver/sweep.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "driver/workloads.h"
#include "util/log.h"

namespace vlease {
namespace {

driver::WorkloadOptions smallWorkload() {
  driver::WorkloadOptions opts;
  opts.scale = 0.01;
  return opts;
}

driver::SweepSpec gridSpec() {
  driver::SweepSpec spec;
  spec.name = "sweep_test";
  spec.workload = smallWorkload();
  std::vector<driver::SweepLine> lines;
  proto::ProtocolConfig callback;
  callback.algorithm = proto::Algorithm::kCallback;
  lines.push_back({"Callback", callback, /*sweepsTimeout=*/false});
  for (proto::Algorithm a :
       {proto::Algorithm::kLease, proto::Algorithm::kVolumeLease,
        proto::Algorithm::kVolumeDelayedInval}) {
    proto::ProtocolConfig c;
    c.algorithm = a;
    c.volumeTimeout = sec(100);
    lines.push_back({proto::algorithmName(a), c});
  }
  spec.points = driver::timeoutGrid(lines, {100, 10'000});
  spec.gridCell = [](const stats::Metrics& m) {
    return driver::Table::num(m.totalMessages());
  };
  return spec;
}

/// A byte-exact fingerprint of everything a bench would read off a run.
std::string fingerprint(const std::vector<driver::SweepResult>& results) {
  std::ostringstream os;
  for (const driver::SweepResult& r : results) {
    os << r.index << '|' << r.label << '|' << r.row << '|' << r.col << '|'
       << r.metrics.totalMessages() << '|' << r.metrics.totalBytes() << '|'
       << r.metrics.totalCpuUnits() << '|' << r.metrics.reads() << '|'
       << r.metrics.cacheLocalReads() << '|' << r.metrics.staleReads() << '|'
       << r.metrics.writes() << '|' << r.metrics.delayedWrites() << '|'
       << r.metrics.writeDelay().mean() << '|' << r.metrics.writeDelay().max()
       << '\n';
  }
  return os.str();
}

TEST(SweepTest, TimeoutGridShape) {
  driver::SweepSpec spec = gridSpec();
  // 1 flat line + 3 sweeping lines x 2 timeouts.
  ASSERT_EQ(spec.points.size(), 7u);
  EXPECT_EQ(spec.points[0].label, "Callback");
  EXPECT_EQ(spec.points[0].col, "*");
  EXPECT_EQ(spec.points[1].label, "Lease t=100");
  EXPECT_EQ(spec.points[1].row, "Lease");
  EXPECT_EQ(spec.points[1].col, "t=100");
  EXPECT_EQ(toSeconds(spec.points[1].config.objectTimeout), 100);
  EXPECT_EQ(toSeconds(spec.points[2].config.objectTimeout), 10'000);
}

TEST(SweepTest, ParallelRunsMatchSerialBitForBit) {
  driver::SweepSpec spec = gridSpec();
  driver::Workload workload = driver::buildWorkload(spec.workload);

  const auto serial = driver::runSweep(spec, workload, {1});
  const std::string want = fingerprint(serial);
  ASSERT_EQ(serial.size(), spec.points.size());
  for (unsigned threads : {2u, 8u}) {
    const auto parallel = driver::runSweep(spec, workload, {threads});
    EXPECT_EQ(fingerprint(parallel), want)
        << "results differ at threads=" << threads;
  }
}

TEST(SweepTest, ResultsComeBackInSpecOrder) {
  driver::SweepSpec spec = gridSpec();
  driver::Workload workload = driver::buildWorkload(spec.workload);
  const auto results = driver::runSweep(spec, workload, {8});
  ASSERT_EQ(results.size(), spec.points.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].index, i);
    EXPECT_EQ(results[i].label, spec.points[i].label);
  }
}

TEST(SweepTest, TableIdenticalAcrossThreadCounts) {
  driver::SweepSpec spec = gridSpec();
  driver::Workload workload = driver::buildWorkload(spec.workload);
  std::string rendered[2];
  unsigned threadCounts[] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    driver::Table table =
        driver::toTable(spec, driver::runSweep(spec, workload,
                                               {threadCounts[i]}));
    std::ostringstream os;
    table.print(os);
    rendered[i] = os.str();
  }
  EXPECT_EQ(rendered[0], rendered[1]);
  // The flat Callback line spans both timeout columns with one value.
  EXPECT_NE(rendered[0].find("Callback"), std::string::npos);
  EXPECT_NE(rendered[0].find("t=100"), std::string::npos);
  EXPECT_NE(rendered[0].find("t=10000"), std::string::npos);
}

TEST(SweepTest, PointTableUsesColumns) {
  driver::SweepSpec spec;
  spec.name = "point_table";
  spec.workload = smallWorkload();
  proto::ProtocolConfig config;
  config.algorithm = proto::Algorithm::kVolumeLease;
  config.volumeTimeout = sec(100);
  spec.points.push_back({"Volume", config, {}, "", "", nullptr});
  using Results = std::vector<driver::SweepResult>;
  spec.columns = {{"messages",
                   [](const driver::SweepResult& r, const Results&) {
                     return driver::Table::num(r.metrics.totalMessages());
                   }}};
  const auto results = driver::runSweep(spec, {1});
  driver::Table table = driver::toTable(spec, results);
  std::ostringstream os;
  table.print(os);
  EXPECT_NE(os.str().find("messages"), std::string::npos);
  EXPECT_NE(os.str().find("Volume"), std::string::npos);
}

TEST(SweepTest, ResultForFindsLabel) {
  driver::SweepSpec spec = gridSpec();
  driver::Workload workload = driver::buildWorkload(spec.workload);
  const auto results = driver::runSweep(spec, workload, {2});
  const driver::SweepResult& r = driver::resultFor(results, "Lease t=100");
  EXPECT_EQ(r.label, "Lease t=100");
  EXPECT_GT(r.metrics.totalMessages(), 0);
}

TEST(SweepTest, PerPointCatalogOverride) {
  driver::SweepSpec spec;
  spec.name = "catalog_override";
  spec.workload = smallWorkload();
  driver::Workload workload = driver::buildWorkload(spec.workload);
  proto::ProtocolConfig config;
  config.algorithm = proto::Algorithm::kVolumeLease;
  config.volumeTimeout = sec(100);
  spec.points.push_back({"shared", config, {}, "", "", nullptr});
  spec.points.push_back(
      {"override", config, {}, "", "",
       std::make_shared<trace::Catalog>(workload.catalog)});
  const auto results = driver::runSweep(spec, workload, {2});
  // Identical catalog contents -> identical runs.
  EXPECT_EQ(results[0].metrics.totalMessages(),
            results[1].metrics.totalMessages());
}

TEST(SweepTest, LogContextScopesLabel) {
  EXPECT_EQ(LogContext::current(), "");
  {
    LogContext outer("sweep/a");
    EXPECT_EQ(LogContext::current(), "sweep/a");
    {
      LogContext inner("sweep/b");
      EXPECT_EQ(LogContext::current(), "sweep/b");
    }
    EXPECT_EQ(LogContext::current(), "sweep/a");
  }
  EXPECT_EQ(LogContext::current(), "");
}

/// runSweep's stderr at the given thread count, with every message send
/// logged (kDebug), so each point writes many lines while it runs.
std::string sweepStderr(const driver::SweepSpec& spec,
                        const driver::Workload& workload, unsigned threads) {
  const LogLevel level = logLevel();
  setLogLevel(LogLevel::kDebug);
  ::testing::internal::CaptureStderr();
  driver::runSweep(spec, workload, {threads});
  std::string out = ::testing::internal::GetCapturedStderr();
  setLogLevel(level);
  return out;
}

TEST(SweepTest, LogLinesComeOutInSpecOrderAtAnyThreadCount) {
  driver::SweepSpec spec = gridSpec();
  spec.workload.scale = 0.002;
  const driver::Workload workload = driver::buildWorkload(spec.workload);
  const std::string serial = sweepStderr(spec, workload, 1);
  ASSERT_NE(serial.find("[sweep_test/Callback] "), std::string::npos);
  EXPECT_TRUE(serial == sweepStderr(spec, workload, 4))
      << "parallel sweep stderr differs from the serial run's";
}

TEST(SweepDeathTest, SimulationRunIsSingleShot) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  driver::WorkloadOptions opts;
  opts.scale = 0.002;
  driver::Workload workload = driver::buildWorkload(opts);
  proto::ProtocolConfig config;
  config.algorithm = proto::Algorithm::kCallback;
  EXPECT_DEATH(
      {
        driver::Simulation sim(workload.catalog, config);
        sim.run(workload.events);
        sim.run(workload.events);
      },
      "single-shot");
}

TEST(SweepDeathTest, InjectAfterFinishChecks) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  driver::WorkloadOptions opts;
  opts.scale = 0.002;
  driver::Workload workload = driver::buildWorkload(opts);
  proto::ProtocolConfig config;
  config.algorithm = proto::Algorithm::kCallback;
  ASSERT_FALSE(workload.events.empty());
  EXPECT_DEATH(
      {
        driver::Simulation sim(workload.catalog, config);
        sim.run(workload.events);
        sim.inject(workload.events.front());
      },
      "frozen metrics");
}

}  // namespace
}  // namespace vlease
