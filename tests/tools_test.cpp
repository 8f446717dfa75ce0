// End-to-end smoke tests of the CLI tools: vltracegen writes a valid
// VLTRACE file; vlsim consumes it (and generated workloads) and reports
// consistent numbers; the tools reject bad flag values with exit 1.
// Exercises the real binaries via std::system.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "trace/trace_io.h"

namespace vlease {
namespace {

std::string toolPath(const std::string& name) {
  // ctest may run from the build root or from build/tests; probe both.
  for (const char* prefix : {"./tools/", "../tools/", "../../tools/"}) {
    std::string candidate = std::string(prefix) + name;
    if (std::ifstream(candidate).good()) return candidate;
  }
  return "";
}

bool toolsAvailable() { return !toolPath("vlsim").empty(); }

// A temp-file path no other test process can share: ctest runs each
// TEST as its own process under -j, and a Release and a Debug tree may
// run the same suite at once, all under one TempDir().
std::string uniqueTempPath(const std::string& suffix) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "/" + info->test_suite_name() + "." +
         info->name() + "." + std::to_string(::getpid()) + suffix;
}

int runTool(const std::string& cmd, std::string* output) {
  const std::string file = uniqueTempPath(".out");
  const int rc = std::system((cmd + " > " + file + " 2>&1").c_str());
  {
    std::ifstream in(file);
    std::stringstream ss;
    ss << in.rdbuf();
    *output = ss.str();
  }
  std::remove(file.c_str());
  return rc;
}

TEST(ToolsTest, TracegenProducesLoadableTrace) {
  if (!toolsAvailable()) GTEST_SKIP() << "tools not in ./tools";
  const std::string path = uniqueTempPath(".vlt");
  std::string out;
  ASSERT_EQ(runTool(toolPath("vltracegen") + " --out " + path +
                        " --scale 0.003 --servers 50 --clients 5 --days 30",
                    &out),
            0)
      << out;
  EXPECT_NE(out.find("wrote"), std::string::npos);

  std::string error;
  auto loaded = trace::readTraceFromFile(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->catalog.numServers(), 50u);
  EXPECT_EQ(loaded->catalog.numClients(), 5u);
  EXPECT_GT(loaded->events.size(), 100u);
  std::remove(path.c_str());
}

TEST(ToolsTest, SimConsumesTraceFile) {
  if (!toolsAvailable()) GTEST_SKIP() << "tools not in ./tools";
  const std::string path = uniqueTempPath(".vlt");
  std::string out;
  ASSERT_EQ(runTool(toolPath("vltracegen") + " --out " + path +
                        " --scale 0.003 --servers 50 --clients 5 --days 30",
                    &out),
            0);
  ASSERT_EQ(runTool(toolPath("vlsim") + " --trace " + path +
                        " --algorithm delay --t 100000 --tv 100",
                    &out),
            0)
      << out;
  EXPECT_NE(out.find("VolumeDelayedInval"), std::string::npos);
  EXPECT_NE(out.find("stale"), std::string::npos);
  EXPECT_NE(out.find("busiest servers"), std::string::npos);
  // Strong consistency on the tool path too.
  EXPECT_NE(out.find("0 stale"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ToolsTest, SimCsvOutputParses) {
  if (!toolsAvailable()) GTEST_SKIP() << "tools not in ./tools";
  // "volume-delay" is an alias from the shared proto::algorithmByName
  // table, which vlsim and vlease_chaos once spelled differently.
  const std::pair<const char*, const char*> cases[] = {
      {"lease", "Lease,100,"},
      {"volume-delay", "VolumeDelayedInval,100,"},
  };
  for (const auto& [algorithm, rowPrefix] : cases) {
    std::string out;
    ASSERT_EQ(runTool(toolPath("vlsim") + " --algorithm " + algorithm +
                          " --t 100 --scale 0.003 --csv",
                      &out),
              0)
        << out;
    // Header line + one data row.
    std::istringstream ss(out);
    std::string header, row;
    ASSERT_TRUE(std::getline(ss, header));
    ASSERT_TRUE(std::getline(ss, row));
    EXPECT_NE(header.find("algorithm,t,tv,messages"), std::string::npos);
    EXPECT_EQ(row.rfind(rowPrefix, 0), 0u) << algorithm << ": " << row;
  }
}

TEST(ToolsTest, SimRejectsUnknownAlgorithm) {
  if (!toolsAvailable()) GTEST_SKIP() << "tools not in ./tools";
  std::string out;
  EXPECT_NE(runTool(toolPath("vlsim") + " --algorithm bogus", &out), 0);
  EXPECT_NE(out.find("unknown algorithm"), std::string::npos);
}

TEST(ToolsTest, SimRejectsMissingTraceFile) {
  if (!toolsAvailable()) GTEST_SKIP() << "tools not in ./tools";
  std::string out;
  EXPECT_NE(runTool(toolPath("vlsim") + " --trace /nonexistent.vlt", &out),
            0);
  EXPECT_NE(out.find("cannot open"), std::string::npos);
}

TEST(ToolsTest, ChaosRejectsFlashCrowdLargerThanClientCount) {
  const std::string chaos = toolPath("vlease_chaos");
  if (chaos.empty()) GTEST_SKIP() << "tools not in ./tools";
  std::string out;
  // The chaos workload has 4 clients: a larger crowd is a usage error
  // (exit 1 with a message), not a failed invariant check (abort).
  for (const char* crowd : {"20", "5", "-1"}) {
    const int rc = runTool(chaos + " --seeds 1 --flash-crowd " + crowd, &out);
    ASSERT_TRUE(WIFEXITED(rc)) << crowd << ": " << out;
    EXPECT_EQ(WEXITSTATUS(rc), 1) << crowd << ": " << out;
    EXPECT_NE(out.find("--flash-crowd must be between 0 and the client "
                       "count (4)"),
              std::string::npos)
        << out;
  }
  // The whole population is a valid crowd.
  const int rc = runTool(
      chaos + " --seeds 1 --algorithms volume --flash-crowd 4", &out);
  ASSERT_TRUE(WIFEXITED(rc)) << out;
  EXPECT_EQ(WEXITSTATUS(rc), 0) << out;
}

TEST(ToolsTest, ChaosRejectsPollBaselines) {
  const std::string chaos = toolPath("vlease_chaos");
  if (chaos.empty()) GTEST_SKIP() << "tools not in ./tools";
  // The shared name table knows "poll", but the chaos sweep runs only
  // the server-invalidation algorithms: a usage error, not a run.
  std::string out;
  const int rc = runTool(chaos + " --seeds 1 --algorithms volume,poll", &out);
  ASSERT_TRUE(WIFEXITED(rc)) << out;
  EXPECT_EQ(WEXITSTATUS(rc), 1) << out;
  EXPECT_NE(out.find("'poll' is a poll baseline"), std::string::npos) << out;
}

TEST(ToolsTest, ScaleRejectsBadSizes) {
  const std::string scale = toolPath("vlease_scale");
  if (scale.empty()) GTEST_SKIP() << "tools not in ./tools";
  // A bad size is a usage error: exit 1 with a message naming the flag,
  // not a signal from deep inside the run.
  const std::pair<const char*, const char*> cases[] = {
      {"--volumes 0", "--volumes must be >= 1"},
      {"--objects 0", "--objects must be >= 1"},
      {"--clients 0", "--clients must be >= 1"},
      {"--interarrival-us -5", "--interarrival-us must be >= 1"},
  };
  for (const auto& [args, message] : cases) {
    std::string out;
    const int rc = runTool(scale + " --events 1000 " + args, &out);
    ASSERT_TRUE(WIFEXITED(rc)) << args << ": " << out;
    EXPECT_EQ(WEXITSTATUS(rc), 1) << args << ": " << out;
    EXPECT_NE(out.find(message), std::string::npos) << args << ": " << out;
  }
}

TEST(ToolsTest, ScaleReportsClientCacheLedger) {
  const std::string scale = toolPath("vlease_scale");
  if (scale.empty()) GTEST_SKIP() << "tools not in ./tools";
  // The per-component byte ledger starts with the client caches: the
  // heap they reserve and the entries they hold. Each held entry takes
  // at least its own 16 bytes.
  std::string out;
  const int rc = runTool(scale + " --clients 200 --events 2000", &out);
  ASSERT_TRUE(WIFEXITED(rc)) << out;
  ASSERT_EQ(WEXITSTATUS(rc), 0) << out;
  const auto field = [&out](const std::string& key) -> long long {
    const std::string pat = "\"" + key + "\": ";
    const std::size_t at = out.find(pat);
    return at == std::string::npos ? -1 : std::atoll(out.c_str() + at + pat.size());
  };
  const long long bytes = field("client_cache_bytes");
  const long long entries = field("client_cache_entries");
  EXPECT_GT(entries, 0) << out;
  EXPECT_GE(bytes, 16 * entries) << out;
}

TEST(ToolsTest, RtRejectsUnknownNames) {
  const std::string rt = toolPath("vlease_rt");
  if (rt.empty()) GTEST_SKIP() << "tools not in ./tools";
  // A typo must not quietly run as the default algorithm, intensity or
  // scenario, and a log directory that cannot be made must not run every
  // seed to a "worker trouble" verdict that reads as divergence.
  const std::string orphanLogDir = uniqueTempPath(".missing") + "/logs";
  const std::pair<std::string, std::string> cases[] = {
      {"--algorithm delya", "unknown algorithm 'delya'"},
      {"--algorithm lease", "'lease' is not a volume algorithm"},
      {"--intensity hgih", "unknown intensity 'hgih'"},
      {"--scenario recovrey", "unknown scenario 'recovrey'"},
      {"--log-dir " + orphanLogDir,
       "cannot create log directory '" + orphanLogDir + "'"},
  };
  for (const auto& [args, message] : cases) {
    std::string out;
    const int rc = runTool(rt + " --seeds 1 " + args, &out);
    ASSERT_TRUE(WIFEXITED(rc)) << args << ": " << out;
    EXPECT_EQ(WEXITSTATUS(rc), 1) << args << ": " << out;
    EXPECT_NE(out.find(message), std::string::npos) << args << ": " << out;
  }
}

TEST(ToolsTest, RtRemovesItsLogRootWhenEverySeedPasses) {
  const std::string rt = toolPath("vlease_rt");
  if (rt.empty()) GTEST_SKIP() << "tools not in ./tools";
  std::string out;
  const int rc = runTool(rt + " --seeds 1 --duration-ms 1000", &out);
  ASSERT_TRUE(WIFEXITED(rc)) << out;
  ASSERT_EQ(WEXITSTATUS(rc), 0) << out;
  const std::string marker = "logs in ";
  const std::size_t at = out.find(marker);
  ASSERT_NE(at, std::string::npos) << out;
  const std::size_t from = at + marker.size();
  const std::string root = out.substr(from, out.find('\n', from) - from);
  ASSERT_FALSE(root.empty()) << out;
  struct stat info {};
  EXPECT_NE(::stat(root.c_str(), &info), 0) << root << " was left behind";
}

}  // namespace
}  // namespace vlease
