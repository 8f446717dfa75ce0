// vlbench: one benchmark command for the volume-lease system.
//
//   vlbench --workload scale_renew|chaos_writes|paper_sweep|rt_zipf
//           --seed N --seconds S --trace 0|1 [--out DIR] [--tools-dir DIR]
//
// Prints one "metric <name> <value> <unit>" line per measured metric,
// "note"/"problem" lines, and, last, one JSON object with every metric.
// perfbench/run.py builds this binary and narrows that JSON to the
// metrics BENCHMARK.json declares.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <sys/stat.h>
#include <thread>

#include "common.h"

using namespace vlbench;

namespace {

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

int usage() {
  std::fprintf(stderr,
               "usage: vlbench --workload scale_renew|chaos_writes|"
               "paper_sweep|rt_zipf --seed N --seconds S --trace 0|1 "
               "[--out DIR] [--tools-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.outDir = value;
    } else if (flag == "--tools-dir") {
      args.toolsDir = value;
    } else {
      return usage();
    }
  }
  if (args.seconds <= 0) return usage();
  if (args.trace) ::mkdir(args.outDir.c_str(), 0755);
  // Before any workload allocates, so that peakRssMb() can take the
  // probe's table back out of the peak.
  HostProbe::instance();

  Result r;
  if (args.workload == "scale_renew") {
    r = runScaleRenew(args);
  } else if (args.workload == "chaos_writes") {
    r = runChaosWrites(args);
  } else if (args.workload == "paper_sweep") {
    r = runPaperSweep(args);
  } else if (args.workload == "rt_zipf") {
    r = runRtZipf(args);
  } else {
    return usage();
  }

  std::printf("note host nproc=%u build=%s compiler=%s\n",
              std::thread::hardware_concurrency(), VLBENCH_BUILD_TYPE,
              VLBENCH_COMPILER);
  for (const std::string& n : r.notes) std::printf("note %s\n", n.c_str());
  for (const Metric& m : r.metrics) {
    if (!std::isfinite(m.value)) r.fail("metric " + m.name + " is not finite");
    std::printf("metric %-40s %.10g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (r.attempted < 1) r.fail("no operation attempted");
  for (const std::string& p : r.problems) std::printf("problem %s\n", p.c_str());

  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : r.metrics) {
    if (!std::isfinite(m.value)) continue;
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    json += first ? "" : ", ";
    first = false;
    json += jsonString(m.name) + ": {\"value\": " + value +
            ", \"unit\": " + jsonString(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
