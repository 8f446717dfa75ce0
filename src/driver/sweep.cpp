#include "driver/sweep.h"

#include <algorithm>
#include <future>
#include <iostream>

#include "util/check.h"
#include "util/log.h"
#include "util/thread_pool.h"

namespace vlease::driver {

namespace {

/// `capture` (may be null) collects the point's log lines; see runSweep.
SweepResult runPoint(const SweepSpec& spec, const Workload& workload,
                     std::size_t index, std::string* capture) {
  const SweepPoint& point = spec.points[index];
  LogContext logContext(
      spec.name.empty() ? point.label : spec.name + "/" + point.label,
      capture);
  const trace::Catalog& catalog =
      point.catalog ? *point.catalog : workload.catalog;
  Simulation sim(catalog, point.config, point.sim);
  sim.run(workload.events);
  SweepResult result;
  result.index = index;
  result.label = point.label;
  result.row = point.row.empty() ? point.label : point.row;
  result.col = point.col;
  result.metrics = std::move(sim.metrics());
  return result;
}

}  // namespace

std::vector<SweepResult> runSweep(const SweepSpec& spec,
                                  const Workload& workload,
                                  const ParallelOptions& parallel) {
  unsigned threads = parallel.threads > 0 ? parallel.threads
                                          : util::ThreadPool::defaultThreads();
  threads = std::min(
      threads,
      static_cast<unsigned>(std::max<std::size_t>(spec.points.size(), 1)));

  std::vector<SweepResult> results(spec.points.size());
  if (threads <= 1) {
    for (std::size_t i = 0; i < spec.points.size(); ++i) {
      results[i] = runPoint(spec, workload, i, nullptr);
    }
    return results;
  }

  // Each worker collects its point's log lines; they reach stderr in
  // spec order, as a serial run writes them, not in completion order.
  std::vector<std::string> logs(spec.points.size());
  util::ThreadPool pool(threads);
  std::vector<std::future<SweepResult>> futures;
  futures.reserve(spec.points.size());
  for (std::size_t i = 0; i < spec.points.size(); ++i) {
    futures.push_back(pool.submit([&spec, &workload, &logs, i] {
      return runPoint(spec, workload, i, &logs[i]);
    }));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    futures[i].wait();
    emitCapturedLog(logs[i]);
    results[i] = futures[i].get();  // rethrows a worker's exception
  }
  return results;
}

std::vector<SweepResult> runSweep(const SweepSpec& spec,
                                  const ParallelOptions& parallel) {
  const Workload workload = buildWorkload(spec.workload);
  return runSweep(spec, workload, parallel);
}

const SweepResult& resultFor(const std::vector<SweepResult>& results,
                             const std::string& label) {
  for (const SweepResult& r : results) {
    if (r.label == label) return r;
  }
  VL_CHECK_MSG(false, ("no sweep result labeled '" + label + "'").c_str());
  __builtin_unreachable();
}

std::vector<SweepPoint> timeoutGrid(const std::vector<SweepLine>& lines,
                                    const std::vector<std::int64_t>& timeoutsSec,
                                    SimOptions sim) {
  std::vector<SweepPoint> points;
  for (const SweepLine& line : lines) {
    if (!line.sweepsTimeout) {
      SweepPoint p;
      p.label = line.name;
      p.config = line.config;
      p.sim = sim;
      p.row = line.name;
      p.col = "*";
      points.push_back(std::move(p));
      continue;
    }
    for (std::int64_t t : timeoutsSec) {
      SweepPoint p;
      p.label = line.name + " t=" + std::to_string(t);
      p.config = line.config;
      p.config.objectTimeout = sec(t);
      p.sim = sim;
      p.row = line.name;
      p.col = "t=" + std::to_string(t);
      points.push_back(std::move(p));
    }
  }
  return points;
}

Table toTable(const SweepSpec& spec, const std::vector<SweepResult>& results) {
  if (spec.gridCell) {
    // Column order: first appearance among non-spanning points.
    std::vector<std::string> cols;
    for (const SweepResult& r : results) {
      if (r.col.empty() || r.col == "*") continue;
      if (std::find(cols.begin(), cols.end(), r.col) == cols.end()) {
        cols.push_back(r.col);
      }
    }
    std::vector<std::string> rows;
    for (const SweepResult& r : results) {
      if (std::find(rows.begin(), rows.end(), r.row) == rows.end()) {
        rows.push_back(r.row);
      }
    }

    std::vector<std::string> header{spec.gridRowHeader};
    header.insert(header.end(), cols.begin(), cols.end());
    Table table(std::move(header));
    for (const std::string& row : rows) {
      std::vector<std::string> cells{row};
      for (const std::string& col : cols) {
        const SweepResult* hit = nullptr;
        for (const SweepResult& r : results) {
          if (r.row == row && (r.col == col || r.col == "*")) {
            hit = &r;
            break;
          }
        }
        cells.push_back(hit ? spec.gridCell(hit->metrics) : "");
      }
      table.addRow(std::move(cells));
    }
    return table;
  }

  std::vector<std::string> header{spec.labelHeader};
  for (const MetricColumn& column : spec.columns) header.push_back(column.name);
  Table table(std::move(header));
  for (const SweepResult& r : results) {
    std::vector<std::string> cells{r.label};
    for (const MetricColumn& column : spec.columns) {
      cells.push_back(column.value(r, results));
    }
    table.addRow(std::move(cells));
  }
  return table;
}

void addSweepFlags(Flags& flags, double defaultScale) {
  flags.addDouble("scale", defaultScale,
                  "workload scale (1.0 = paper-size trace)");
  flags.addInt("seed", 1998, "workload seed");
  addRunnerFlags(flags);
}

void addRunnerFlags(Flags& flags) {
  flags.addInt("threads", 0,
               "sweep worker threads (0 = hardware concurrency)");
  flags.addBool("csv", false, "emit CSV instead of an aligned table");
  flags.addBool("json", false, "emit JSON instead of an aligned table");
}

WorkloadOptions workloadFromFlags(const Flags& flags) {
  WorkloadOptions options;
  options.scale = flags.getDouble("scale");
  options.seed = static_cast<std::uint64_t>(flags.getInt("seed"));
  return options;
}

ParallelOptions parallelFromFlags(const Flags& flags) {
  ParallelOptions options;
  options.threads = static_cast<unsigned>(flags.getInt("threads"));
  return options;
}

void emitTable(const Table& table, const Flags& flags) {
  if (flags.getBool("json")) {
    table.printJson(std::cout);
  } else if (flags.getBool("csv")) {
    table.printCsv(std::cout);
  } else {
    table.print(std::cout);
  }
}

}  // namespace vlease::driver
