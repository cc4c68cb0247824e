// perfbench: runs one workload of the end-to-end benchmark and prints,
// last, one JSON line {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload census_query|sensor_stream|server_mixed
//             --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Untraced (--trace 0) the metrics are the end-to-end ones; traced
// (--trace 1) they are the per-layer ones. Before the JSON line it
// prints every end-to-end figure by name and unit, "n/a" where the
// workload has no such statement class. Only the figures every workload
// has enter the JSON line, since the result of each workload must carry
// the same metric names.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage() {
  fprintf(stderr,
          "usage: perfbench --workload census_query|sensor_stream|"
          "server_mixed --seed N --seconds S --trace 0|1 --work-dir DIR\n");
  return 2;
}

const char* const kEndToEnd[][2] = {
    {"setup_s", "s"},           {"ops_per_s", "1/s"},
    {"read_ms_p50", "ms"},      {"read_ms_p95", "ms"},
    {"write_ms_p50", "ms"},     {"write_ms_p95", "ms"},
    {"tick_ms_p50", "ms"},      {"tick_ms_p95", "ms"},
    {"ingest_events_per_s", "1/s"}, {"failed_ratio", "ratio"},
    {"peak_rss_mb", "MB"},
};

void PrintFigures(const perfbench::RunResult& r, bool trace) {
  if (!trace) {
    perfbench::RunResult shown = r;
    shown.info["failed_ratio"] = {r.FailedRatio(), "ratio"};
    for (const auto& [name, unit] : kEndToEnd) {
      const perfbench::Metric* m = nullptr;
      if (auto it = shown.metrics.find(name); it != shown.metrics.end()) {
        m = &it->second;
      } else if (auto jt = shown.info.find(name); jt != shown.info.end()) {
        m = &jt->second;
      }
      // "read_ms_p50" -> "read": the class whose sample count applies.
      const std::string cls = std::string(name).substr(
          0, std::string(name).find('_'));
      auto n = shown.samples.find(cls);
      if (m && n != shown.samples.end()) {
        printf("%-28s %14.4f %-6s (%zu samples)\n", name, m->value, unit,
               n->second);
      } else if (m) {
        printf("%-28s %14.4f %s\n", name, m->value, unit);
      } else {
        printf("%-28s %14s %s\n", name, "n/a", unit);
      }
    }
    return;
  }
  for (const auto& [name, m] : r.metrics) {
    printf("%-34s %14.4f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, work_dir;
  perfbench::RunConfig config;
  int trace = -1;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
      have_seconds = config.seconds > 0;
    } else if (key == "--trace") {
      trace = std::atoi(value);
    } else if (key == "--work-dir") {
      work_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || !have_seed || !have_seconds || work_dir.empty() ||
      (trace != 0 && trace != 1)) {
    return Usage();
  }
  config.trace = trace == 1;
  config.work_dir = work_dir;

  perfbench::RunResult r;
  if (workload == "census_query") {
    r = perfbench::RunCensusQuery(config);
  } else if (workload == "sensor_stream") {
    r = perfbench::RunSensorStream(config);
  } else if (workload == "server_mixed") {
    r = perfbench::RunServerMixed(config);
  } else {
    return Usage();
  }
  for (const auto& [name, m] : r.metrics) {
    if (!std::isfinite(m.value)) r.Fail("metric " + name + " is not finite");
  }
  if (r.failed > 0) r.Fail(std::to_string(r.failed) + " statement(s) failed");

  printf("workload %s, seed %llu, %.0f s, trace %d\n", workload.c_str(),
         static_cast<unsigned long long>(config.seed), config.seconds, trace);
  PrintFigures(r, config.trace);
  for (const std::string& p : r.problems) {
    printf("CHECK FAILED: %s\n", p.c_str());
  }
  printf("%s\n", perfbench::ResultJson(r).c_str());
  fflush(stdout);
  return 0;
}
