// The benchmark's three workloads. Each builds its inputs from the seed,
// sets up several times (setup_s is the median), measures a closed loop
// for `seconds`, checks every answer outside the timed sections, and
// fills a RunResult: the end-to-end metrics when untraced, the per-layer
// metrics when traced.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/materialized_conf.h"
#include "counting_env.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for snapshots, logs and answer digests; inside
  /// the checkout the benchmark runs from.
  std::string work_dir;
};

/// Set-ups per run; setup_s reports their median.
inline constexpr int kSetups = 15;

RunResult RunCensusQuery(const RunConfig& config);
RunResult RunSensorStream(const RunConfig& config);
RunResult RunServerMixed(const RunConfig& config);

// --- shared reporting -------------------------------------------------------

/// Statements per second, as the median over consecutive chunks of about
/// one second of the given per-statement latencies (a closed loop on one
/// thread): robust against a stall that a whole-run mean would absorb.
double ChunkedRate(const std::vector<double>& ms);

/// Fills setup_s, read latencies and peak_rss_mb; ops_per_s is the
/// caller's.
void SetCommonMetrics(RunResult* out, const std::vector<double>& setup_s,
                      const Latencies& reads);

/// Per-layer metrics from a traced run's summary: median self time per
/// call, share of statement time, and the coverage check (layer self
/// times must cover at least `min_coverage` of statement time; 0 skips
/// the check).
void SetLayerMetrics(RunResult* out, const Tracer::Summary& summary,
                     const std::map<std::string, std::vector<double>>& samples,
                     double min_coverage);

/// An end-to-end figure only some workloads have (write_ms_*, tick_ms_*,
/// ingest_events_per_s): printed by name when untraced; reported as the
/// per-layer metric "untraced.<name>" by a traced run, whose untraced
/// half measured it.
void SetWorkloadFigure(RunResult* out, bool traced_run, const std::string& name,
                       double value, const std::string& unit);

/// core.conf_cache_* from the cache's counters before and after the
/// traced phase.
void SetConfCacheMetrics(RunResult* out,
                         const maybms::MaterializedConf::Stats& before,
                         const maybms::MaterializedConf::Stats& after);

/// storage.wal_* and storage.checkpoints from the counting Env; `events`
/// is what the logged commits ingested.
void SetStorageMetrics(RunResult* out, const CountingEnv::Counts& io,
                       double events);

/// trace.overhead_pct: traced minus untraced read p50, over the latter.
void SetTraceOverhead(RunResult* out, double traced_p50, double untraced_p50);

/// Every per-layer metric name with its unit, so each traced run
/// reports all of them (0 where a layer is not exercised).
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Sets every per-layer metric the run did not measure to 0.
void FillMissingLayerMetrics(RunResult* out);

/// Compares per-statement answer digests with those an earlier run of
/// the same workload and seed stored at `path` (over the statements both
/// ran), then stores the longer list.
void CheckDigestsAcrossRuns(RunResult* out, const std::string& path,
                            const std::vector<uint64_t>& digests);

/// Recursively removes and recreates `dir`.
void ResetDir(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
