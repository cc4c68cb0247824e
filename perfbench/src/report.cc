#include <algorithm>
#include <filesystem>
#include <fstream>

#include "workloads.h"

namespace perfbench {

double ChunkedRate(const std::vector<double>& ms) {
  constexpr double chunk_ms = 1000.0;
  std::vector<double> rates;
  double sum = 0.0;
  size_t n = 0;
  for (double x : ms) {
    sum += x;
    ++n;
    if (sum >= chunk_ms) {
      rates.push_back(1000.0 * static_cast<double>(n) / sum);
      sum = 0.0;
      n = 0;
    }
  }
  // A short tail chunk only counts when there is nothing else.
  if (rates.empty() && n > 0) rates.push_back(1000.0 * n / sum);
  return Median(rates);
}

void SetCommonMetrics(RunResult* out, const std::vector<double>& setup_s,
                      const Latencies& reads) {
  out->Set("setup_s", Median(setup_s), "s");
  out->Set("read_ms_p50", reads.Quantile(0.50), "ms");
  out->Set("read_ms_p95", reads.Quantile(0.95), "ms");
  if (!reads.Supports(0.95)) {
    out->Fail("read_ms_p95 rests on fewer than " +
              std::to_string(kMinTailSamples) + " samples beyond it (" +
              std::to_string(reads.attempted()) + " reads)");
  }
  out->Set("peak_rss_mb", PeakRssMb(), "MB");
}

void SetWorkloadFigure(RunResult* out, bool traced_run, const std::string& name,
                       double value, const std::string& unit) {
  if (traced_run) {
    out->Set("untraced." + name, value, unit);
  } else {
    out->info[name] = {value, unit};
  }
}

void SetConfCacheMetrics(RunResult* out,
                         const maybms::MaterializedConf::Stats& before,
                         const maybms::MaterializedConf::Stats& after) {
  const uint64_t hits = after.hits - before.hits;
  const uint64_t lookups = hits + (after.misses - before.misses);
  if (lookups > 0) {
    out->Set("core.conf_cache_hit_ratio", double(hits) / double(lookups),
             "ratio");
  }
  out->Set("core.conf_cache_evictions",
           double(after.evictions - before.evictions), "count");
  out->Set("core.conf_cache_entries", double(after.entries), "count");
}

void SetStorageMetrics(RunResult* out, const CountingEnv::Counts& io,
                       double events) {
  out->Set("storage.wal_syncs", double(io.wal_syncs), "count");
  out->Set("storage.wal_sync_ms", Median(io.wal_sync_ms), "ms");
  if (events > 0) {
    out->Set("storage.wal_bytes_per_event", double(io.wal_bytes) / events,
             "B");
  }
  out->Set("storage.checkpoints", double(io.snapshot_renames), "count");
}

void SetTraceOverhead(RunResult* out, double traced_p50, double untraced_p50) {
  out->Set("trace.overhead_pct",
           100.0 * (traced_p50 - untraced_p50) / untraced_p50, "%");
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"sql.parse_ms", "ms"},
      {"sql.plan_ms", "ms"},
      {"sql.optimize_ms", "ms"},
      {"sql.est_rows_error", "log2"},
      {"sql.share", "ratio"},
      {"core.lifted_ms", "ms"},
      {"core.lifted_share", "ratio"},
      {"core.lifted_rows_out", "rows"},
      {"core.cluster_index_ms", "ms"},
      {"core.clusters", "count"},
      {"core.confidence_ms", "ms"},
      {"core.confidence_share", "ratio"},
      {"core.conf_cache_hit_ratio", "ratio"},
      {"core.conf_cache_evictions", "count"},
      {"core.conf_cache_entries", "count"},
      {"core.delta_apply_ms", "ms"},
      {"core.delta_share", "ratio"},
      {"core.delta_dirty_components", "count"},
      {"storage.wal_syncs", "count"},
      {"storage.wal_sync_ms", "ms"},
      {"storage.wal_bytes_per_event", "B"},
      {"storage.checkpoints", "count"},
      {"storage.checkpoint_ms", "ms"},
      {"storage.recover_ms", "ms"},
      {"storage.share", "ratio"},
      {"server.overhead_ms", "ms"},
      {"server.snapshot_copy_ms", "ms"},
      {"server.result_cache_hit_ratio", "ratio"},
      {"server.rejected", "count"},
      {"server.epoch_limbo_max", "count"},
      {"trace.overhead_pct", "%"},
      {"trace.coverage", "ratio"},
      {"untraced.write_ms_p50", "ms"},
      {"untraced.write_ms_p95", "ms"},
      {"untraced.tick_ms_p50", "ms"},
      {"untraced.tick_ms_p95", "ms"},
      {"untraced.ingest_events_per_s", "1/s"},
  };
  return kMetrics;
}

void FillMissingLayerMetrics(RunResult* out) {
  for (const auto& [name, unit] : PerLayerMetrics()) {
    if (!out->metrics.count(name)) out->Set(name, 0.0, unit);
  }
}

void SetLayerMetrics(RunResult* out, const Tracer::Summary& summary,
                     const std::map<std::string, std::vector<double>>& samples,
                     double min_coverage) {
  auto self_median = [&](const char* span, const char* metric) {
    auto it = summary.by_name.find(span);
    if (it != summary.by_name.end()) {
      out->Set(metric, Median(it->second.self_ms), "ms");
    }
  };
  // Share of statement time spent in the spans whose names start with
  // `prefix` ("core.lifted" is one span, "sql." a whole layer).
  auto share = [&](const std::string& prefix, const char* metric) {
    if (summary.stmt_sum_ms <= 0) return;
    double ms = 0.0;
    for (const auto& [name, ns] : summary.by_name) {
      if (name.compare(0, prefix.size(), prefix) == 0) ms += ns.in_stmt_ms;
    }
    out->Set(metric, ms / summary.stmt_sum_ms, "ratio");
  };
  self_median("sql.parse", "sql.parse_ms");
  self_median("sql.plan", "sql.plan_ms");
  self_median("sql.optimize", "sql.optimize_ms");
  self_median("core.lifted", "core.lifted_ms");
  self_median("core.confidence", "core.confidence_ms");
  self_median("core.cluster_index", "core.cluster_index_ms");
  self_median("core.delta_apply", "core.delta_apply_ms");
  self_median("server.snapshot_copy", "server.snapshot_copy_ms");
  share("sql.", "sql.share");
  share("core.lifted", "core.lifted_share");
  share("core.confidence", "core.confidence_share");
  share("core.delta_apply", "core.delta_share");
  share("storage.", "storage.share");
  if (auto it = summary.by_name.find("storage.checkpoint");
      it != summary.by_name.end()) {
    out->Set("storage.checkpoint_ms", Median(it->second.total_ms), "ms");
  }
  const std::pair<const char*, const char*> kSamples[] = {
      {"core.lifted_rows_out", "rows"},
      {"sql.est_rows_error", "log2"},
      {"core.clusters", "count"},
      {"core.delta_dirty_components", "count"},
      {"server.overhead_ms", "ms"},
  };
  for (const auto& [name, unit] : kSamples) {
    auto it = samples.find(name);
    if (it != samples.end()) out->Set(name, Median(it->second), unit);
  }
  if (summary.stmt_sum_ms > 0) {
    const double coverage = summary.attributed_ms / summary.stmt_sum_ms;
    out->Set("trace.coverage", coverage, "ratio");
    if (min_coverage > 0 && coverage < min_coverage) {
      out->Fail("layer self times cover only " +
                std::to_string(100.0 * coverage) +
                "% of traced statement time; a layer is missing");
    }
  }
}

void CheckDigestsAcrossRuns(RunResult* out, const std::string& path,
                            const std::vector<uint64_t>& digests) {
  std::vector<uint64_t> earlier;
  if (std::ifstream in(path); in) {
    uint64_t d = 0;
    while (in >> d) earlier.push_back(d);
  }
  const size_t common = std::min(earlier.size(), digests.size());
  for (size_t i = 0; i < common; ++i) {
    if (earlier[i] != digests[i]) {
      out->Fail("answer digest of statement " + std::to_string(i) +
                " differs from an earlier run of the same seed");
      return;
    }
  }
  if (digests.size() > earlier.size()) {
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path());
    std::ofstream file(path, std::ios::trunc);
    for (uint64_t d : digests) file << d << "\n";
  }
}

void ResetDir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

}  // namespace perfbench
