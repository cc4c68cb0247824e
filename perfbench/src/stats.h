// Measurement helpers of the end-to-end benchmark: latency samples with
// the tail-percentile rule, attempted/failed accounting, seeded input
// streams, answer digests, and the result line.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sql/session.h"
#include "storage/relation.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Samples needed beyond a percentile before it is reported: a tail
/// figure resting on fewer than this many samples is noise.
inline constexpr size_t kMinTailSamples = 10;

/// Latency samples of one statement class. A failed or refused
/// statement counts as attempted and as missing every latency limit:
/// it enters the percentiles as +infinity.
class Latencies {
 public:
  void Add(double ms) { ms_.push_back(ms); }
  void AddFailed() { ++failed_; }
  void Merge(const Latencies& other) {
    ms_.insert(ms_.end(), other.ms_.begin(), other.ms_.end());
    failed_ += other.failed_;
  }

  size_t attempted() const { return ms_.size() + failed_; }
  size_t failed() const { return failed_; }

  /// True when at least kMinTailSamples samples lie beyond quantile p.
  bool Supports(double p) const;
  /// Nearest-rank quantile p in (0, 1]; +infinity when it falls on a
  /// failed statement, NaN when nothing was attempted.
  double Quantile(double p) const;

 private:
  std::vector<double> ms_;
  size_t failed_ = 0;
};

/// Median of `xs` (NaN when empty).
double Median(std::vector<double> xs);

/// The seeded source of every generated input: the same seed gives the
/// same stream. Zipf ranks skew constants the way census values skew.
class InputRng {
 public:
  explicit InputRng(uint64_t seed);
  uint64_t Below(uint64_t n);
  /// Rank in [0, n) with exponent s (s = 0 is uniform).
  uint64_t Zipf(uint64_t n, double s);
  double Uniform();

 private:
  uint64_t state_;
};

/// Order-sensitive 64-bit digest of a relation's rows (values only, so
/// the digest does not depend on how an answer column is aliased).
uint64_t DigestRelation(const maybms::Relation& rel);
/// Digest of a statement's answer: table rows, or the world-set text.
uint64_t DigestResult(const maybms::sql::StatementResult& result);

/// Peak resident set of this process, in MiB.
double PeakRssMb();

/// One reported metric.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run prints as its last line.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Figures printed by name but kept out of the result line (see
  /// main.cc: end-to-end metrics that only some workloads have).
  std::map<std::string, Metric> info;
  /// Samples behind each timed statement class ("read", "write",
  /// "tick"), printed next to its figures.
  std::map<std::string, size_t> samples;
  /// Reasons `correct` is false, printed before the result line.
  std::vector<std::string> problems;

  /// failed_ratio: failed or refused statements over attempted ones.
  double FailedRatio() const {
    return attempted == 0 ? 0.0 : double(failed) / double(attempted);
  }

  void Fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
};

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(const RunResult& r);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
