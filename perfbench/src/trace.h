// Span recorder of the traced run. Spans are recorded only here, around
// the benchmark's calls into each layer's public functions; the engine
// itself carries no timing. A thread records into the Tracer installed
// on it; with none installed, Span is a no-op, so the untraced run pays
// nothing.
//
// Naming: a span named "stmt" is the root of one statement; a span
// "<layer>.<what>" is a call into that layer ("sql.parse",
// "core.lifted", "storage.wal_sync", ...). A span's self time is its
// duration minus the part its child spans cover. Spans opened with no
// "stmt" above them are probes: calls the statement path does not make
// (an EstimateRows or ClusterIndex beside the real work), kept out of
// statement time.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The tracer installed on the calling thread, or nullptr.
  static Tracer* Current();

  /// Installs `tracer` on the calling thread for the guard's lifetime.
  class Install {
   public:
    explicit Install(Tracer* tracer);
    ~Install();
    Install(const Install&) = delete;
    Install& operator=(const Install&) = delete;

   private:
    Tracer* previous_;
  };

  /// Opens a span under the innermost open one; returns its id.
  size_t Begin(const char* name);
  void End(size_t id);

  /// Records one sample of a per-call count ("core.lifted_rows_out").
  void Sample(const std::string& name, double value) {
    samples_[name].push_back(value);
  }

  /// Appends another (finished) tracer's spans and samples, so tracers
  /// of several threads summarize as one.
  void Absorb(const Tracer& other);

  /// Per span name, aggregated over the recorded spans.
  struct NameStats {
    std::vector<double> self_ms;   ///< one entry per span
    std::vector<double> total_ms;  ///< span durations
    double in_stmt_ms = 0.0;       ///< self time spent under a "stmt" root
  };
  struct Summary {
    std::map<std::string, NameStats> by_name;
    /// Total duration of the "stmt" roots, and the self time of every
    /// span below them (the roots' own, unattributed, self time excluded).
    double stmt_sum_ms = 0.0;
    double attributed_ms = 0.0;
  };
  Summary Summarize() const;

  const std::map<std::string, std::vector<double>>& samples() const {
    return samples_;
  }

 private:
  struct Record {
    const char* name;
    int64_t parent;  ///< -1 for a root
    Clock::time_point start;
    Clock::time_point end;
  };
  std::vector<Record> spans_;
  std::vector<size_t> open_;
  std::map<std::string, std::vector<double>> samples_;
};

/// RAII span on the calling thread's tracer (no-op without one).
class Span {
 public:
  explicit Span(const char* name)
      : tracer_(Tracer::Current()), id_(tracer_ ? tracer_->Begin(name) : 0) {}
  ~Span() {
    if (tracer_) tracer_->End(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  size_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
