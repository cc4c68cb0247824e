// census_query: the paper's query experiment. One embedded Session over
// a noisy census (5000 records, 1% of non-key cells or-sets of 2-4
// alternatives, plus the 51-row states table); one thread runs a closed
// loop of read-only statements from CensusStatement. Most of a
// statement's time is lifted evaluation; storage and server are never
// touched, which makes this the control workload for those layers.
#include <memory>
#include <numeric>
#include <utility>

#include "statement.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kRecords = 5000;
constexpr double kNoise = 0.01;
/// Statements run before timing, so the confidence cache and the
/// relations' statistics caches are warm.
constexpr size_t kWarmupStatements = 24;
/// Every this many measured statements, the answer is recomputed on a
/// session without the confidence cache and must match bit for bit.
constexpr size_t kOracleEvery = 8;

struct Phase {
  std::vector<std::string> texts;
  std::vector<uint64_t> digests;
  std::vector<double> ms;
  Latencies reads;
};

std::unique_ptr<maybms::sql::Session> SetUp(const CensusInput& input,
                                            double* seconds) {
  const Clock::time_point start = Clock::now();
  auto session = std::make_unique<maybms::sql::Session>();
  maybms::Status st = LoadCensus(session.get(), input);
  *seconds = MsSince(start) / 1000.0;
  if (!st.ok()) return nullptr;
  return session;
}

/// The seeded statement stream: blocks of kCensusShapes statements, each
/// block every shape once in a seeded order, so every run asks the same
/// mix of shapes however long it lasts.
class StatementStream {
 public:
  explicit StatementStream(uint64_t seed) : rng_(seed) {
    std::iota(order_, order_ + kCensusShapes, 0);
  }

  std::string Next() {
    if (next_ == kCensusShapes) {
      for (int i = kCensusShapes - 1; i > 0; --i) {
        std::swap(order_[i], order_[rng_.Below(uint64_t(i) + 1)]);
      }
      next_ = 0;
    }
    return CensusStatement(&rng_, order_[next_++]);
  }

 private:
  InputRng rng_;
  int order_[kCensusShapes];
  int next_ = kCensusShapes;
};

void WarmUp(maybms::sql::Session* session, uint64_t seed) {
  StatementStream stream(seed * 0x2545f4914f6cdd1dULL + 3);
  for (size_t i = 0; i < kWarmupStatements; ++i) {
    double ms = 0.0;
    (void)UntracedRead(session, stream.Next(), &ms);
  }
}

/// In a traced run, the twin session that runs each statement traced
/// next to the untraced run of it.
struct Shadow {
  maybms::sql::Session* session = nullptr;
  Tracer* tracer = nullptr;
  std::vector<double> ms;  ///< traced statement times
};

maybms::Result<uint64_t> RunShadow(Shadow* shadow, const std::string& text) {
  Tracer::Install install(shadow->tracer);
  double ms = 0.0;
  maybms::Result<uint64_t> d = TracedRead(shadow->session, text, &ms);
  shadow->ms.push_back(ms);
  return d;
}

/// Runs the seeded statement stream untraced for `seconds` of statement
/// time, and each statement traced on `shadow` too, if there is one.
Phase RunStream(maybms::sql::Session* session, uint64_t seed, double seconds,
                Shadow* shadow, RunResult* out) {
  Phase p;
  StatementStream stream(seed * 0x9e3779b97f4a7c15ULL + 11);
  double total_ms = 0.0;
  while (total_ms < seconds * 1000.0) {
    p.texts.push_back(stream.Next());
    // The twins take turns going first, so neither always finds the
    // caches warmed by the other.
    const bool traced_first = shadow && p.texts.size() % 2 == 0;
    maybms::Result<uint64_t> t = uint64_t{0};
    if (traced_first) t = RunShadow(shadow, p.texts.back());
    double ms = 0.0;
    maybms::Result<uint64_t> d = UntracedRead(session, p.texts.back(), &ms);
    if (shadow && !traced_first) t = RunShadow(shadow, p.texts.back());
    if (shadow && (!t.ok() || !d.ok() || *t != *d)) {
      out->Fail("traced answer differs from untraced: " + p.texts.back());
    }
    total_ms += ms;
    if (!d.ok()) {
      p.reads.AddFailed();
      p.digests.push_back(0);
      out->Fail("statement failed: " + p.texts.back() + ": " +
                d.status().ToString());
      continue;
    }
    p.reads.Add(ms);
    p.ms.push_back(ms);
    p.digests.push_back(*d);
  }
  return p;
}

void CheckAgainstOracle(const maybms::sql::Session& session, const Phase& p,
                        RunResult* out) {
  maybms::sql::Session oracle(session.db());
  oracle.mutable_options().materialize_conf = false;
  for (size_t i = 0; i < p.texts.size(); i += kOracleEvery) {
    double ms = 0.0;
    maybms::Result<uint64_t> d = UntracedRead(&oracle, p.texts[i], &ms);
    if (!d.ok() || *d != p.digests[i]) {
      out->Fail("answer with the confidence cache differs from recompute "
                "without it: " + p.texts[i]);
      return;
    }
  }
}

}  // namespace

RunResult RunCensusQuery(const RunConfig& config) {
  RunResult out;
  const CensusInput input = MakeCensus(config.seed, kRecords, kNoise);
  std::vector<double> setup_s;
  std::unique_ptr<maybms::sql::Session> session;
  for (int i = 0; i < (config.trace ? 1 : kSetups); ++i) {
    double s = 0.0;
    session = SetUp(input, &s);
    if (!session) {
      out.Fail("set-up failed");
      return out;
    }
    setup_s.push_back(s);
  }
  WarmUp(session.get(), config.seed);

  // A traced run measures half of `seconds` untraced and, in lockstep,
  // runs each statement again traced on a second session set up and
  // warmed the same way: both confidence caches evolve alike, and drift
  // in the host's speed hits both sides of trace.overhead_pct equally.
  std::unique_ptr<maybms::sql::Session> traced;
  Tracer tracer;
  Shadow shadow;
  maybms::MaterializedConf::Stats before;
  if (config.trace) {
    double s = 0.0;
    traced = SetUp(input, &s);
    if (!traced) {
      out.Fail("set-up failed");
      return out;
    }
    WarmUp(traced.get(), config.seed);
    before = traced->conf_cache()->GetStats();
    shadow.session = traced.get();
    shadow.tracer = &tracer;
  }
  const double untraced_s = config.trace ? config.seconds / 2 : config.seconds;
  Phase p = RunStream(session.get(), config.seed, untraced_s,
                      config.trace ? &shadow : nullptr, &out);
  out.attempted = p.reads.attempted();
  out.failed = p.reads.failed();
  out.samples["read"] = p.reads.attempted();
  CheckAgainstOracle(*session, p, &out);
  CheckDigestsAcrossRuns(
      &out,
      config.work_dir + "/digests/census_query-" +
          std::to_string(config.seed) + ".txt",
      p.digests);

  if (!config.trace) {
    SetCommonMetrics(&out, setup_s, p.reads);
    out.Set("ops_per_s", ChunkedRate(p.ms), "1/s");
    return out;
  }
  SetLayerMetrics(&out, tracer.Summarize(), tracer.samples(), 0.90);
  SetConfCacheMetrics(&out, before, traced->conf_cache()->GetStats());
  SetTraceOverhead(&out, Median(shadow.ms), p.reads.Quantile(0.5));
  FillMissingLayerMetrics(&out);
  return out;
}

}  // namespace perfbench
