// sensor_stream: writes and reads on one relation. An embedded Session,
// attached to a snapshot + WAL by SAVE DATABASE through a CountingEnv,
// holds a sliding window of 1024 sensor readings whose condition and
// temperature are or-sets of 16 sensor votes. Each tick commits one
// DeltaBatch through Session::ApplyDelta that evicts window/16 readings
// and inserts as many new ones (one WAL record, fdatasync'd before it
// applies), then asks a windowed PROB() and an ESUM through SQL. The
// log is checkpointed every kCheckpointEvery records, so checkpoints are
// 10% of commits and their stalls land inside the write tail.
#include <memory>

#include "counting_env.h"
#include "statement.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kWindow = 1024;
constexpr size_t kPerTick = kWindow / 16;
constexpr size_t kSites = 64;
constexpr size_t kSensors = 16;  ///< or-set alternatives per uncertain cell
constexpr size_t kCheckpointEvery = 10;
/// Ticks run before timing: fill the confidence cache, reach a steady
/// log length.
constexpr size_t kWarmupTicks = 4;
/// Every this many ticks both answers are recomputed on a session
/// without the confidence cache and must match bit for bit.
constexpr size_t kOracleEvery = 8;

const char* const kProbSql = "SELECT site, cond, temp, PROB() FROM readings";
const char* const kEsumSql = "SELECT ESUM(temp) FROM readings";

/// The seeded reading stream.
class Readings {
 public:
  explicit Readings(uint64_t seed) : rng_(seed * 0x9e3779b97f4a7c15ULL + 5) {}

  std::vector<maybms::CellSpec> Next() {
    static const char* const kConditions[] = {"clear", "rain", "snow"};
    static const int kTemps[] = {-2, 4, 11, 19};
    auto or_set = [&](auto value_at, size_t domain) {
      std::vector<maybms::Alternative> alts;
      std::vector<double> w(kSensors);
      double total = 0.0;
      for (double& x : w) total += x = 1.0 + double(rng_.Below(8));
      for (size_t i = 0; i < kSensors; ++i) {
        alts.push_back({value_at(rng_.Below(domain)), w[i] / total});
      }
      return maybms::CellSpec::OrSet(std::move(alts));
    };
    auto condition = [](size_t i) {
      return maybms::Value::String(kConditions[i]);
    };
    auto temperature = [](size_t i) { return maybms::Value::Int(kTemps[i]); };
    return {maybms::CellSpec::Certain(
                maybms::Value::Int(static_cast<int64_t>(rng_.Below(kSites)))),
            or_set(condition, 3), or_set(temperature, 4)};
  }

  maybms::DeltaBatch Tick() {
    maybms::DeltaBatch batch;
    batch.EvictOldest("readings", kPerTick);
    for (size_t i = 0; i < kPerTick; ++i) batch.Insert("readings", Next());
    return batch;
  }

 private:
  InputRng rng_;
};

struct Stream {
  CountingEnv env;
  maybms::sql::Session session;
  std::string db_path;
  Readings readings;

  explicit Stream(uint64_t seed) : readings(seed) {}
};

/// Creates the window, fills it, and attaches it durably.
std::unique_ptr<Stream> SetUp(uint64_t seed, const std::string& dir,
                              double* seconds) {
  ResetDir(dir);
  auto s = std::make_unique<Stream>(seed);
  maybms::DeltaBatch fill;
  for (size_t i = 0; i < kWindow; ++i) {
    fill.Insert("readings", s->readings.Next());
  }
  s->db_path = dir + "/sensor.db";

  const Clock::time_point start = Clock::now();
  s->session.set_env(&s->env);
  s->session.mutable_options().durability.auto_checkpoint_records =
      kCheckpointEvery;
  bool ok =
      s->session
          .Execute("CREATE TABLE readings (site INT, cond TEXT, temp INT)")
          .ok() &&
      s->session.ApplyDelta(fill).ok() &&
      s->session.Execute("SAVE DATABASE '" + s->db_path + "'").ok();
  *seconds = MsSince(start) / 1000.0;
  return ok ? std::move(s) : nullptr;
}

/// One tick's timings and answers.
struct Tick {
  double write_ms = 0.0;
  double read_ms[2] = {0.0, 0.0};
  uint64_t digest[2] = {0, 0};
  bool ok = true;
};

Tick RunTick(Stream* s, const maybms::DeltaBatch& batch, bool traced) {
  Tick t;
  const Clock::time_point start = Clock::now();
  if (!traced) {
    t.ok = s->session.ApplyDelta(batch).ok();
  } else {
    // The commit as ApplyDelta and its auto-checkpoint make it, with the
    // checkpoint called explicitly so it gets its own span.
    Span stmt("stmt");
    size_t dirty = 0;
    {
      Span apply("core.delta_apply");
      maybms::Result<maybms::DeltaEffects> effects =
          s->session.ApplyDelta(batch);
      t.ok = effects.ok();
      if (t.ok) dirty = effects->dirty_components.size();
    }
    if (t.ok && s->session.wal_record_count() >= kCheckpointEvery) {
      Span checkpoint("storage.checkpoint");
      t.ok = s->session.Checkpoint().ok();
    }
    Tracer::Current()->Sample("core.delta_dirty_components", double(dirty));
  }
  t.write_ms = MsSince(start);
  const char* const queries[] = {kProbSql, kEsumSql};
  for (int q = 0; q < 2; ++q) {
    maybms::Result<uint64_t> d =
        traced ? TracedRead(&s->session, queries[q], &t.read_ms[q])
               : UntracedRead(&s->session, queries[q], &t.read_ms[q]);
    t.ok = t.ok && d.ok();
    t.digest[q] = d.ok() ? *d : 0;
  }
  return t;
}

bool MatchesOracle(const Stream& s, const Tick& t) {
  maybms::sql::Session oracle(s.session.db());
  oracle.mutable_options().materialize_conf = false;
  const char* const queries[] = {kProbSql, kEsumSql};
  for (int q = 0; q < 2; ++q) {
    double ms = 0.0;
    maybms::Result<uint64_t> d = UntracedRead(&oracle, queries[q], &ms);
    if (!d.ok() || *d != t.digest[q]) return false;
  }
  return true;
}

/// Reloads the snapshot plus log into a fresh session and checks it
/// answers as the live one last did; returns the reload time in ms.
double CheckRecovery(const Stream& s, const Tick& last, RunResult* out) {
  maybms::sql::Session fresh;
  const Clock::time_point start = Clock::now();
  const bool loaded =
      fresh.Execute("LOAD DATABASE '" + s.db_path + "'").ok();
  const double ms = MsSince(start);
  const char* const queries[] = {kProbSql, kEsumSql};
  for (int q = 0; loaded && q < 2; ++q) {
    double unused = 0.0;
    maybms::Result<uint64_t> d = UntracedRead(&fresh, queries[q], &unused);
    if (!d.ok() || *d != last.digest[q]) {
      out->Fail("recovered database answers differently from the live one");
      return ms;
    }
  }
  if (!loaded) out->Fail("LOAD DATABASE of the sensor snapshot failed");
  return ms;
}

}  // namespace

RunResult RunSensorStream(const RunConfig& config) {
  RunResult out;
  const std::string dir = config.work_dir + "/sensor_stream";
  std::vector<double> setup_s;
  std::unique_ptr<Stream> s;
  for (int i = 0; i < (config.trace ? 1 : kSetups); ++i) {
    double secs = 0.0;
    s.reset();  // closes the previous attachment before its files go
    s = SetUp(config.seed, dir + "/main", &secs);
    if (!s) {
      out.Fail("set-up failed");
      return out;
    }
    setup_s.push_back(secs);
  }
  for (size_t i = 0; i < kWarmupTicks; ++i) {
    RunTick(s.get(), s->readings.Tick(), false);
  }

  // A traced run measures half of `seconds` untraced and, in lockstep,
  // runs each tick again traced on a twin stream set up and warmed the
  // same way, so drift in the host's speed hits both sides of
  // trace.overhead_pct equally. The twin checkpoints from RunTick
  // instead of from inside ApplyDelta, at the same commits.
  std::unique_ptr<Stream> twin;
  Tracer tracer;
  std::vector<double> traced_reads;
  maybms::MaterializedConf::Stats before;
  if (config.trace) {
    double secs = 0.0;
    twin = SetUp(config.seed, dir + "/traced", &secs);
    if (!twin) {
      out.Fail("set-up failed");
      return out;
    }
    for (size_t i = 0; i < kWarmupTicks; ++i) {
      RunTick(twin.get(), twin->readings.Tick(), false);
    }
    twin->session.mutable_options().durability.auto_checkpoint_records = 0;
    twin->env.Reset();
    before = twin->session.conf_cache()->GetStats();
  }

  // Ticks until `seconds` (half of them when traced) of untraced tick
  // time have been measured.
  const double budget_ms =
      1000.0 * (config.trace ? config.seconds / 2 : config.seconds);
  Latencies reads, writes, ticks;
  std::vector<double> stmt_ms;
  size_t done = 0;
  Tick last, last_traced;
  double total_ms = 0.0, commit_ms = 0.0;
  while (total_ms < budget_ms) {
    // The twins take turns going first, so neither always finds the
    // caches warmed by the other.
    const bool traced_first = twin && done % 2 == 1;
    auto run_traced = [&] {
      Tracer::Install install(&tracer);
      last_traced = RunTick(twin.get(), twin->readings.Tick(), true);
      traced_reads.push_back(last_traced.read_ms[0]);
      traced_reads.push_back(last_traced.read_ms[1]);
    };
    if (traced_first) run_traced();
    const Tick t = RunTick(s.get(), s->readings.Tick(), false);
    if (twin && !traced_first) run_traced();
    if (twin && (!last_traced.ok || last_traced.digest[0] != t.digest[0] ||
                 last_traced.digest[1] != t.digest[1])) {
      out.Fail("traced tick " + std::to_string(done) +
               " answers differently from untraced");
    }
    const double tick_ms = t.write_ms + t.read_ms[0] + t.read_ms[1];
    total_ms += tick_ms;
    if (!t.ok) {
      writes.AddFailed();
      ticks.AddFailed();
      out.Fail("tick " + std::to_string(done) + " failed");
      break;
    }
    writes.Add(t.write_ms);
    ticks.Add(tick_ms);
    commit_ms += t.write_ms;
    for (double ms : {t.write_ms, t.read_ms[0], t.read_ms[1]}) {
      stmt_ms.push_back(ms);
    }
    reads.Add(t.read_ms[0]);
    reads.Add(t.read_ms[1]);
    if (done % kOracleEvery == 0 && !MatchesOracle(*s, t)) {
      out.Fail("incremental answer differs from recompute without the "
               "confidence cache at tick " + std::to_string(done));
    }
    last = t;
    ++done;
  }
  out.attempted = reads.attempted() + writes.attempted();
  out.failed = reads.failed() + writes.failed();
  out.samples = {{"read", reads.attempted()},
                 {"write", writes.attempted()},
                 {"tick", ticks.attempted()}};
  if (done == 0) {
    out.Fail("no tick completed");
    return out;
  }
  CheckRecovery(*s, last, &out);

  const double events = double(done * kPerTick);
  SetWorkloadFigure(&out, config.trace, "write_ms_p50", writes.Quantile(0.50),
                    "ms");
  SetWorkloadFigure(&out, config.trace, "write_ms_p95", writes.Quantile(0.95),
                    "ms");
  SetWorkloadFigure(&out, config.trace, "tick_ms_p50", ticks.Quantile(0.50),
                    "ms");
  SetWorkloadFigure(&out, config.trace, "tick_ms_p95", ticks.Quantile(0.95),
                    "ms");
  SetWorkloadFigure(&out, config.trace, "ingest_events_per_s",
                    1000.0 * events / commit_ms, "1/s");
  if (!config.trace) {
    SetCommonMetrics(&out, setup_s, reads);
    out.Set("ops_per_s", ChunkedRate(stmt_ms), "1/s");
    return out;
  }
  SetLayerMetrics(&out, tracer.Summarize(), tracer.samples(), 0.90);
  SetConfCacheMetrics(&out, before, twin->session.conf_cache()->GetStats());
  SetStorageMetrics(&out, twin->env.Get(), events);
  out.Set("storage.recover_ms", CheckRecovery(*twin, last_traced, &out), "ms");
  SetTraceOverhead(&out, Median(traced_reads), reads.Quantile(0.5));
  FillMissingLayerMetrics(&out);
  return out;
}

}  // namespace perfbench
