// server_mixed: the only workload that crosses the server layer. An
// in-process server::Server over a SharedCatalog holding a noisy census
// of 2000 records, attached durably (SAVE DATABASE through a
// CountingEnv) before Publish(). kClients client connections, each on
// its own thread, run a closed loop: 95% reads drawn Zipf from a fixed
// pool of kPool statements, 5% durable INSERTs into a side relation.
// Every write publishes a new catalog version, which also retires the
// server's result-cache entries (keyed on the version).
//
// The traced phase cannot span the server's insides, so it probes them.
// After every kProbeEvery-th read a client (1) runs the same statement
// in-process on a SnapshotCopy() through TracedRead, which gives the
// sql and core layers their spans under this load, and (2) sends
// kProbeSql, a statement whose execution takes microseconds, with a
// unique trailing comment (a result-cache miss by construction), then
// runs it in-process too. Its round trip minus its in-process time is
// server.overhead_ms: TCP I/O, dispatch, queueing and the COW copy.
// A cheap probe keeps that difference from drowning in the run-to-run
// noise of a multi-millisecond execution.
#include <algorithm>
#include <memory>
#include <thread>

#include "counting_env.h"
#include "server/client.h"
#include "server/server.h"
#include "server/shared_catalog.h"
#include "statement.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kRecords = 2000;
constexpr double kNoise = 0.01;
constexpr size_t kPool = 96;
constexpr double kPoolSkew = 0.6;
constexpr int kClients = 2;
constexpr double kWriteShare = 0.05;
constexpr double kWarmupS = 1.0;
constexpr size_t kProbeEvery = 8;
const char* const kProbeSql =
    "SELECT ECOUNT() FROM states WHERE REGION = 'West'";

struct Rig {
  CountingEnv env;
  std::unique_ptr<maybms::server::SharedCatalog> catalog;
  std::unique_ptr<maybms::server::Server> server;
  std::string db_path;

  ~Rig() {
    if (server) server->Stop();
  }
};

std::unique_ptr<Rig> SetUp(const CensusInput& input, const std::string& dir,
                           double* seconds) {
  ResetDir(dir);
  auto rig = std::make_unique<Rig>();
  rig->db_path = dir + "/server.db";
  const Clock::time_point start = Clock::now();
  rig->catalog = std::make_unique<maybms::server::SharedCatalog>();
  maybms::sql::Session* writer = rig->catalog->setup_session();
  writer->set_env(&rig->env);
  bool ok = LoadCensus(writer, input).ok() &&
            writer->Execute("CREATE TABLE audit (who INT, seq INT)").ok() &&
            writer->Execute("SAVE DATABASE '" + rig->db_path + "'").ok();
  if (ok) {
    rig->catalog->Publish();
    maybms::server::ServerOptions options;
    options.workers = kClients;
    auto started = maybms::server::Server::Start(rig->catalog.get(), options);
    ok = started.ok();
    if (ok) rig->server = std::move(*started);
  }
  *seconds = MsSince(start) / 1000.0;
  return ok ? std::move(rig) : nullptr;
}

/// The read pool and each statement's expected response lines and
/// answer digest, computed in-process on the published census. Writes
/// only touch the side relation, so these stay the answers at every
/// later version.
/// The last entry is kProbeSql. The pool is the same for every seed (the
/// seed varies the census and each client's draws), so runs of
/// different seeds ask the same statements at the same popularity.
struct Pool {
  std::vector<std::string> texts;
  std::vector<std::vector<std::string>> lines;
  std::vector<uint64_t> digests;
};

bool MakePool(const Rig& rig, Pool* pool) {
  InputRng rng(0x706f6f6cULL);
  maybms::sql::Session session(rig.catalog->SnapshotCopy());
  for (size_t i = 0; i <= kPool; ++i) {
    // Rank i has shape i % kCensusShapes: every shape among the hottest.
    pool->texts.push_back(
        i < kPool ? CensusStatement(&rng, int(i % kCensusShapes)) : kProbeSql);
    auto r = session.Execute(pool->texts.back());
    if (!r.ok()) return false;
    pool->lines.push_back(maybms::server::SplitLines(r->ToDisplayString()));
    pool->digests.push_back(DigestResult(*r));
  }
  return true;
}

/// What one client saw in one phase.
struct ClientLog {
  Latencies reads, writes;
  std::vector<double> done_s;  ///< completion times of measured requests
  uint64_t acked_writes = 0;   ///< whole phase, warm-up included
  uint64_t mismatches = 0;
  std::string error;
  Tracer tracer;
};

struct Phase {
  Clock::time_point window_start;
  Clock::time_point window_end;
  bool traced = false;
};

/// The traced phase's probes after read `idx`; see the file comment.
void Probe(const Rig& rig, const Pool& pool, size_t idx, int c, uint64_t seq,
           maybms::server::Client* client, maybms::sql::Session* session,
           ClientLog* log) {
  {
    Span copy("server.snapshot_copy");
    session->db() = rig.catalog->SnapshotCopy();
  }
  double ms = 0.0;
  maybms::Result<uint64_t> d = TracedRead(session, pool.texts[idx], &ms);
  if (!d.ok() || *d != pool.digests[idx]) log->mismatches++;

  const size_t probe = pool.texts.size() - 1;
  const Clock::time_point start = Clock::now();
  auto resp = client->Execute(pool.texts[probe] + " -- probe " +
                              std::to_string(c) + "." + std::to_string(seq));
  const double rtt_ms = MsSince(start);
  if (!resp.ok() || !resp->ok || resp->lines != pool.lines[probe]) {
    log->mismatches++;
    return;
  }
  d = TracedRead(session, pool.texts[probe], &ms);
  if (!d.ok() || *d != pool.digests[probe]) log->mismatches++;
  log->tracer.Sample("server.overhead_ms", rtt_ms - ms);
}

void ClientLoop(const Rig& rig, const Pool& pool, const Phase& phase,
                uint64_t seed, int c, ClientLog* log) {
  Tracer::Install install(phase.traced ? &log->tracer : nullptr);
  auto client = maybms::server::Client::Connect(rig.server->port());
  if (!client.ok()) {
    log->error = client.status().ToString();
    return;
  }
  InputRng rng(seed * 0xa0761d6478bd642fULL + 17 * uint64_t(c + 1));
  maybms::sql::Session probe_session;
  uint64_t seq = 0, reads = 0;
  while (Clock::now() < phase.window_end) {
    const bool write = rng.Uniform() < kWriteShare;
    const size_t idx = write ? 0 : rng.Zipf(kPool, kPoolSkew);
    const bool probe = phase.traced && !write && reads++ % kProbeEvery == 0;
    const std::string text =
        write ? "INSERT INTO audit VALUES (" + std::to_string(c) + ", " +
                    std::to_string(seq) + ")"
              : pool.texts[idx];
    ++seq;
    const Clock::time_point start = Clock::now();
    auto resp = client->Execute(text);
    const double ms = MsSince(start);
    const bool measured = start >= phase.window_start;
    Latencies& lat = write ? log->writes : log->reads;
    if (!resp.ok() || !resp->ok) {
      if (measured) lat.AddFailed();
      if (log->error.empty()) {
        log->error = resp.ok() ? resp->error : resp.status().ToString();
      }
      continue;
    }
    if (write) {
      log->acked_writes++;
    } else if (resp->lines != pool.lines[idx]) {
      log->mismatches++;
    }
    if (measured) {
      lat.Add(ms);
      log->done_s.push_back(
          std::chrono::duration<double>(Clock::now() - phase.window_start)
              .count());
    }
    if (probe) Probe(rig, pool, idx, c, seq, &*client, &probe_session, log);
  }
}

struct PhaseResult {
  Latencies reads, writes;
  double ops_per_s = 0.0;
  uint64_t acked_writes = 0;
  double window_s = 0.0;
  size_t limbo_max = 0;
  Tracer tracer;
};

void RunPhase(const Rig& rig, const Pool& pool, uint64_t seed, double seconds,
              bool traced, PhaseResult* out, RunResult* result) {
  Phase phase;
  phase.traced = traced;
  phase.window_start =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kWarmupS));
  phase.window_end =
      phase.window_start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  out->window_s = seconds;
  std::vector<ClientLog> logs(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back(ClientLoop, std::cref(rig), std::cref(pool),
                         std::cref(phase), seed, c, &logs[c]);
  }
  // Epoch limbo is sampled only when traced: polling takes the epoch
  // manager's lock, which the untraced phase must not pay for.
  while (traced && Clock::now() < phase.window_end) {
    out->limbo_max = std::max(out->limbo_max, rig.catalog->RetiredVersions());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (std::thread& t : clients) t.join();

  std::vector<double> done;
  for (ClientLog& log : logs) {
    if (!log.error.empty()) result->Fail("client error: " + log.error);
    if (log.mismatches > 0) {
      result->Fail(std::to_string(log.mismatches) +
                   " read response(s) differ from the expected answer");
    }
    out->reads.Merge(log.reads);
    out->writes.Merge(log.writes);
    out->acked_writes += log.acked_writes;
    done.insert(done.end(), log.done_s.begin(), log.done_s.end());
    out->tracer.Absorb(log.tracer);
  }
  // Requests completed per one-second slice of the window; the median
  // slice is the throughput.
  std::vector<double> per_slice(static_cast<size_t>(seconds + 0.5), 0.0);
  for (double t : done) {
    const size_t k = static_cast<size_t>(t);
    if (k < per_slice.size()) per_slice[k] += 1.0;
  }
  out->ops_per_s = Median(per_slice);
}

}  // namespace

RunResult RunServerMixed(const RunConfig& config) {
  RunResult out;
  const CensusInput input = MakeCensus(config.seed, kRecords, kNoise);
  const std::string dir = config.work_dir + "/server_mixed";
  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  for (int i = 0; i < (config.trace ? 1 : kSetups); ++i) {
    double secs = 0.0;
    rig.reset();
    rig = SetUp(input, dir, &secs);
    if (!rig) {
      out.Fail("set-up failed");
      return out;
    }
    setup_s.push_back(secs);
  }
  Pool pool;
  if (!MakePool(*rig, &pool)) {
    out.Fail("a read statement of the pool failed in-process");
    return out;
  }

  PhaseResult untraced;
  RunPhase(*rig, pool, config.seed,
           config.trace ? config.seconds / 2 : config.seconds, false,
           &untraced, &out);
  uint64_t acked = untraced.acked_writes;
  out.attempted = untraced.reads.attempted() + untraced.writes.attempted();
  out.failed = untraced.reads.failed() + untraced.writes.failed();
  out.samples = {{"read", untraced.reads.attempted()},
                 {"write", untraced.writes.attempted()}};

  PhaseResult traced;
  maybms::server::ServerCounters before{};
  if (config.trace) {
    rig->env.Reset();
    before = rig->server->counters();
    RunPhase(*rig, pool, config.seed, config.seconds / 2, true, &traced, &out);
    acked += traced.acked_writes;
    out.attempted += traced.reads.attempted() + traced.writes.attempted();
    out.failed += traced.reads.failed() + traced.writes.failed();
  }
  const maybms::server::ServerCounters after = rig->server->counters();
  const CountingEnv::Counts io = rig->env.Get();

  // Durability check: every acknowledged INSERT survives a reload of
  // the snapshot plus log.
  rig->server->Stop();
  maybms::sql::Session fresh;
  const Clock::time_point reload = Clock::now();
  const bool loaded =
      fresh.Execute("LOAD DATABASE '" + rig->db_path + "'").ok();
  const double recover_ms = MsSince(reload);
  auto count = fresh.Execute("SELECT ECOUNT() FROM audit");
  if (!loaded || !count.ok() || count->table.NumRows() != 1 ||
      count->table.row(0)[0].as_double() != double(acked)) {
    out.Fail("reloaded audit relation does not hold the " +
             std::to_string(acked) + " acknowledged writes");
  }

  SetWorkloadFigure(&out, config.trace, "write_ms_p50",
                    untraced.writes.Quantile(0.50), "ms");
  SetWorkloadFigure(&out, config.trace, "write_ms_p95",
                    untraced.writes.Quantile(0.95), "ms");
  SetWorkloadFigure(&out, config.trace, "ingest_events_per_s",
                    double(untraced.writes.attempted()) / untraced.window_s,
                    "1/s");
  if (!config.trace) {
    SetCommonMetrics(&out, setup_s, untraced.reads);
    out.Set("ops_per_s", untraced.ops_per_s, "1/s");
    return out;
  }
  SetLayerMetrics(&out, traced.tracer.Summarize(), traced.tracer.samples(), 0);
  const uint64_t hits = after.result_cache_hits - before.result_cache_hits;
  const uint64_t lookups =
      hits + (after.result_cache_misses - before.result_cache_misses);
  if (lookups > 0) {
    out.Set("server.result_cache_hit_ratio", double(hits) / double(lookups),
            "ratio");
  }
  out.Set("server.rejected",
          double((after.rejected_overload - before.rejected_overload) +
                 (after.rejected_rate_limit - before.rejected_rate_limit)),
          "count");
  out.Set("server.epoch_limbo_max", double(traced.limbo_max), "count");
  SetStorageMetrics(&out, io, double(traced.acked_writes));
  out.Set("storage.recover_ms", recover_ms, "ms");
  SetTraceOverhead(&out, traced.reads.Quantile(0.5),
                   untraced.reads.Quantile(0.5));
  FillMissingLayerMetrics(&out);
  return out;
}

}  // namespace perfbench
