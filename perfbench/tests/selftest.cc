// Self-tests of the benchmark's own helpers; run.py runs them before
// every workload and refuses to measure when one fails.
//
//   perfbench_selftest <scratch-dir>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "counting_env.h"
#include "statement.h"
#include "trace.h"
#include "workloads.h"

using namespace perfbench;

namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void TestPercentileRule() {
  Latencies l;
  for (int i = 1; i <= 199; ++i) l.Add(i);
  // 199 * 5% = 9.95 samples beyond p95: one short of the rule.
  EXPECT(!l.Supports(0.95));
  l.Add(200);
  EXPECT(l.Supports(0.95));
  EXPECT(l.Quantile(0.50) == 100);
  EXPECT(l.Quantile(0.95) == 190);
  EXPECT(l.Quantile(1.0) == 200);
  Latencies empty;
  EXPECT(std::isnan(empty.Quantile(0.5)));
  EXPECT(!empty.Supports(0.5));
}

void TestFailedAccounting() {
  Latencies l;
  for (int i = 0; i < 7; ++i) l.Add(1.0);
  for (int i = 0; i < 3; ++i) l.AddFailed();
  EXPECT(l.attempted() == 10);
  EXPECT(l.failed() == 3);
  // Failures sort last, as missing every latency limit.
  EXPECT(l.Quantile(0.70) == 1.0);
  EXPECT(std::isinf(l.Quantile(0.71)));
  Latencies other;
  other.Add(2.0);
  other.AddFailed();
  l.Merge(other);
  EXPECT(l.attempted() == 12 && l.failed() == 4);
  RunResult r;
  EXPECT(r.FailedRatio() == 0.0);
  r.attempted = l.attempted();
  r.failed = l.failed();
  EXPECT(r.FailedRatio() == 4.0 / 12.0);
}

void TestSeededInputs() {
  InputRng a(7), b(7), c(8);
  bool differs = false;
  for (int i = 0; i < 200; ++i) {
    const std::string sa = CensusStatement(&a);
    EXPECT(sa == CensusStatement(&b));
    differs |= sa != CensusStatement(&c);
  }
  EXPECT(differs);
  InputRng s(3);
  for (int shape = 0; shape < kCensusShapes; ++shape) {
    EXPECT(!CensusStatement(&s, shape).empty());
  }
  const CensusInput x = MakeCensus(5, 300, 0.05);
  const CensusInput y = MakeCensus(5, 300, 0.05);
  EXPECT(x.ddl == y.ddl);
  EXPECT(x.batches.size() == y.batches.size());
  for (size_t i = 0; i < x.batches.size() && i < y.batches.size(); ++i) {
    EXPECT(x.batches[i].Serialize().value() ==
           y.batches[i].Serialize().value());
  }
}

void TestCountingEnvPassesBytesThrough(const std::string& dir) {
  ResetDir(dir);
  const CensusInput input = MakeCensus(11, 300, 0.05);
  maybms::sql::Session plain, counted;
  CountingEnv env;
  counted.set_env(&env);
  EXPECT(LoadCensus(&plain, input).ok());
  EXPECT(LoadCensus(&counted, input).ok());
  EXPECT(plain.Execute("SAVE DATABASE '" + dir + "/plain.db'").ok());
  EXPECT(counted.Execute("SAVE DATABASE '" + dir + "/counted.db'").ok());
  const std::string bytes = ReadFile(dir + "/counted.db");
  EXPECT(!bytes.empty());
  EXPECT(bytes == ReadFile(dir + "/plain.db"));
  CountingEnv::Counts n = env.Get();
  EXPECT(n.snapshot_renames == 1);
  EXPECT(n.dir_syncs >= 1 && n.dir_sync_ms.size() == n.dir_syncs);
  EXPECT(n.other_bytes == bytes.size());
  // SAVE DATABASE starts a fresh log: its header is one synced write.
  EXPECT(n.wal_syncs == 1);
  const uint64_t header = n.wal_bytes;

  // One durable batch: one WAL record, one fdatasync.
  EXPECT(counted.ApplyDelta(input.batches.back()).ok());
  n = env.Get();
  EXPECT(n.wal_syncs == 2 && n.wal_sync_ms.size() == 2);
  EXPECT(n.wal_bytes > header);
  EXPECT(ReadFile(dir + "/counted.db.wal").size() == n.wal_bytes);

  // The snapshot written through the counting env, plus its log, loads
  // to the same answers as the live session.
  maybms::sql::Session loaded;
  EXPECT(loaded.Execute("LOAD DATABASE '" + dir + "/counted.db'").ok());
  InputRng rng(2);
  for (int i = 0; i < 12; ++i) {
    const std::string sql = CensusStatement(&rng, i);
    double ms = 0.0;
    auto want = UntracedRead(&counted, sql, &ms);
    auto got = UntracedRead(&loaded, sql, &ms);
    EXPECT(want.ok() && got.ok() && *want == *got);
  }
  env.Reset();
  EXPECT(env.Get().wal_syncs == 0);
}

void TestTracerSelfTime() {
  Tracer tracer;
  {
    Tracer::Install install(&tracer);
    EXPECT(Tracer::Current() == &tracer);
    Span stmt("stmt");
    {
      Span outer("core.lifted");
      Span inner("storage.wal_sync");
    }
    Span conf("core.confidence");
  }
  EXPECT(Tracer::Current() == nullptr);
  {
    Span probe("core.cluster_index");  // outside any stmt: a probe
  }
  Tracer::Summary s = tracer.Summarize();
  EXPECT(s.by_name.count("stmt") == 1);
  EXPECT(s.by_name.count("core.cluster_index") == 0);  // not installed
  const Tracer::NameStats& outer = s.by_name["core.lifted"];
  const Tracer::NameStats& inner = s.by_name["storage.wal_sync"];
  EXPECT(std::fabs(outer.self_ms[0] + inner.total_ms[0] - outer.total_ms[0]) <
         1e-9);
  EXPECT(s.attributed_ms <= s.stmt_sum_ms);
  EXPECT(inner.in_stmt_ms == inner.self_ms[0]);

  // Probes (spans with no stmt above them) stay out of statement time.
  Tracer probes;
  {
    Tracer::Install install(&probes);
    Span probe("core.cluster_index");
  }
  Tracer::Summary p = probes.Summarize();
  EXPECT(p.stmt_sum_ms == 0.0 && p.attributed_ms == 0.0);
  EXPECT(p.by_name["core.cluster_index"].in_stmt_ms == 0.0);
  tracer.Absorb(probes);
  EXPECT(tracer.Summarize().by_name.count("core.cluster_index") == 1);
}

void TestChunkedRate() {
  EXPECT(std::fabs(ChunkedRate(std::vector<double>(300, 10.0)) - 100.0) <
         1e-9);
  // One stalled chunk among three does not move the median.
  std::vector<double> ms(300, 10.0);
  ms[150] = 5000.0;
  EXPECT(std::fabs(ChunkedRate(ms) - 100.0) < 1e-9);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    fprintf(stderr, "usage: perfbench_selftest <scratch-dir>\n");
    return 2;
  }
  TestPercentileRule();
  TestFailedAccounting();
  TestSeededInputs();
  TestCountingEnvPassesBytesThrough(std::string(argv[1]) + "/selftest");
  TestTracerSelfTime();
  TestChunkedRate();
  std::filesystem::remove_all(std::string(argv[1]) + "/selftest");
  if (failures) {
    fprintf(stderr, "perfbench self-tests: %d failure(s)\n", failures);
    return 1;
  }
  fprintf(stderr, "perfbench self-tests passed\n");
  return 0;
}
