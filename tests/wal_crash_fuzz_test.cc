// Crash-point sweep: run a mutating workload on the fault-injecting env,
// kill the "process" at EVERY I/O operation index in turn (including
// mid-SAVE, mid-CHECKPOINT, mid-auto-checkpoint, and mid-WAL-append,
// with randomized torn tails), recover, reload, and check the recovered
// database against an in-memory oracle. Workloads mix SQL statements
// with DeltaBatches applied through Session::ApplyDelta, and one starts
// from a LOAD of a committed v2 snapshot instead of a SAVE. Every record
// read back from a recovered log must be a kDelta record: each
// statement kind is logged as the delta batch it lowers to.
//
// Admissibility: with log-before-apply, the failures form a prefix — if
// the first failed statement is number F, every earlier statement was
// acknowledged (hence durable) and every later mutation failed. The
// recovered database must therefore equal the oracle state after F
// statements, or after F+1 (statement F's log record may have survived
// the tear even though its ack never arrived). A missing snapshot is
// admissible only when the initial SAVE itself never acknowledged.
//
// Iteration count: MAYBMS_WAL_FUZZ_ITERS randomized workload rounds on
// top of the deterministic base sweep (default 2; the "fuzz"-labelled
// ctest entry raises it for the sanitizer matrix).
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/string_util.h"
#include "core/delta.h"
#include "sql/session.h"
#include "storage/io_env.h"
#include "storage/wal.h"
#include "tests/test_util.h"

namespace maybms {
namespace sql {
namespace {

size_t FuzzRounds() {
  const char* env = std::getenv("MAYBMS_WAL_FUZZ_ITERS");
  return env ? static_cast<size_t>(std::atoll(env)) : 2;
}

// One workload step: a SQL statement, or a delta batch applied through
// Session::ApplyDelta. A batch is built from the session's database when
// the step runs, so it can name the newest live component.
struct Step {
  std::string label;  ///< the SQL text, or a description of the batch
  std::function<DeltaBatch(const WsdDb&)> batch;  ///< null for SQL
};

std::vector<Step> Sql(const std::vector<std::string>& statements) {
  std::vector<Step> steps;
  for (const std::string& sql : statements) steps.push_back({sql, nullptr});
  return steps;
}

// Inserts an or-set into `u`, allocating a fresh component.
Step InsertOrSet(int a, int b) {
  return {StrFormat("ApplyDelta: insert {%d, %d} into u", a, b),
          [a, b](const WsdDb&) {
            DeltaBatch batch;
            batch.Insert("u", {CellSpec::OrSet({{Value::Int(a), 0.5},
                                                {Value::Int(b), 0.5}})});
            return batch;
          }};
}

// Reweights and overwrites a cell of the newest live component. After a
// DELETE ... OLDEST collected the highest component, the newest one sits
// above every id a base without the component counter would allocate,
// so replay from such a base would miss it.
Step TouchNewest(int value) {
  return {StrFormat("ApplyDelta: reweight + set %d on the newest component",
                    value),
          [value](const WsdDb& db) {
            DeltaBatch batch;
            const std::vector<ComponentId> live = db.LiveComponents();
            if (live.empty()) {
              // Only after an earlier failure; the batch then fails too.
              batch.Reweight(kInvalidComponent, {1.0});
              return batch;
            }
            const size_t rows = db.component(live.back()).NumRows();
            std::vector<double> probs(rows, rows > 1 ? 0.1 / (rows - 1) : 1.0);
            if (rows > 1) probs[0] = 0.9;
            batch.Reweight(live.back(), std::move(probs))
                .SetCell(live.back(), 0, 0, Value::Int(value));
            return batch;
          }};
}

// Puts an or-set into the empty table `u` and evicts it again, so the
// id counter runs ahead of the highest live id; then inserts and
// touches the new newest component through delta batches, and empties
// `u` again.
std::vector<Step> CounterAheadBlock(int a, bool checkpoint) {
  std::vector<Step> steps = Sql({
      StrFormat("INSERT INTO u VALUES ({%d: 0.5, %d: 0.5})", a, a + 1),
      "DELETE FROM u OLDEST 1",
  });
  if (checkpoint) steps.push_back({"CHECKPOINT", nullptr});
  steps.push_back(InsertOrSet(a + 2, a + 3));
  steps.push_back(TouchNewest(a + 4));
  steps.push_back({"DELETE FROM u OLDEST 1", nullptr});
  return steps;
}

void Append(std::vector<Step>* w, std::vector<Step> more) {
  for (Step& step : more) w->push_back(std::move(step));
}

Status RunStep(Session* s, const Step& step) {
  if (step.batch) return s->ApplyDelta(step.batch(s->db())).status();
  return s->Execute(step.label).status();
}

// The deterministic base workload: SAVE first (attaching the WAL), then
// every mutating statement kind plus an explicit CHECKPOINT in the
// middle.
std::vector<Step> BaseWorkload() {
  return Sql({
      "SAVE DATABASE 'db'",
      "CREATE TABLE t (x INT, w DOUBLE)",
      // Certain duplicate keys: REPAIR KEY (which needs certain key
      // values) then turns the conflict into fresh components, so its
      // replay exercises component-id allocation determinism.
      "INSERT INTO t VALUES (1, 1.5)",
      "INSERT INTO t VALUES (1, 2.0)",
      "INSERT INTO t VALUES (3, 2.0)",
      "REPAIR KEY (x) IN t WEIGHT BY w",
      "CHECKPOINT",
      "INSERT INTO t VALUES ({4: 0.5, 5: 0.5}, 1.0)",
      "ENFORCE CHECK (x >= 0) ON t",
      "DELETE FROM t OLDEST 1",
      "CREATE TABLE side (y STRING)",
      "DROP TABLE side",
      "INSERT INTO t VALUES (6, 0.5)",
  });
}

// Starts from a durable LOAD of a committed v2 snapshot (the paper's
// medical example), which stores no component counter. Its first
// CHECKPOINT must write a v3 base that does, or the delta batches after
// it recover against the wrong component ids.
std::vector<Step> V2BaseWorkload() {
  std::vector<Step> w = Sql({
      "LOAD DATABASE 'db'",
      "CREATE TABLE t (x INT, w DOUBLE)",
      "CREATE TABLE u (v INT)",
      "INSERT INTO R VALUES ({'flu': 0.5, 'cold': 0.5}, 'swab', 'fever')",
  });
  Append(&w, CounterAheadBlock(1, /*checkpoint=*/true));
  Append(&w, Sql({"INSERT INTO t VALUES (1, 1.5)", "DELETE FROM R OLDEST 1"}));
  Append(&w, CounterAheadBlock(10, /*checkpoint=*/false));
  return w;
}

// A randomized variant: same shape, random values and statement mix,
// plus delta batches on the newest component after DELETE ... OLDEST.
std::vector<Step> RandomWorkload(Rng* rng) {
  std::vector<Step> w = Sql({
      "SAVE DATABASE 'db'",
      "CREATE TABLE t (x INT, w DOUBLE)",
      "CREATE TABLE u (v INT)",
  });
  auto push = [&w](std::string sql) {
    w.push_back({std::move(sql), nullptr});
  };
  const size_t n = 4 + rng->NextBelow(5);
  // REPAIR KEY needs certain key values, so or-set inserts only appear
  // once the table has been repaired (after which no further repair).
  bool repaired = false;
  for (size_t i = 0; i < n; ++i) {
    switch (rng->NextBelow(7)) {
      case 0:
        if (!repaired) {
          push("REPAIR KEY (x) IN t WEIGHT BY w");
          repaired = true;
          break;
        }
        [[fallthrough]];
      case 1:
        push("CHECKPOINT");
        break;
      case 2:
        push("ENFORCE CHECK (x >= 0) ON t");
        break;
      case 3:
        push("DELETE FROM t OLDEST 1");
        break;
      case 4: {
        const int a = 1 + static_cast<int>(rng->NextBelow(8));
        Append(&w, CounterAheadBlock(a, rng->NextBernoulli(0.5)));
        break;
      }
      default: {
        const int a = 1 + static_cast<int>(rng->NextBelow(8));
        const int b = a + 1 + static_cast<int>(rng->NextBelow(8));
        if (repaired) {
          push(StrFormat(
              "INSERT INTO t VALUES ({%d: 0.5, %d: 0.5}, %d.5)", a, b,
              1 + static_cast<int>(rng->NextBelow(4))));
        } else {
          // Small key range on purpose: duplicates make the eventual
          // repair actually introduce uncertainty.
          push(StrFormat("INSERT INTO t VALUES (%d, %d.5)", a,
                                1 + static_cast<int>(rng->NextBelow(4))));
        }
        break;
      }
    }
  }
  push("INSERT INTO t VALUES (99, 1.0)");
  return w;
}

Session MakeSession(Env* env, size_t auto_checkpoint) {
  Session s;
  s.set_env(env);
  s.mutable_options().durability.auto_checkpoint_records = auto_checkpoint;
  return s;
}

// Installs the starting snapshot `base` (if any) as 'db', durably, before
// the workload's first I/O operation.
void InstallBase(FaultInjectingEnv* env, const std::string& base) {
  if (!base.empty()) MAYBMS_EXPECT_OK(AtomicWriteFile(env, "db", base));
}

// Runs the workload fault-free to collect states[i] = the database after
// the first i steps, plus the I/O op range to sweep.
struct Oracle {
  std::vector<WsdDb> states;
  uint64_t first_op = 0;  ///< ops before this one installed the base
  uint64_t total_ops = 0;
};

Oracle RunOracle(const std::vector<Step>& workload, size_t auto_checkpoint,
                 const std::string& base) {
  FaultInjectingEnv env;
  InstallBase(&env, base);
  Oracle o;
  o.first_op = env.op_count();
  Session s = MakeSession(&env, auto_checkpoint);
  o.states.push_back(s.db());
  for (const Step& step : workload) {
    Status st = RunStep(&s, step);
    EXPECT_TRUE(st.ok()) << "oracle step failed: " << step.label << ": "
                         << st.ToString();
    o.states.push_back(s.db());
  }
  o.total_ops = env.op_count();
  return o;
}

void SweepCrashPoints(const std::vector<Step>& workload,
                      size_t auto_checkpoint, uint64_t recover_salt,
                      const std::string& base = "") {
  const Oracle oracle = RunOracle(workload, auto_checkpoint, base);
  const size_t n = workload.size();
  ASSERT_GT(oracle.total_ops, oracle.first_op);

  size_t records_read = 0;
  for (uint64_t crash_op = oracle.first_op; crash_op < oracle.total_ops;
       ++crash_op) {
    FaultInjectingEnv env;
    InstallBase(&env, base);
    FaultPlan plan;
    plan.crash_at_op = crash_op;
    env.set_plan(plan);
    Session s = MakeSession(&env, auto_checkpoint);
    size_t first_fail = n;
    for (size_t i = 0; i < n; ++i) {
      if (!RunStep(&s, workload[i]).ok() && first_fail == n) first_fail = i;
    }
    if (!env.crashed()) env.Crash();
    env.set_plan(FaultPlan{});  // recovery itself runs fault-free
    Rng rng(recover_salt ^ (crash_op * 0x9e3779b97f4a7c15ull));
    env.Recover(&rng);

    auto log = wal::ReadWal(&env, "db.wal");
    if (log.ok()) {
      records_read += log->records.size();
      for (const wal::WalRecord& record : log->records) {
        EXPECT_EQ(record.type, wal::RecordType::kDelta)
            << "crash_op " << crash_op << ": lsn " << record.lsn;
      }
    }

    Session rec = MakeSession(&env, auto_checkpoint);
    auto loaded = rec.Execute("LOAD DATABASE 'db'");
    if (!loaded.ok()) {
      // Only admissible when the initial SAVE never acked — then no
      // snapshot was ever promised.
      EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound)
          << "crash_op " << crash_op << ": " << loaded.status().ToString();
      EXPECT_EQ(first_fail, 0u)
          << "crash_op " << crash_op
          << ": snapshot lost after SAVE acknowledged";
      continue;
    }
    const bool at_k =
        testing_util::DbsExactlyEqual(rec.db(), oracle.states[first_fail]);
    const bool at_k1 =
        first_fail < n &&
        testing_util::DbsExactlyEqual(rec.db(), oracle.states[first_fail + 1]);
    EXPECT_TRUE(at_k || at_k1)
        << "crash_op " << crash_op << ": recovered state matches neither "
        << first_fail << " nor " << (first_fail + 1)
        << " acked steps (of " << n << ")";

    // The recovered session must be fully serviceable and durable.
    if (rec.db().HasRelation("t")) {
      auto post = rec.Execute("INSERT INTO t VALUES (123, 1.0)");
      ASSERT_TRUE(post.ok()) << "crash_op " << crash_op
                             << ": recovered session not serviceable: "
                             << post.status().ToString();
      EXPECT_TRUE(rec.has_durable_attachment());
    }
  }
  EXPECT_GT(records_read, 0u) << "no crash point left a log record to check";
}

TEST(WalCrashFuzz, BaseWorkloadSurvivesEveryCrashPoint) {
  SweepCrashPoints(BaseWorkload(), /*auto_checkpoint=*/0,
                   /*recover_salt=*/0xC0FFEE);
}

TEST(WalCrashFuzz, AutoCheckpointSurvivesEveryCrashPoint) {
  // A tiny threshold makes several statements trigger the automatic
  // checkpoint, so the sweep crosses its snapshot-rewrite + log-reset
  // window many times.
  SweepCrashPoints(BaseWorkload(), /*auto_checkpoint=*/2,
                   /*recover_salt=*/0xBEEF);
}

TEST(WalCrashFuzz, V2BaseSurvivesEveryCrashPoint) {
  const std::string base = testing_util::ReadFixture("medical_v2.wsd");
  SweepCrashPoints(V2BaseWorkload(), /*auto_checkpoint=*/0,
                   /*recover_salt=*/0xD2, base);
  SweepCrashPoints(V2BaseWorkload(), /*auto_checkpoint=*/3,
                   /*recover_salt=*/0xD3, base);
}

TEST(WalCrashFuzz, RandomWorkloadsSurviveEveryCrashPoint) {
  const size_t rounds = FuzzRounds();
  for (size_t round = 0; round < rounds; ++round) {
    Rng rng(0x5EED + round);
    const auto workload = RandomWorkload(&rng);
    const size_t auto_checkpoint = rng.NextBelow(2) ? 0 : 3;
    SweepCrashPoints(workload, auto_checkpoint,
                     /*recover_salt=*/rng.Next());
  }
}

}  // namespace
}  // namespace sql
}  // namespace maybms
