// Session-level durability tests: WAL attachment on SAVE/LOAD, the
// log-before-apply ordering, every mutation logged as one kDelta record,
// recovery replay (eager and mapped, including legacy SQL-text logs),
// CHECKPOINT and the auto-checkpoint threshold, stale-log discard, and
// clean failure of LOAD DATABASE ... MAPPED / EnsureResident under
// injected I/O faults. Everything runs on the FaultInjectingEnv, so no
// real files are touched.
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

// A small uncertain database built through the query language.
void Populate(Session* s) {
  MAYBMS_ASSERT_OK(
      s->ExecuteScript("CREATE TABLE t (x INT, w DOUBLE);"
                       "INSERT INTO t VALUES ({1: 0.25, 2: 0.75}, 1.5);"
                       "INSERT INTO t VALUES (3, 2.0);")
          .status());
}

TEST(DurabilityTest, SaveAttachesWalAndLogsMutations) {
  FaultInjectingEnv env;
  Session s;
  s.set_env(&env);
  Populate(&s);
  EXPECT_FALSE(s.has_durable_attachment());

  auto saved = s.Execute("SAVE DATABASE 'db'");
  MAYBMS_ASSERT_OK(saved.status());
  EXPECT_NE(saved->message.find("logging to 'db.wal'"), std::string::npos);
  ASSERT_TRUE(s.has_durable_attachment());
  EXPECT_EQ(s.attached_path(), "db");
  EXPECT_EQ(s.wal_record_count(), 0u);
  EXPECT_TRUE(env.FileExists("db.wal"));

  MAYBMS_ASSERT_OK(
      s.Execute("INSERT INTO t VALUES (7, 1.0)").status());
  EXPECT_EQ(s.wal_record_count(), 1u);
  // SELECTs are not logged.
  MAYBMS_ASSERT_OK(s.Execute("SELECT x FROM t").status());
  EXPECT_EQ(s.wal_record_count(), 1u);

  auto contents = wal::ReadWal(&env, "db.wal");
  MAYBMS_ASSERT_OK(contents.status());
  ASSERT_EQ(contents->records.size(), 1u);
  EXPECT_EQ(contents->records[0].type, wal::RecordType::kDelta);
  auto batch = DeltaBatch::Deserialize(contents->records[0].payload);
  MAYBMS_ASSERT_OK(batch.status());
  DeltaBatch expected;
  expected.Insert("t", {CellSpec::Certain(Value::Int(7)),
                        CellSpec::Certain(Value::Double(1.0))});
  EXPECT_EQ(batch->ToString(), expected.ToString());
  auto expected_payload = expected.Serialize();
  MAYBMS_ASSERT_OK(expected_payload.status());
  EXPECT_EQ(contents->records[0].payload, *expected_payload);
}

TEST(DurabilityTest, WalDisabledNeverAttaches) {
  FaultInjectingEnv env;
  Session s;
  s.set_env(&env);
  s.mutable_options().durability.wal_enabled = false;
  Populate(&s);
  MAYBMS_ASSERT_OK(s.Execute("SAVE DATABASE 'db'").status());
  EXPECT_FALSE(s.has_durable_attachment());
  EXPECT_FALSE(env.FileExists("db.wal"));
  // CHECKPOINT without an attachment is a clean user error.
  EXPECT_EQ(s.Execute("CHECKPOINT").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DurabilityTest, EagerLoadReplaysPendingLog) {
  FaultInjectingEnv env;
  Session a;
  a.set_env(&env);
  Populate(&a);
  MAYBMS_ASSERT_OK(a.Execute("SAVE DATABASE 'db'").status());
  MAYBMS_ASSERT_OK(
      a.Execute("INSERT INTO t VALUES ({4: 0.5, 5: 0.5}, 1.0)").status());
  // REPAIR KEY introduces fresh components on replay, so it exercises
  // the component-id allocation determinism (key columns must be
  // certain, hence the side table).
  MAYBMS_ASSERT_OK(
      a.ExecuteScript("CREATE TABLE d (x INT, w DOUBLE);"
                      "INSERT INTO d VALUES (1, 1.0), (1, 3.0);")
          .status());
  MAYBMS_ASSERT_OK(a.Execute("REPAIR KEY (x) IN d WEIGHT BY w").status());
  EXPECT_EQ(a.wal_record_count(), 4u);

  // The session dies here (simply dropped); a fresh one recovers from
  // snapshot + log and must land on the exact same database.
  Session b;
  b.set_env(&env);
  auto loaded = b.Execute("LOAD DATABASE 'db'");
  MAYBMS_ASSERT_OK(loaded.status());
  EXPECT_NE(loaded->message.find("recovered 4 statement(s)"),
            std::string::npos);
  testing_util::ExpectDbsExactlyEqual(a.db(), b.db());
  // The recovered session continues the same log.
  ASSERT_TRUE(b.has_durable_attachment());
  EXPECT_EQ(b.wal_record_count(), 4u);
  MAYBMS_ASSERT_OK(b.Execute("INSERT INTO t VALUES (9, 1.0)").status());
  EXPECT_EQ(b.wal_record_count(), 5u);
}

TEST(DurabilityTest, MappedLoadRecoversThenRemapsClean) {
  FaultInjectingEnv env;
  Session a;
  a.set_env(&env);
  Populate(&a);
  MAYBMS_ASSERT_OK(a.Execute("SAVE DATABASE 'db'").status());
  MAYBMS_ASSERT_OK(a.Execute("INSERT INTO t VALUES (8, 0.5)").status());
  const WsdDb expected = a.db();

  Session b;
  b.set_env(&env);
  auto loaded = b.Execute("LOAD DATABASE 'db' MAPPED");
  MAYBMS_ASSERT_OK(loaded.status());
  EXPECT_NE(loaded->message.find("recovered 1 statement(s)"),
            std::string::npos);
  EXPECT_TRUE(b.is_mapped());
  // Recovery folded the log into a fresh snapshot before remapping.
  EXPECT_EQ(b.wal_record_count(), 0u);
  auto prob_b = b.Execute("SELECT x, PROB() FROM t WHERE x = 1");
  MAYBMS_ASSERT_OK(prob_b.status());
  ASSERT_EQ(prob_b->table.NumRows(), 1u);
  EXPECT_NEAR(prob_b->table.row(0)[1].as_double(), 0.25, 1e-9);

  // An eager load of the rewritten snapshot sees the recovered state
  // directly, with nothing left to replay.
  Session c;
  c.set_env(&env);
  auto again = c.Execute("LOAD DATABASE 'db'");
  MAYBMS_ASSERT_OK(again.status());
  EXPECT_EQ(again->message.find("recovered"), std::string::npos);
  testing_util::ExpectDbsExactlyEqual(expected, c.db());
}

TEST(DurabilityTest, CheckpointFoldsLogIntoSnapshot) {
  FaultInjectingEnv env;
  Session s;
  s.set_env(&env);
  Populate(&s);
  MAYBMS_ASSERT_OK(s.Execute("SAVE DATABASE 'db'").status());
  MAYBMS_ASSERT_OK(s.Execute("INSERT INTO t VALUES (7, 1.0)").status());
  EXPECT_EQ(s.wal_record_count(), 1u);
  auto cp = s.Execute("CHECKPOINT");
  MAYBMS_ASSERT_OK(cp.status());
  EXPECT_NE(cp->message.find("checkpointed"), std::string::npos);
  EXPECT_EQ(s.wal_record_count(), 0u);

  Session b;
  b.set_env(&env);
  auto loaded = b.Execute("LOAD DATABASE 'db'");
  MAYBMS_ASSERT_OK(loaded.status());
  EXPECT_EQ(loaded->message.find("recovered"), std::string::npos);
  testing_util::ExpectDbsExactlyEqual(s.db(), b.db());
}

TEST(DurabilityTest, AutoCheckpointKeepsTheLogShort) {
  FaultInjectingEnv env;
  Session s;
  s.set_env(&env);
  s.mutable_options().durability.auto_checkpoint_records = 2;
  Populate(&s);
  MAYBMS_ASSERT_OK(s.Execute("SAVE DATABASE 'db'").status());
  MAYBMS_ASSERT_OK(s.Execute("INSERT INTO t VALUES (7, 1.0)").status());
  EXPECT_EQ(s.wal_record_count(), 1u);
  MAYBMS_ASSERT_OK(s.Execute("INSERT INTO t VALUES (8, 1.0)").status());
  EXPECT_EQ(s.wal_record_count(), 0u);  // threshold hit, log folded

  Session b;
  b.set_env(&env);
  MAYBMS_ASSERT_OK(b.Execute("LOAD DATABASE 'db'").status());
  testing_util::ExpectDbsExactlyEqual(s.db(), b.db());
}

TEST(DurabilityTest, StaleLogFromOlderSnapshotIsDiscarded) {
  FaultInjectingEnv env;
  Session a;
  a.set_env(&env);
  Populate(&a);
  MAYBMS_ASSERT_OK(a.Execute("SAVE DATABASE 'db'").status());
  MAYBMS_ASSERT_OK(a.Execute("INSERT INTO t VALUES (7, 1.0)").status());

  // Behind the session's back, a different database replaces the
  // snapshot: the leftover log belongs to the old generation and its
  // fingerprint no longer matches.
  Session other;
  other.set_env(&env);
  MAYBMS_ASSERT_OK(
      other.Execute("CREATE TABLE u (y STRING)").status());
  other.mutable_options().durability.wal_enabled = false;
  MAYBMS_ASSERT_OK(other.Execute("SAVE DATABASE 'db'").status());

  Session b;
  b.set_env(&env);
  auto loaded = b.Execute("LOAD DATABASE 'db'");
  MAYBMS_ASSERT_OK(loaded.status());
  EXPECT_EQ(loaded->message.find("recovered"), std::string::npos);
  testing_util::ExpectDbsExactlyEqual(other.db(), b.db());
  EXPECT_FALSE(b.db().HasRelation("t"));
}

TEST(DurabilityTest, LogBeforeApplyFailedAppendLeavesMemoryUntouched) {
  FaultInjectingEnv env;
  Session s;
  s.set_env(&env);
  Populate(&s);
  MAYBMS_ASSERT_OK(s.Execute("SAVE DATABASE 'db'").status());
  const WsdDb before = s.db();
  env.Crash();
  // The WAL append fails, so the statement must fail *without* applying:
  // an acked-but-unlogged mutation would be lost on recovery.
  auto r = s.Execute("INSERT INTO t VALUES (7, 1.0)");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(testing_util::DbsExactlyEqual(before, s.db()));
  Rng rng(1);
  env.Recover(&rng);
}

TEST(DurabilityTest, HandBuiltStatementIsLoggedAndRecovered) {
  FaultInjectingEnv env;
  Session s;
  s.set_env(&env);
  Populate(&s);
  MAYBMS_ASSERT_OK(s.Execute("SAVE DATABASE 'db'").status());
  // A statement built without the parser lowers to a delta batch like
  // any other, so it is logged and replayed.
  Statement stmt;
  stmt.kind = Statement::Kind::kDropTable;
  stmt.drop_table = DropTableStmt{};
  stmt.drop_table->name = "t";
  MAYBMS_ASSERT_OK(s.ExecuteParsed(stmt).status());
  EXPECT_FALSE(s.db().HasRelation("t"));
  EXPECT_EQ(s.wal_record_count(), 1u);

  Session b;
  b.set_env(&env);
  auto loaded = b.Execute("LOAD DATABASE 'db'");
  MAYBMS_ASSERT_OK(loaded.status());
  EXPECT_NE(loaded->message.find("recovered 1 statement(s)"),
            std::string::npos);
  EXPECT_FALSE(b.db().HasRelation("t"));
  testing_util::ExpectDbsExactlyEqual(s.db(), b.db());
}

// Logs written before every mutation became a kDelta record hold the SQL
// text of each mutating statement. They are still read: recovery parses
// each record and applies the same batch the statement lowers to today.
TEST(DurabilityTest, LegacyStatementLogRecoversToTheSameDatabase) {
  const std::vector<std::string> statements = {
      "CREATE TABLE d (x INT, w DOUBLE)",
      "INSERT INTO d VALUES (1, 1.0), (1, 3.0), (2, 1.0)",
      "REPAIR KEY (x) IN d WEIGHT BY w",
      "INSERT INTO t VALUES ({4: 0.5, 5: 0.5}, 1.0)",
      "ENFORCE CHECK (x >= 2 OR w > 1.0) ON t",
      "ENFORCE KEY (x) ON d",
      "DELETE FROM t OLDEST 1",
      "CREATE TABLE scratch (y STRING)",
      "DROP TABLE scratch",
  };
  FaultInjectingEnv env;
  {
    Session writer;
    writer.set_env(&env);
    writer.mutable_options().durability.wal_enabled = false;
    Populate(&writer);
    MAYBMS_ASSERT_OK(writer.Execute("SAVE DATABASE 'db'").status());
  }
  auto snapshot = env.ReadFileToString("db");
  MAYBMS_ASSERT_OK(snapshot.status());
  auto log = wal::WalWriter::Create(&env, "db.wal",
                                    wal::SnapshotFingerprint(*snapshot),
                                    /*base_lsn=*/1);
  MAYBMS_ASSERT_OK(log.status());
  for (const std::string& sql : statements) {
    MAYBMS_ASSERT_OK(log->Append(wal::RecordType::kStatement, sql).status());
  }

  Session direct;
  Populate(&direct);
  for (const std::string& sql : statements) {
    MAYBMS_ASSERT_OK(direct.Execute(sql).status());
  }

  Session b;
  b.set_env(&env);
  auto loaded = b.Execute("LOAD DATABASE 'db'");
  MAYBMS_ASSERT_OK(loaded.status());
  EXPECT_NE(loaded->message.find(
                StrFormat("recovered %zu statement(s)", statements.size())),
            std::string::npos)
      << loaded->message;
  testing_util::ExpectDbsExactlyEqual(direct.db(), b.db());

  // The recovered session continues the legacy log with kDelta records,
  // and a reload replays the mixed log to the same state.
  MAYBMS_ASSERT_OK(b.Execute("INSERT INTO t VALUES (9, 1.0)").status());
  MAYBMS_ASSERT_OK(direct.Execute("INSERT INTO t VALUES (9, 1.0)").status());
  auto contents = wal::ReadWal(&env, "db.wal");
  MAYBMS_ASSERT_OK(contents.status());
  ASSERT_EQ(contents->records.size(), statements.size() + 1);
  EXPECT_EQ(contents->records.back().type, wal::RecordType::kDelta);
  Session c;
  c.set_env(&env);
  MAYBMS_ASSERT_OK(c.Execute("LOAD DATABASE 'db'").status());
  testing_util::ExpectDbsExactlyEqual(direct.db(), c.db());
}

// A v1 or v2 base does not persist the component-id counter. Once
// DELETE ... OLDEST has collected the highest component, the next or-set
// gets an id above every live one; a base that forgot the counter would
// make replay allocate a lower id, so the logged Reweight would miss it.
// The first CHECKPOINT of a durably loaded v2 file therefore writes v3.
TEST(DurabilityTest, CheckpointUpgradesV2BaseAndKeepsComponentIds) {
  FaultInjectingEnv env;
  MAYBMS_ASSERT_OK(AtomicWriteFile(
      &env, "db", testing_util::ReadFixture("medical_v2.wsd")));
  Session s;
  s.set_env(&env);
  MAYBMS_ASSERT_OK(s.Execute("LOAD DATABASE 'db'").status());
  ASSERT_TRUE(s.has_durable_attachment());
  MAYBMS_ASSERT_OK(
      s.ExecuteScript(
           "INSERT INTO R VALUES ({'flu': 0.5, 'cold': 0.5}, 'swab', 'fever');"
           "CREATE TABLE u (v INT);"
           "INSERT INTO u VALUES ({1: 0.5, 2: 0.5});"
           "DELETE FROM u OLDEST 1;"
           "CHECKPOINT")
          .status());
  auto snapshot = env.ReadFileToString("db");
  MAYBMS_ASSERT_OK(snapshot.status());
  EXPECT_EQ(snapshot->substr(0, snapshot->find('\n')), "MAYBMS-WSD 3");

  DeltaBatch insert;
  insert.Insert("u", {CellSpec::OrSet({{Value::Int(3), 0.5},
                                       {Value::Int(4), 0.5}})});
  MAYBMS_ASSERT_OK(s.ApplyDelta(insert).status());
  DeltaBatch touch;
  touch.Reweight(s.db().LiveComponents().back(), {0.9, 0.1});
  MAYBMS_ASSERT_OK(s.ApplyDelta(touch).status());

  Session b;
  b.set_env(&env);
  auto loaded = b.Execute("LOAD DATABASE 'db'");
  MAYBMS_ASSERT_OK(loaded.status());
  EXPECT_NE(loaded->message.find("recovered 2 statement(s)"),
            std::string::npos)
      << loaded->message;
  testing_util::ExpectDbsExactlyEqual(s.db(), b.db());
}

// Text snapshots store neither the owner nor the component counter, so
// a text SAVE is an export: it drops any attachment and starts no log.
TEST(DurabilityTest, TextSaveIsAnExportWithoutLog) {
  FaultInjectingEnv env;
  Session s;
  s.set_env(&env);
  Populate(&s);
  MAYBMS_ASSERT_OK(s.Execute("SAVE DATABASE 'db'").status());
  ASSERT_TRUE(s.has_durable_attachment());

  auto saved = s.Execute("SAVE DATABASE 'export' FORMAT TEXT");
  MAYBMS_ASSERT_OK(saved.status());
  EXPECT_FALSE(s.has_durable_attachment());
  EXPECT_FALSE(env.FileExists("export.wal"));
  EXPECT_NE(saved->message.find("no log"), std::string::npos)
      << saved->message;
  // Mutations are no longer logged anywhere.
  MAYBMS_ASSERT_OK(s.Execute("INSERT INTO t VALUES (7, 1.0)").status());
  EXPECT_EQ(s.wal_record_count(), 0u);

  Session b;
  b.set_env(&env);
  b.mutable_options().durability.wal_enabled = false;
  MAYBMS_ASSERT_OK(b.Execute("LOAD DATABASE 'export'").status());
  EXPECT_EQ(b.db().GetRelation("t").value()->NumTuples(), 2u);
}

// Satellite: LOAD DATABASE ... MAPPED under injected I/O failures must
// fail cleanly and leave the session's catalog untouched.
TEST(DurabilityTest, MappedLoadFailureLeavesCatalogUnchanged) {
  FaultInjectingEnv env;
  {
    Session writer;
    writer.set_env(&env);
    Populate(&writer);
    MAYBMS_ASSERT_OK(writer.Execute("SAVE DATABASE 'db'").status());
  }
  Session s;
  s.set_env(&env);
  MAYBMS_ASSERT_OK(s.Execute("CREATE TABLE keepme (x INT)").status());

  // Missing file.
  EXPECT_EQ(s.Execute("LOAD DATABASE 'absent' MAPPED").status().code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(s.db().HasRelation("keepme"));
  EXPECT_FALSE(s.is_mapped());

  // Hard I/O fault on the very next operation (the map itself).
  FaultPlan plan;
  plan.fail_at_op = env.op_count();
  env.set_plan(plan);
  auto r = s.Execute("LOAD DATABASE 'db' MAPPED");
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  EXPECT_TRUE(s.db().HasRelation("keepme"));
  EXPECT_FALSE(s.is_mapped());

  // With the fault cleared the same load succeeds.
  env.set_plan(FaultPlan{});
  MAYBMS_ASSERT_OK(s.Execute("LOAD DATABASE 'db' MAPPED").status());
  EXPECT_TRUE(s.is_mapped());
}

// Satellite: EnsureResident hitting a lazily-verified corrupt shard must
// fail the statement cleanly, keeping the mapped skeleton serviceable.
TEST(DurabilityTest, EnsureResidentSurfacesCorruptShardCleanly) {
  FaultInjectingEnv env;
  {
    Session writer;
    writer.set_env(&env);
    writer.mutable_options().durability.wal_enabled = false;
    Populate(&writer);
    MAYBMS_ASSERT_OK(writer.Execute("SAVE DATABASE 'db'").status());
  }
  // Flip a byte inside the relation payload (the section just before the
  // 20-byte END trailer): the mapped open verifies only the eager head,
  // so the damage surfaces at materialization time.
  auto size = env.FileSize("db");
  MAYBMS_ASSERT_OK(size.status());
  MAYBMS_ASSERT_OK(env.MutateFileByte("db", *size - 21));

  Session s;
  s.set_env(&env);
  s.mutable_options().durability.wal_enabled = false;
  MAYBMS_ASSERT_OK(s.Execute("LOAD DATABASE 'db' MAPPED").status());
  ASSERT_TRUE(s.is_mapped());
  // The INSERT forces residency; materialization hits the bad checksum.
  auto r = s.Execute("INSERT INTO t VALUES (7, 1.0)");
  EXPECT_FALSE(r.ok());
  // Clean failure: still mapped, catalog skeleton intact.
  EXPECT_TRUE(s.is_mapped());
  EXPECT_TRUE(s.db().HasRelation("t"));
}

}  // namespace
}  // namespace sql
}  // namespace maybms
