// maybms_shell: an interactive console over the MayBMS query language —
// the scriptable equivalent of the demo paper's GUI. Reads ';'-terminated
// statements from stdin and prints world-set answers, probabilistic
// tables, optimized plans (EXPLAIN) and enumerated worlds (SHOW WORLDS).
//
// Run:  ./maybms_shell            (interactive)
//       ./maybms_shell < script.sql
//       ./maybms_shell --demo     (pre-loads the paper's medical example)
#include <cstdio>
#include <cstring>
#include <unistd.h>

#include "common/logging.h"
#include "common/string_util.h"
#include <iostream>
#include <string>

#include "core/builder.h"
#include "core/serialize.h"
#include "sql/session.h"

using namespace maybms;

namespace {

WsdDb DemoDatabase() {
  WsdDb db;
  Schema schema({{"Diagnosis", ValueType::kString},
                 {"Test", ValueType::kString},
                 {"Symptom", ValueType::kString}});
  Status st = db.CreateRelation("R", schema);
  MAYBMS_CHECK(st.ok());
  auto r1 = InsertTuple(
      &db, "R",
      {CellSpec::Pending(), CellSpec::Pending(),
       CellSpec::OrSet({{Value::String("weight gain"), 0.7},
                        {Value::String("fatigue"), 0.3}})});
  MAYBMS_CHECK(r1.ok());
  auto c1 = AddJointComponent(
      &db, {{*r1, "Diagnosis"}, {*r1, "Test"}},
      {{{Value::String("pregnancy"), Value::String("ultrasound")}, 0.4},
       {{Value::String("hypothyroidism"), Value::String("TSH")}, 0.6}});
  MAYBMS_CHECK(c1.ok());
  auto r2 = InsertTuple(&db, "R",
                        {CellSpec::Certain(Value::String("obesity")),
                         CellSpec::Certain(Value::String("BMI")),
                         CellSpec::Certain(Value::String("weight gain"))});
  MAYBMS_CHECK(r2.ok());
  return db;
}

constexpr const char* kHelp = R"(statements:
  CREATE TABLE r (a INT, b STRING, ...);
  INSERT INTO r VALUES (1, {'x': 0.4, 'y': 0.6});   -- or-set cell
  SELECT b FROM r WHERE a = 1;                      -- world-set answer
  SELECT b, PROB() FROM r WHERE a = 1;              -- probabilities
  SELECT b, APPROX CONF(0.01, 0.05) FROM r;         -- anytime approximation
    -- per-vector estimate plus [conf_lo, conf_hi]: half-width ≤ ε with
    -- probability ≥ 1 − δ (δ defaults to 0.05); same seed → same result
  POSSIBLE SELECT b FROM r;   CERTAIN SELECT b FROM r;
  SELECT ECOUNT() FROM r WHERE a = 1;               -- expected count
  SELECT ESUM(a) FROM r;                            -- expected sum
  SELECT a FROM r UNION SELECT a FROM s;            -- also EXCEPT
  REPAIR KEY (a) IN r WEIGHT BY w;                  -- introduce uncertainty
  ENFORCE CHECK (a >= 0) ON r;                      -- clean by conditioning
  ENFORCE KEY (a) ON r;   ENFORCE FD a -> b ON r;
  EXPLAIN SELECT ...;   SHOW TABLES;   SHOW WORLDS;  SHOW RELATION r;
    -- EXPLAIN prints the plan before and after the cost-based rewrite
    -- (pushdown, join reorder, pruning, folding), each node annotated
    -- with its estimated cardinality [~N rows]
  SAVE DATABASE 'file.wsd' [FORMAT TEXT|BINARY];
    -- snapshots the whole world-set database; BINARY (the default) is
    -- the columnar fast-load format, TEXT is human-inspectable; also
    -- attaches a write-ahead log ('file.wsd.wal') so later mutating
    -- statements are durable before they are acknowledged
  LOAD DATABASE 'file.wsd' [MAPPED];
    -- replaces the session database (format auto-detected from header),
    -- replaying any pending log records; MAPPED keeps the snapshot on
    -- disk and materializes only what queries touch
  CHECKPOINT;
    -- folds the write-ahead log into a fresh snapshot (also happens
    -- automatically every auto_checkpoint_records logged mutations)
  DELETE FROM r OLDEST 10;
    -- retires the 10 oldest tuples (sliding-window streaming); unused
    -- components are garbage-collected with them
  SET conf.num_threads = 4;   SET materialize_conf = true;
    -- session-local knobs over every engine tunable (confidence,
    -- approximation, optimizer, durability, exec); values read back via
  SHOW SETTINGS;
  DROP TABLE r;
meta: \h (help)  \q (quit)  \save <file> [text|binary]  \load <file>
multi-client access: this shell is single-session; run maybms_server to
serve the same dialect over TCP to concurrent clients (see `nc`-able
line protocol in examples/maybms_server.cpp)
)";

}  // namespace

int main(int argc, char** argv) {
  bool demo = argc > 1 && strcmp(argv[1], "--demo") == 0;
  sql::Session session(demo ? DemoDatabase() : WsdDb{});
  bool tty = isatty(fileno(stdin));
  if (tty) {
    printf("MayBMS shell — managing incomplete information with "
           "probabilistic world-set decompositions\n");
    if (demo) {
      printf("(demo database loaded: try  SELECT Test, PROB() FROM R WHERE "
             "Diagnosis = 'pregnancy';)\n");
    }
    printf("type \\h for help, \\q to quit\n");
  }

  std::string buffer;
  std::string line;
  while (true) {
    if (tty) {
      printf(buffer.empty() ? "maybms> " : "   ...> ");
      fflush(stdout);
    }
    if (!std::getline(std::cin, line)) break;
    std::string trimmed(Trim(line));
    if (buffer.empty() && (trimmed == "\\q" || trimmed == "quit" ||
                           trimmed == "exit")) {
      break;
    }
    if (buffer.empty() && trimmed == "\\h") {
      printf("%s", kHelp);
      continue;
    }
    if (buffer.empty() && StartsWith(trimmed, "\\save ")) {
      std::string args(Trim(trimmed.substr(6)));
      SnapshotFormat format = SnapshotFormat::kBinary;
      size_t space = args.find_last_of(" \t");
      if (space != std::string::npos) {
        std::string_view fmt = Trim(args.substr(space + 1));
        if (EqualsIgnoreCase(fmt, "text")) {
          format = SnapshotFormat::kText;
          args = std::string(Trim(args.substr(0, space)));
        } else if (EqualsIgnoreCase(fmt, "binary")) {
          args = std::string(Trim(args.substr(0, space)));
        }
      }
      Status st = SaveWsdDb(session.db(), args, format);
      printf("%s\n", st.ok() ? "saved" : st.ToString().c_str());
      continue;
    }
    if (buffer.empty() && StartsWith(trimmed, "\\load ")) {
      auto loaded = LoadWsdDb(std::string(Trim(trimmed.substr(6))));
      if (loaded.ok()) {
        session = sql::Session(std::move(*loaded));
        printf("loaded\n");
      } else {
        printf("%s\n", loaded.status().ToString().c_str());
      }
      continue;
    }
    buffer += line;
    buffer += "\n";
    // Execute once the statement is ';'-terminated.
    std::string_view t = Trim(buffer);
    if (t.empty()) {
      buffer.clear();
      continue;
    }
    if (t.back() != ';') continue;
    auto results = session.ExecuteScript(buffer);
    buffer.clear();
    if (!results.ok()) {
      printf("error: %s\n", results.status().ToString().c_str());
      continue;
    }
    for (const auto& r : *results) {
      printf("%s\n", r.ToDisplayString().c_str());
    }
  }
  if (tty) printf("\nbye\n");
  return 0;
}
