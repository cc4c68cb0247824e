// Session: the top-level entry point of the MayBMS engine. Owns a
// world-set database and executes query-language statements against it —
// the programmatic equivalent of the demo's console.
#ifndef MAYBMS_SQL_SESSION_H_
#define MAYBMS_SQL_SESSION_H_

#include <optional>
#include <string>
#include <vector>

#include <memory>

#include "common/result.h"
#include "core/approx_conf.h"
#include "core/confidence.h"
#include "core/delta.h"
#include "core/mapped_db.h"
#include "core/materialized_conf.h"
#include "core/serialize.h"
#include "core/wsd.h"
#include "ra/expr_compile.h"
#include "sql/ast.h"
#include "sql/optimizer.h"
#include "storage/io_env.h"
#include "storage/relation.h"
#include "storage/wal.h"

namespace maybms {
namespace sql {

/// Durability knobs. When the WAL is enabled, a binary SAVE DATABASE (and
/// LOAD DATABASE of a saved snapshot) attaches the session to the
/// snapshot file: every subsequent mutation — a mutating statement or a
/// delta batch — is appended to `<snapshot>.wal` as one kDelta record
/// and fsynced *before* it is applied, so a crash loses at most the
/// mutation that never acknowledged. LOAD DATABASE replays any log newer
/// than the snapshot; CHECKPOINT (or the automatic threshold) rewrites
/// the snapshot as v3 and resets the log. A text SAVE is an export and
/// attaches nothing.
struct DurabilityOptions {
  /// Master switch; when false SAVE/LOAD never attach a log.
  bool wal_enabled = true;
  /// Checkpoint automatically once the log holds this many records
  /// (0 = only on explicit CHECKPOINT). A failed auto-checkpoint does
  /// not fail the mutation — the log keeps the data safe — and is
  /// retried at the next record.
  size_t auto_checkpoint_records = 256;
};

/// Every session knob behind one aggregate. SQL `SET <knob> = <value>`
/// and `SHOW SETTINGS` address leaves by dotted name ("conf.num_threads",
/// "durability.wal_enabled", ...); see the knob registry in session.cc.
/// Settings are session-local and never reach the WAL.
struct SessionOptions {
  /// Probabilistic-aggregate lowering (PROB/POSSIBLE/CERTAIN/ECOUNT/
  /// ESUM): enumeration budget, cluster factorization, thread count.
  ConfidenceOptions conf;
  /// Anytime approximate confidence behind APPROX CONF(ε, δ): sampling
  /// seed and per-cluster budgets (the ε/δ pair comes from the query).
  ApproxOptions approx;
  /// Lifted query evaluation: compiled vectorized expression programs
  /// vs the row-at-a-time interpreter, and batch parallelism.
  ExecOptions exec;
  /// Cost-based plan optimizer (per-rule switches and a master off
  /// switch); applied to every SELECT and EXPLAIN.
  OptimizerOptions optimizer;
  /// WAL attachment and auto-checkpoint threshold.
  DurabilityOptions durability;
  /// Maintain the session's content-keyed confidence cache
  /// (core/materialized_conf.h) across queries: re-issued CONF/APPROX
  /// CONF/ECOUNT/ESUM recompute only clusters whose components a delta
  /// dirtied and replay the cheap combine for the rest. Results are
  /// bit-identical with and without.
  bool materialize_conf = true;
};

/// What a statement produced.
struct StatementResult {
  enum class Kind {
    kMessage,   ///< DDL/DML acknowledgements, EXPLAIN text, ENFORCE stats
    kTable,     ///< a certain relation (prob/possible/certain/ecount/show)
    kWorldSet,  ///< a world-set answer (plain SELECT)
  };
  Kind kind = Kind::kMessage;
  std::string message;
  Relation table;
  WsdDb world_set;  ///< contains relation "result"

  /// Renders the result for a console.
  std::string ToDisplayString(size_t max_rows = 50) const;
};

/// An interactive session over one world-set database.
class Session {
 public:
  Session() = default;
  /// Starts from an existing database (e.g. a generated census WSD).
  explicit Session(WsdDb db) : db_(std::move(db)) {}

  WsdDb& db() { return db_; }
  const WsdDb& db() const { return db_; }

  /// All session knobs, one aggregate (see SessionOptions).
  const SessionOptions& options() const { return options_; }
  SessionOptions& mutable_options() { return options_; }

  /// Assigns one knob by its dotted name ("conf.num_threads" = 4,
  /// "optimizer.enable" = false, ...) — the engine of SQL SET. Unknown
  /// names and type mismatches are InvalidArgument.
  Status SetOption(const std::string& name, const Value& value);
  /// Hash of every knob's current value: result caches keyed on
  /// statement text must also key on this, since settings change what a
  /// query returns (e.g. approx.seed).
  uint64_t SettingsFingerprint() const;

  /// Applies one delta batch (core/delta.h) — the streaming ingest
  /// entry point, and the path every mutating statement lowers to. With
  /// a durable attachment the serialized batch is appended and fsynced
  /// as one wal::RecordType::kDelta record BEFORE applying, and the
  /// auto-checkpoint threshold is checked after; a failed
  /// auto-checkpoint is not an error (the record is durable either way).
  Result<DeltaEffects> ApplyDelta(const DeltaBatch& batch);

  /// The session's content-keyed confidence cache, created lazily;
  /// nullptr while options().materialize_conf is false. Exposed for
  /// stats (hits/misses) and tests.
  MaterializedConf* conf_cache();

  /// File-I/O environment for snapshots, mapped loads and the WAL; null
  /// resets to Env::Default(). Set before SAVE/LOAD — existing
  /// attachments keep the env they were opened with.
  void set_env(Env* env) { env_ = env; }
  Env* env() const { return env_ ? env_ : Env::Default(); }

  /// True when the session is bound to a snapshot + WAL pair.
  bool has_durable_attachment() const { return attach_.has_value(); }
  /// The attached snapshot path (empty when none).
  std::string attached_path() const {
    return attach_ ? attach_->db_path : std::string();
  }
  /// Records currently in the attached log (0 when none).
  uint64_t wal_record_count() const {
    return attach_ && attach_->writer ? attach_->writer->record_count() : 0;
  }

  /// Rewrites the attached snapshot from current state and resets its
  /// log — the SQL CHECKPOINT statement's engine. Fails without an
  /// attachment.
  Status Checkpoint();

  /// True while the session serves queries from a mapped snapshot
  /// (LOAD DATABASE ... MAPPED) instead of the resident database.
  bool is_mapped() const { return mapped_.has_value(); }
  /// The mapped snapshot, for resident-byte accounting and
  /// materialization stats; nullptr when not mapped.
  const MappedWsdDb* mapped_db() const {
    return mapped_ ? &*mapped_ : nullptr;
  }

  /// Parses and executes one statement.
  Result<StatementResult> Execute(const std::string& statement);

  /// Executes a ';'-separated script, stopping at the first error.
  Result<std::vector<StatementResult>> ExecuteScript(const std::string& sql);

  /// Executes an already-parsed statement.
  Result<StatementResult> ExecuteParsed(const Statement& stmt);

 private:
  /// The snapshot + WAL pair the session is bound to.
  struct DurableAttachment {
    std::string db_path;
    std::string wal_path;
    std::optional<wal::WalWriter> writer;
  };

  Result<StatementResult> RunSelect(const SelectStmt& stmt);
  /// CREATE/DROP/INSERT/REPAIR/ENFORCE/DELETE: lowers the statement to a
  /// delta batch and applies it through ApplyDelta.
  Result<StatementResult> RunMutation(const Statement& stmt);
  Result<StatementResult> RunSet(const SetStmt& stmt);
  Result<StatementResult> RunShow(const ShowStmt& stmt);
  Result<StatementResult> RunSaveDb(const SaveDbStmt& stmt);
  Result<StatementResult> RunLoadDb(const LoadDbStmt& stmt);
  /// Statements that mutate or read the whole catalog force the mapped
  /// snapshot fully resident (into db_) and drop the mapping.
  Status EnsureResident();
  /// Serializes `db` to `path` atomically as a v3 snapshot — the only
  /// WAL base, since its META carries the owner and component-id
  /// counters replay depends on; returns the bytes' fingerprint.
  Result<uint64_t> WriteSnapshot(const WsdDb& db, const std::string& path,
                                 uint64_t* out_bytes);
  /// A fresh, empty log for the snapshot at `db_path`.
  Result<DurableAttachment> StartLog(const std::string& db_path,
                                     uint64_t fingerprint);
  /// The log a load binds to: continues a matching log (tail-repaired),
  /// or starts a fresh one when the log is missing, corrupt, or from
  /// another snapshot generation.
  Result<DurableAttachment> OpenLogForLoad(
      const std::string& db_path, uint64_t fingerprint,
      const Result<wal::WalContents>& contents);

  WsdDb db_;
  /// Engaged after LOAD DATABASE ... MAPPED; db_ then holds the
  /// snapshot's schema-only skeleton for catalog statements while
  /// SELECTs materialize per-query scratch databases from the map.
  std::optional<MappedWsdDb> mapped_;
  SessionOptions options_;
  /// Lazily created by conf_cache().
  std::unique_ptr<MaterializedConf> conf_cache_;
  Env* env_ = nullptr;
  std::optional<DurableAttachment> attach_;
};

}  // namespace sql
}  // namespace maybms

#endif  // MAYBMS_SQL_SESSION_H_
