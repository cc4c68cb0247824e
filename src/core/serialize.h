// Persistence for world-set databases. Three versions share the
// "MAYBMS-WSD <version>" header line and are negotiated on read; the
// engine writes two of them:
//
//   - Version 3 (written): the binary columnar format with a shard
//     directory. The distinct strings the database references are
//     dumped once, components and horizontal relation shards are
//     self-contained, individually checksummed blocks whose offsets (plus
//     per-shard pruning stats) are recorded up front, so a memory-mapped
//     reader (core/mapped_db) can materialize only the blocks a query
//     touches. META carries the owner and component-id counters, which
//     makes v3 the only durable WAL base. Codecs live in
//     core/snapshot_v3.h; see docs/SNAPSHOT_FORMAT.md.
//   - Version 1 (written, export only): a token-based text format that
//     round-trips templates, components, probabilities, owners and
//     options. Strings are length-prefixed, so arbitrary content
//     (including newlines and the ⊥ glyph) survives. Human-inspectable;
//     v1 files remain readable forever.
//   - Version 2 (read only): the monolithic binary predecessor of v3 —
//     one section per kind, one record per relation. Its records use the
//     v3 layouts and decode through the v3 codecs.
#ifndef MAYBMS_CORE_SERIALIZE_H_
#define MAYBMS_CORE_SERIALIZE_H_

#include <iosfwd>
#include <string>
#include <string_view>

#include "common/result.h"
#include "core/wsd.h"
#include "storage/io_env.h"

namespace maybms {

/// On-disk snapshot encodings.
enum class SnapshotFormat {
  kText,    ///< "MAYBMS-WSD 1": tokenized text
  kBinary,  ///< "MAYBMS-WSD 3": sharded columnar binary sections
};

/// Writes `db` to a stream in the text format (header "MAYBMS-WSD 1").
Status WriteWsdDb(const WsdDb& db, std::ostream& out);

/// Writes `db` to a stream in the sharded binary snapshot format
/// (header "MAYBMS-WSD 3"). Relations are split into horizontal shards
/// of options().rows_per_shard rows; each component and shard is a
/// self-contained checksummed block indexed by the SDIR section.
Status WriteWsdDbBinaryV3(const WsdDb& db, std::ostream& out);

/// Serializes `db` in the chosen format into a byte string (what
/// SaveWsdDb writes to disk). Exposed so callers that need the bytes —
/// the durable session fingerprints them to bind the WAL to the
/// snapshot — serialize exactly once.
Result<std::string> SerializeWsdDb(const WsdDb& db, SnapshotFormat format);

struct SaveFileOptions {
  /// File-I/O environment; null = Env::Default().
  Env* env = nullptr;
  /// fsync the temp file and the parent directory around the rename, so
  /// the save survives power loss. Disable only for scratch files where
  /// process-crash atomicity (the rename) is enough.
  bool sync = true;
};

/// Writes `db` to a file in the chosen format — atomically, in every
/// format: the bytes go to `path`.tmp which is renamed over `path`, so a
/// crash mid-save never leaves a torn snapshot over a good one. The
/// default format stays text so existing call sites keep producing
/// human-inspectable files; the SQL SAVE DATABASE statement defaults to
/// binary.
Status SaveWsdDb(const WsdDb& db, const std::string& path,
                 SnapshotFormat format = SnapshotFormat::kText,
                 const SaveFileOptions& opts = {});

/// Reads a v1, v2 or v3 snapshot — the format is negotiated from the
/// header line — and validates invariants.
Result<WsdDb> ReadWsdDb(std::istream& in);
/// Reads a snapshot held in memory, without copying the bytes.
Result<WsdDb> ParseWsdDb(std::string_view bytes);
/// Loads from a file; `env` (null = Env::Default()) is the seam the
/// fault-injection tests use.
Result<WsdDb> LoadWsdDb(const std::string& path, Env* env = nullptr);

}  // namespace maybms

#endif  // MAYBMS_CORE_SERIALIZE_H_
