// A pass-through Env that counts what the durability layer asks of the
// file system: bytes appended, Sync and SyncDir calls with their time,
// and renames of snapshot temp files (one per SAVE DATABASE or
// checkpoint). Every call goes unchanged to the wrapped Env, so the
// bytes on disk are exactly those the default Env would write. It is
// the source of the storage.* per-layer metrics and needs no timing in
// the engine. On a thread with a Tracer installed it also records each
// call as a storage.* span.
#ifndef PERFBENCH_COUNTING_ENV_H_
#define PERFBENCH_COUNTING_ENV_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "storage/io_env.h"

namespace perfbench {

class CountingEnv : public maybms::Env {
 public:
  struct Counts {
    uint64_t wal_bytes = 0;       ///< appended to a log (*.wal, *.wal.tmp)
    uint64_t other_bytes = 0;     ///< appended elsewhere (snapshots)
    uint64_t wal_syncs = 0;       ///< Sync() of a log file
    uint64_t other_syncs = 0;
    uint64_t dir_syncs = 0;
    uint64_t snapshot_renames = 0;  ///< "<snapshot>.tmp" -> "<snapshot>"
    std::vector<double> wal_sync_ms;  ///< per WAL Sync, in call order
    std::vector<double> dir_sync_ms;
  };

  explicit CountingEnv(maybms::Env* base = maybms::Env::Default())
      : base_(base) {}

  /// Counts since construction or the last Reset().
  Counts Get() const;
  void Reset();

  maybms::Result<std::unique_ptr<maybms::WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override;
  maybms::Result<std::string> ReadFileToString(
      const std::string& path) override;
  maybms::Result<std::unique_ptr<maybms::RandomAccessImage>> MapFile(
      const std::string& path) override;
  bool FileExists(const std::string& path) override;
  maybms::Result<uint64_t> FileSize(const std::string& path) override;
  maybms::Status RenameFile(const std::string& from,
                            const std::string& to) override;
  maybms::Status RemoveFile(const std::string& path) override;
  maybms::Status TruncateFile(const std::string& path, uint64_t size) override;
  maybms::Status SyncDir(const std::string& dir) override;
  void BackoffBeforeRetry(int attempt) override;

 private:
  friend class CountingFile;

  maybms::Env* const base_;
  mutable std::mutex mu_;  ///< guards counts_ (server workers share it)
  Counts counts_;
};

}  // namespace perfbench

#endif  // PERFBENCH_COUNTING_ENV_H_
