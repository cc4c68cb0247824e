#include "counting_env.h"

#include "stats.h"
#include "trace.h"

namespace perfbench {

namespace {

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// The log itself, or the temp file a fresh log's header is written to.
bool IsWal(const std::string& path) {
  return EndsWith(path, ".wal") || EndsWith(path, ".wal.tmp");
}

}  // namespace

class CountingFile : public maybms::WritableFile {
 public:
  CountingFile(CountingEnv* env, std::unique_ptr<maybms::WritableFile> base,
               bool wal)
      : env_(env), base_(std::move(base)), wal_(wal) {}

  maybms::Status Append(std::string_view data) override {
    Span span(wal_ ? "storage.wal_append" : "storage.file_append");
    maybms::Status st = base_->Append(data);
    std::lock_guard<std::mutex> lock(env_->mu_);
    (wal_ ? env_->counts_.wal_bytes : env_->counts_.other_bytes) +=
        data.size();
    return st;
  }

  maybms::Status Sync() override {
    Span span(wal_ ? "storage.wal_sync" : "storage.file_sync");
    const Clock::time_point start = Clock::now();
    maybms::Status st = base_->Sync();
    const double ms = MsSince(start);
    std::lock_guard<std::mutex> lock(env_->mu_);
    if (wal_) {
      env_->counts_.wal_syncs++;
      env_->counts_.wal_sync_ms.push_back(ms);
    } else {
      env_->counts_.other_syncs++;
    }
    return st;
  }

  maybms::Status Close() override { return base_->Close(); }

 private:
  CountingEnv* const env_;
  std::unique_ptr<maybms::WritableFile> base_;
  const bool wal_;
};

CountingEnv::Counts CountingEnv::Get() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counts_;
}

void CountingEnv::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  counts_ = Counts();
}

maybms::Result<std::unique_ptr<maybms::WritableFile>>
CountingEnv::NewWritableFile(const std::string& path, bool truncate) {
  MAYBMS_ASSIGN_OR_RETURN(std::unique_ptr<maybms::WritableFile> file,
                          base_->NewWritableFile(path, truncate));
  return std::unique_ptr<maybms::WritableFile>(
      new CountingFile(this, std::move(file), IsWal(path)));
}

maybms::Result<std::string> CountingEnv::ReadFileToString(
    const std::string& path) {
  return base_->ReadFileToString(path);
}

maybms::Result<std::unique_ptr<maybms::RandomAccessImage>>
CountingEnv::MapFile(const std::string& path) {
  return base_->MapFile(path);
}

bool CountingEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

maybms::Result<uint64_t> CountingEnv::FileSize(const std::string& path) {
  return base_->FileSize(path);
}

maybms::Status CountingEnv::RenameFile(const std::string& from,
                                       const std::string& to) {
  Span span("storage.rename");
  maybms::Status st = base_->RenameFile(from, to);
  if (st.ok() && from == to + ".tmp" && !IsWal(to)) {
    std::lock_guard<std::mutex> lock(mu_);
    counts_.snapshot_renames++;
  }
  return st;
}

maybms::Status CountingEnv::RemoveFile(const std::string& path) {
  return base_->RemoveFile(path);
}

maybms::Status CountingEnv::TruncateFile(const std::string& path,
                                         uint64_t size) {
  return base_->TruncateFile(path, size);
}

maybms::Status CountingEnv::SyncDir(const std::string& dir) {
  Span span("storage.sync_dir");
  const Clock::time_point start = Clock::now();
  maybms::Status st = base_->SyncDir(dir);
  const double ms = MsSince(start);
  std::lock_guard<std::mutex> lock(mu_);
  counts_.dir_syncs++;
  counts_.dir_sync_ms.push_back(ms);
  return st;
}

void CountingEnv::BackoffBeforeRetry(int attempt) {
  base_->BackoffBeforeRetry(attempt);
}

}  // namespace perfbench
