#include "server/shared_catalog.h"

#include <utility>

#include "common/logging.h"

namespace maybms {
namespace server {

bool IsReadStatement(const sql::Statement& stmt) {
  switch (stmt.kind) {
    case sql::Statement::Kind::kSelect:
    case sql::Statement::Kind::kExplain:
    case sql::Statement::Kind::kShow:
      return true;
    default:
      return false;
  }
}

SharedCatalog::SharedCatalog(WsdDb initial) : writer_(std::move(initial)) {
  Publish();
}

SharedCatalog::~SharedCatalog() {
  // Readers are gone by contract (the server joins its workers before
  // destroying the catalog); drop the published version so the limbo
  // list is the only owner left, then let members unwind.
}

void SharedCatalog::Publish() {
  std::lock_guard<std::mutex> lock(commit_mu_);
  PublishLocked();
}

void SharedCatalog::PublishLocked() {
  auto next = std::make_shared<const WsdDb>(writer_.db());
  const WsdDb* raw = next.get();
  std::shared_ptr<const WsdDb> old = std::move(published_owner_);
  published_owner_ = std::move(next);
  published_.store(raw, std::memory_order_seq_cst);
  version_.fetch_add(1, std::memory_order_acq_rel);
  if (old != nullptr) epochs_.Retire(std::move(old));
}

WsdDb SharedCatalog::SnapshotCopy() const {
  EpochManager::Guard guard(&epochs_);
  const WsdDb* v = published_.load(std::memory_order_seq_cst);
  return WsdDb(*v);  // COW: shares tuple vectors and components
}

Result<sql::StatementResult> SharedCatalog::ExecuteWrite(
    const sql::Statement& stmt) {
  MAYBMS_CHECK(!IsReadStatement(stmt)) << "read routed to ExecuteWrite";
  if (stmt.kind == sql::Statement::Kind::kSet) {
    // Settings are session-local; applying one to the shared writer
    // would silently change every subsequent commit's semantics.
    return Status::Unsupported(
        "SET is session-local; it must run on the requesting session, "
        "not the shared writer");
  }
  if (stmt.kind == sql::Statement::Kind::kLoadDb && stmt.load_db->mapped) {
    return Status::Unsupported(
        "LOAD DATABASE ... MAPPED is not available on the server; "
        "load eagerly (snapshots served to sessions must be resident)");
  }

  // One lock for every writer: ENFORCE can merge components shared with
  // other relations' tuples and REPAIR allocates component ids, so no
  // write is confined to its target relation.
  std::lock_guard<std::mutex> commit(commit_mu_);
  auto result = writer_.ExecuteParsed(stmt);
  PublishLocked();
  return result;
}

}  // namespace server
}  // namespace maybms
