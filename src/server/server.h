// A concurrent multi-session TCP query server over one SharedCatalog.
//
// Threading: one I/O thread accepts connections and polls idle sockets;
// complete request lines dispatch to a TaskPool of N workers, each
// executing statements through the connection's own sql::Session —
// reads against a snapshot-isolated COW copy of the catalog, writes
// funneled through SharedCatalog::ExecuteWrite (one commit lock, so
// commits happen in WAL order). One statement runs per connection at a
// time, so responses keep request order; distinct connections run in
// parallel.
//
// Robustness: admission control caps statements in flight across the
// server (excess requests get an immediate ERR instead of unbounded
// queueing), and each connection has a token-bucket rate limit.
// Counters (served, errors, rejections) are exposed for monitoring and
// through the ".stats" dot-command.
#ifndef MAYBMS_SERVER_SERVER_H_
#define MAYBMS_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/parallel.h"
#include "common/result.h"
#include "server/shared_catalog.h"

namespace maybms {
namespace server {

struct ServerOptions {
  /// Port to bind on 127.0.0.1; 0 picks an ephemeral port (read it back
  /// via Server::port()).
  uint16_t port = 0;
  /// Worker threads executing statements (0 = DefaultNumThreads()).
  size_t workers = 0;
  /// Statements admitted concurrently across all connections; requests
  /// beyond this answer "ERR server overloaded" immediately. 0 = 4 ×
  /// workers.
  size_t max_in_flight = 0;
  /// Per-connection token bucket: sustained statements/second (0 = no
  /// limit) with `rate_burst` tokens of headroom.
  double rate_qps = 0.0;
  double rate_burst = 16.0;
  /// Entries in the read-statement result cache, keyed on (catalog
  /// version, session-settings fingerprint, statement text). Publishing
  /// a write bumps the version, so stale entries can never be served —
  /// they just age out of the LRU. 0 disables the cache.
  size_t result_cache_entries = 256;
};

/// Monitoring counters (also rendered by the ".stats" dot-command).
struct ServerCounters {
  uint64_t connections_accepted = 0;
  uint64_t requests_served = 0;  ///< OK responses
  uint64_t sql_errors = 0;       ///< ERR from parse/execution
  uint64_t rejected_rate_limit = 0;
  uint64_t rejected_overload = 0;
  uint64_t result_cache_hits = 0;
  uint64_t result_cache_misses = 0;
};

class Server {
 public:
  /// Binds, spawns the I/O thread and workers, and begins serving.
  /// `catalog` must outlive the server.
  static Result<std::unique_ptr<Server>> Start(SharedCatalog* catalog,
                                               ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Stops accepting, drains in-flight statements, closes connections
  /// and joins every thread. Idempotent.
  void Stop();

  uint16_t port() const { return port_; }
  ServerCounters counters() const;

 private:
  struct Conn;

  Server() = default;

  void IoLoop();
  /// Executes one request line on a worker; writes the response.
  void ServeLine(const std::shared_ptr<Conn>& conn, std::string line);
  /// Executes one parsed statement (SET → the connection's session,
  /// reads → snapshot copy behind the result cache, writes → the shared
  /// catalog) and sends the response.
  void ServeStatement(const std::shared_ptr<Conn>& conn,
                      const sql::Statement& stmt, const std::string& line);
  /// Result-cache probe: bumps the entry to the LRU front on a hit.
  std::optional<std::string> CacheLookup(const std::string& key);
  void CacheInsert(const std::string& key, std::string response);
  /// Handles ".ping" / ".stats" / ".sleep ms" / ".quit"; true if `line`
  /// was a dot-command.
  bool ServeDotCommand(const std::shared_ptr<Conn>& conn,
                       const std::string& line);
  void SendAll(const std::shared_ptr<Conn>& conn, const std::string& data);
  /// Re-arms the connection on the poll set (or reaps it) after a
  /// worker finished, and dispatches its next buffered line if any.
  void FinishStatement(const std::shared_ptr<Conn>& conn);
  /// Dispatches `line`, applying admission control and rate limiting.
  void Dispatch(const std::shared_ptr<Conn>& conn, std::string line);
  void WakeIo();

  SharedCatalog* catalog_ = nullptr;
  ServerOptions options_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  ///< self-pipe: worker → poll loop

  std::unique_ptr<TaskPool> workers_;
  std::thread io_thread_;
  std::atomic<bool> stopping_{false};

  std::mutex conns_mu_;
  std::map<int, std::shared_ptr<Conn>> conns_;  ///< by fd

  std::atomic<uint64_t> in_flight_{0};
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> requests_served_{0};
  std::atomic<uint64_t> sql_errors_{0};
  std::atomic<uint64_t> rejected_rate_limit_{0};
  std::atomic<uint64_t> rejected_overload_{0};

  /// Read-statement result cache (see ServerOptions::result_cache_entries).
  struct CacheEntry {
    std::string response;  ///< the full encoded OK response
    std::list<std::string>::iterator lru_it;
  };
  std::mutex cache_mu_;
  std::unordered_map<std::string, CacheEntry> cache_;
  std::list<std::string> cache_lru_;  ///< front = most recently used
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cache_misses_{0};
};

}  // namespace server
}  // namespace maybms

#endif  // MAYBMS_SERVER_SERVER_H_
