// Integration tests for the TCP query server: connect/query/disconnect
// over the line protocol, server answers vs direct embedded execution,
// concurrent writer clients (in memory and with a durable WAL
// attachment), per-client rate limiting, admission control, counters,
// and clean shutdown.
#include "server/server.h"

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "server/client.h"
#include "server/shared_catalog.h"
#include "sql/session.h"
#include "storage/io_env.h"
#include "storage/wal.h"
#include "tests/test_util.h"

namespace maybms {
namespace server {
namespace {

std::unique_ptr<Server> MustStart(SharedCatalog* catalog,
                                  ServerOptions options = {}) {
  auto server = Server::Start(catalog, options);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  return std::move(*server);
}

Client MustConnect(const Server& server) {
  auto client = Client::Connect(server.port());
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(*client);
}

Response MustExecute(Client* client, const std::string& stmt) {
  auto resp = client->Execute(stmt);
  EXPECT_TRUE(resp.ok()) << stmt << ": " << resp.status().ToString();
  return resp.ok() ? *resp : Response{};
}

TEST(ServerTest, PingAndQuit) {
  SharedCatalog catalog;
  auto server = MustStart(&catalog);
  Client client = MustConnect(*server);
  Response pong = MustExecute(&client, ".ping");
  ASSERT_TRUE(pong.ok) << pong.error;
  ASSERT_EQ(pong.lines.size(), 1u);
  EXPECT_EQ(pong.lines[0], "pong");
  Response bye = MustExecute(&client, ".quit");
  EXPECT_TRUE(bye.ok);
  // The server closed its side; the next request fails at transport
  // level rather than hanging.
  EXPECT_FALSE(client.Execute(".ping").ok());
}

TEST(ServerTest, QueryMatchesDirectExecution) {
  SharedCatalog catalog;
  auto server = MustStart(&catalog);
  Client client = MustConnect(*server);

  for (const char* stmt :
       {"CREATE TABLE md (name STRING, diag STRING)",
        "INSERT INTO md VALUES ('smith', {'flu': 0.7, 'cold': 0.3})",
        "INSERT INTO md VALUES ('jones', 'flu')"}) {
    Response r = MustExecute(&client, stmt);
    ASSERT_TRUE(r.ok) << stmt << ": " << r.error;
  }

  // The same statements through an embedded session.
  sql::Session direct;
  MAYBMS_ASSERT_OK(
      direct.Execute("CREATE TABLE md (name STRING, diag STRING)").status());
  MAYBMS_ASSERT_OK(direct
                       .Execute("INSERT INTO md VALUES "
                                "('smith', {'flu': 0.7, 'cold': 0.3})")
                       .status());
  MAYBMS_ASSERT_OK(
      direct.Execute("INSERT INTO md VALUES ('jones', 'flu')").status());

  for (const char* q :
       {"SELECT name, PROB() FROM md WHERE diag = 'flu'",
        "POSSIBLE SELECT diag FROM md", "CERTAIN SELECT name FROM md",
        "SELECT ECOUNT() FROM md WHERE diag = 'cold'", "SHOW TABLES"}) {
    Response got = MustExecute(&client, q);
    ASSERT_TRUE(got.ok) << q << ": " << got.error;
    auto want = direct.Execute(q);
    MAYBMS_ASSERT_OK(want.status());
    std::string joined;
    for (const std::string& l : got.lines) joined += l + "\n";
    std::string expect = want->ToDisplayString();
    if (!expect.empty() && expect.back() != '\n') expect += "\n";
    EXPECT_EQ(joined, expect) << q;
  }
}

TEST(ServerTest, SqlErrorsAreErrResponsesNotDisconnects) {
  SharedCatalog catalog;
  auto server = MustStart(&catalog);
  Client client = MustConnect(*server);
  Response bad = MustExecute(&client, "SELECT FROM nothing !!");
  EXPECT_FALSE(bad.ok);
  EXPECT_FALSE(bad.error.empty());
  Response missing = MustExecute(&client, "SELECT * FROM no_such_table");
  EXPECT_FALSE(missing.ok);
  // The connection survives errors.
  Response pong = MustExecute(&client, ".ping");
  EXPECT_TRUE(pong.ok);
  EXPECT_EQ(server->counters().sql_errors, 2u);
}

TEST(ServerTest, MappedLoadRejected) {
  SharedCatalog catalog;
  auto server = MustStart(&catalog);
  Client client = MustConnect(*server);
  Response r = MustExecute(&client,
                           "LOAD DATABASE 'whatever.wsd' MAPPED");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("MAPPED"), std::string::npos);
}

TEST(ServerTest, ConcurrentWritersSerialized) {
  SharedCatalog catalog;
  MAYBMS_ASSERT_OK(
      catalog.setup_session()->Execute("CREATE TABLE c (a INT)").status());
  catalog.Publish();
  // Enough admission headroom that shedding never kicks in (that policy
  // has its own test below); this test is about write serialization.
  ServerOptions options;
  options.workers = 4;
  options.max_in_flight = 64;
  auto server = MustStart(&catalog, options);

  constexpr int kClients = 8;
  constexpr int kRowsEach = 10;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = Client::Connect(server->port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kRowsEach; ++i) {
        auto r = client->Execute("INSERT INTO c VALUES (" +
                                 std::to_string(c * 100 + i) + ")");
        if (!r.ok() || !r->ok) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);

  Client reader = MustConnect(*server);
  Response count = MustExecute(&reader, "SELECT ECOUNT() FROM c");
  ASSERT_TRUE(count.ok) << count.error;
  // All 80 inserts committed exactly once, in some serial order.
  std::string joined;
  for (const std::string& l : count.lines) joined += l + "\n";
  EXPECT_NE(joined.find(std::to_string(kClients * kRowsEach)),
            std::string::npos)
      << joined;
}

// The durable commit path: the writer session is attached to a snapshot
// before serving, so every acknowledged INSERT from concurrent clients
// is one kDelta WAL record, and a fresh session recovers all of them.
TEST(ServerTest, DurableConcurrentWritersRecoverEveryAcknowledgedInsert) {
  FaultInjectingEnv env;  // touched only under the commit lock
  SharedCatalog catalog;
  sql::Session* setup = catalog.setup_session();
  setup->set_env(&env);
  setup->mutable_options().durability.auto_checkpoint_records = 0;
  MAYBMS_ASSERT_OK(setup->Execute("CREATE TABLE c (a INT)").status());
  MAYBMS_ASSERT_OK(setup->Execute("SAVE DATABASE 'db'").status());
  ASSERT_TRUE(setup->has_durable_attachment());
  catalog.Publish();
  ServerOptions options;
  options.workers = 4;
  options.max_in_flight = 64;
  auto server = MustStart(&catalog, options);

  constexpr int kClients = 4;
  constexpr int kRowsEach = 8;
  std::atomic<int> acked{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = Client::Connect(server->port());
      if (!client.ok()) return;
      for (int i = 0; i < kRowsEach; ++i) {
        auto r = client->Execute("INSERT INTO c VALUES ({" +
                                 std::to_string(c * 100 + i) + ": 0.5, " +
                                 std::to_string(c * 100 + i + 50) +
                                 ": 0.5})");
        if (r.ok() && r->ok) acked.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  server->Stop();
  ASSERT_GT(acked.load(), 0);

  auto contents = wal::ReadWal(&env, "db.wal");
  MAYBMS_ASSERT_OK(contents.status());
  EXPECT_EQ(contents->records.size(), static_cast<size_t>(acked.load()));
  for (const wal::WalRecord& record : contents->records) {
    EXPECT_EQ(record.type, wal::RecordType::kDelta) << "lsn " << record.lsn;
  }

  sql::Session recovered;
  recovered.set_env(&env);
  MAYBMS_ASSERT_OK(recovered.Execute("LOAD DATABASE 'db'").status());
  auto count = recovered.Execute("SELECT ECOUNT() FROM c");
  MAYBMS_ASSERT_OK(count.status());
  ASSERT_EQ(count->table.NumRows(), 1u);
  EXPECT_DOUBLE_EQ(count->table.row(0)[0].as_double(),
                   static_cast<double>(acked.load()));
  testing_util::ExpectDbsExactlyEqual(catalog.SnapshotCopy(),
                                      recovered.db());
}

TEST(ServerTest, RateLimitRejectsBurst) {
  SharedCatalog catalog;
  ServerOptions options;
  options.rate_qps = 0.001;  // effectively: only the burst is spendable
  options.rate_burst = 3.0;
  auto server = MustStart(&catalog, options);
  Client client = MustConnect(*server);
  int ok = 0, limited = 0;
  for (int i = 0; i < 10; ++i) {
    Response r = MustExecute(&client, ".ping");
    if (r.ok) {
      ++ok;
    } else {
      EXPECT_NE(r.error.find("rate limit"), std::string::npos);
      ++limited;
    }
  }
  EXPECT_EQ(ok, 3);
  EXPECT_EQ(limited, 7);
  EXPECT_EQ(server->counters().rejected_rate_limit, 7u);

  // A fresh connection has its own bucket.
  Client second = MustConnect(*server);
  EXPECT_TRUE(MustExecute(&second, ".ping").ok);
}

TEST(ServerTest, AdmissionControlShedsOverload) {
  SharedCatalog catalog;
  ServerOptions options;
  options.workers = 2;
  options.max_in_flight = 2;
  auto server = MustStart(&catalog, options);

  // Two clients park in .sleep, filling the in-flight budget; a third
  // request is shed immediately instead of queueing.
  std::vector<std::thread> sleepers;
  std::atomic<int> sleep_failures{0};
  for (int i = 0; i < 2; ++i) {
    sleepers.emplace_back([&] {
      auto c = Client::Connect(server->port());
      if (!c.ok() || !c->Execute(".sleep 600").ok()) {
        sleep_failures.fetch_add(1);
      }
    });
  }
  // Give the sleepers time to occupy the workers.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  Client extra = MustConnect(*server);
  Response shed = MustExecute(&extra, ".ping");
  EXPECT_FALSE(shed.ok);
  EXPECT_NE(shed.error.find("overloaded"), std::string::npos);
  for (auto& t : sleepers) t.join();
  EXPECT_EQ(sleep_failures.load(), 0);
  EXPECT_GE(server->counters().rejected_overload, 1u);
  // Capacity freed: served again.
  EXPECT_TRUE(MustExecute(&extra, ".ping").ok);
}

TEST(ServerTest, StatsCommandAndCounters) {
  SharedCatalog catalog;
  auto server = MustStart(&catalog);
  Client client = MustConnect(*server);
  MustExecute(&client, ".ping");
  Response stats = MustExecute(&client, ".stats");
  ASSERT_TRUE(stats.ok);
  bool saw_served = false, saw_version = false;
  for (const std::string& l : stats.lines) {
    if (l.rfind("requests_served ", 0) == 0) saw_served = true;
    if (l.rfind("catalog_version ", 0) == 0) saw_version = true;
  }
  EXPECT_TRUE(saw_served);
  EXPECT_TRUE(saw_version);
  EXPECT_GE(server->counters().requests_served, 2u);
  EXPECT_EQ(server->counters().connections_accepted, 1u);
}

TEST(ServerTest, ResultCacheKeyedOnVersionSettingsAndText) {
  SharedCatalog catalog;
  auto server = MustStart(&catalog);
  Client client = MustConnect(*server);
  MustExecute(&client, "CREATE TABLE t (x INT)");
  MustExecute(&client, "INSERT INTO t VALUES ({1: 0.5, 2: 0.5})");

  // Same read re-issued: first populates, repeats hit.
  const std::string q = "SELECT x, PROB() FROM t";
  Response first = MustExecute(&client, q);
  ASSERT_TRUE(first.ok);
  EXPECT_TRUE(MustExecute(&client, q).ok);
  EXPECT_TRUE(MustExecute(&client, q).ok);
  EXPECT_GE(server->counters().result_cache_hits, 2u);
  const uint64_t hits_before = server->counters().result_cache_hits;
  const uint64_t misses_before = server->counters().result_cache_misses;

  // SET is session-local and changes this connection's settings
  // fingerprint — the same text must now miss, not serve the old entry.
  MustExecute(&client, "SET conf.num_threads = 2");
  EXPECT_TRUE(MustExecute(&client, q).ok);
  EXPECT_EQ(server->counters().result_cache_hits, hits_before);
  EXPECT_GT(server->counters().result_cache_misses, misses_before);

  // A committed write bumps the published version: stale entries stop
  // matching and the fresh answer reflects the write.
  MustExecute(&client, "INSERT INTO t VALUES (7)");
  Response after = MustExecute(&client, "CERTAIN SELECT x FROM t");
  ASSERT_TRUE(after.ok);
  bool saw_seven = false;
  for (const std::string& l : after.lines) {
    if (l.find('7') != std::string::npos) saw_seven = true;
  }
  EXPECT_TRUE(saw_seven);

  // Both counters surface through .stats for monitoring.
  Response stats = MustExecute(&client, ".stats");
  bool saw_hits = false, saw_misses = false;
  for (const std::string& l : stats.lines) {
    if (l.rfind("result_cache_hits ", 0) == 0) saw_hits = true;
    if (l.rfind("result_cache_misses ", 0) == 0) saw_misses = true;
  }
  EXPECT_TRUE(saw_hits && saw_misses);
}

TEST(ServerTest, AbruptDisconnectAndStop) {
  SharedCatalog catalog;
  auto server = MustStart(&catalog);
  {
    Client client = MustConnect(*server);
    MustExecute(&client, ".ping");
    // Destructor closes the socket without .quit — the server must reap
    // the connection without disturbing others.
  }
  Client survivor = MustConnect(*server);
  EXPECT_TRUE(MustExecute(&survivor, ".ping").ok);
  server->Stop();
  // Stop is idempotent and leaves clients with EOF, not hangs.
  server->Stop();
  EXPECT_FALSE(survivor.Execute(".ping").ok());
}

}  // namespace
}  // namespace server
}  // namespace maybms
