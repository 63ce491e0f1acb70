// tpcb: the pgbench-style prepared TPC-B mix (BEGIN, five EXECUTEs, COMMIT)
// over heap tables with hash indexes, closed loop from four sessions. Each
// round loads a fresh cluster and runs a fixed count of transactions, so the
// dead branch/teller versions a round leaves behind never carry over into
// the next and per-transaction cost does not drift with run length.
#include <thread>

#include "bench.h"

namespace htapbench {

namespace {

constexpr int64_t kBranches = 100;
constexpr int64_t kTellers = 1000;
constexpr int64_t kAccounts = 20'000;
constexpr int kClients = 4;
constexpr int kTxnsPerClient = 1500;   // per round
constexpr int kWarmupPerClient = 25;   // per round, before the timed window
constexpr int kMinRounds = 3;

const char* const kPrepares[] = {
    "PREPARE tpcb_update_account AS UPDATE pgbench_accounts "
    "SET abalance = abalance + $1 WHERE aid = $2",
    "PREPARE tpcb_select_account AS SELECT abalance FROM pgbench_accounts "
    "WHERE aid = $1",
    "PREPARE tpcb_update_teller AS UPDATE pgbench_tellers "
    "SET tbalance = tbalance + $1 WHERE tid = $2",
    "PREPARE tpcb_update_branch AS UPDATE pgbench_branches "
    "SET bbalance = bbalance + $1 WHERE bid = $2",
    "PREPARE tpcb_insert_history AS INSERT INTO pgbench_history "
    "(tid, bid, aid, delta) VALUES ($1, $2, $3, $4)",
};

struct TxnArgs {
  int64_t aid, tid, bid, delta;
};

std::vector<TxnArgs> MakeStream(uint64_t seed, uint64_t tag, int n) {
  Rng rng(StreamSeed(seed, tag));
  std::vector<TxnArgs> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    TxnArgs a;
    a.aid = rng.Range(1, kAccounts);
    a.tid = rng.Range(1, kTellers);
    a.bid = rng.Range(1, kBranches);
    a.delta = rng.Range(-5000, 5000);
    out.push_back(a);
  }
  return out;
}

std::vector<gphtap::Row> AccountRows() {
  std::vector<gphtap::Row> rows;
  rows.reserve(kAccounts);
  for (int64_t a = 1; a <= kAccounts; ++a) {
    int64_t bid = (a - 1) / (kAccounts / kBranches) + 1;
    rows.push_back({gphtap::Datum(a), gphtap::Datum(bid), gphtap::Datum(int64_t{0})});
  }
  return rows;
}

Status Load(Cluster* cluster) {
  auto session = cluster->Connect();
  for (const char* ddl : {
           "CREATE TABLE pgbench_branches (bid int, bbalance int) DISTRIBUTED BY (bid)",
           "CREATE TABLE pgbench_tellers (tid int, bid int, tbalance int) "
           "DISTRIBUTED BY (tid)",
           "CREATE TABLE pgbench_accounts (aid int, bid int, abalance int) "
           "DISTRIBUTED BY (aid)",
           "CREATE TABLE pgbench_history (tid int, bid int, aid int, delta int) "
           "DISTRIBUTED BY (aid)",
       }) {
    GPHTAP_RETURN_IF_ERROR(session->Execute(ddl).status());
  }
  auto insert = [&](const char* table, const std::vector<gphtap::Row>& rows) -> Status {
    GPHTAP_ASSIGN_OR_RETURN(gphtap::TableDef def, cluster->LookupTable(table));
    return session->ExecuteInsert(def, rows).status();
  };
  std::vector<gphtap::Row> rows;
  for (int64_t b = 1; b <= kBranches; ++b) {
    rows.push_back({gphtap::Datum(b), gphtap::Datum(int64_t{0})});
  }
  GPHTAP_RETURN_IF_ERROR(insert("pgbench_branches", rows));
  rows.clear();
  for (int64_t t = 1; t <= kTellers; ++t) {
    int64_t bid = (t - 1) / (kTellers / kBranches) + 1;
    rows.push_back({gphtap::Datum(t), gphtap::Datum(bid), gphtap::Datum(int64_t{0})});
  }
  GPHTAP_RETURN_IF_ERROR(insert("pgbench_tellers", rows));
  GPHTAP_RETURN_IF_ERROR(insert("pgbench_accounts", AccountRows()));
  GPHTAP_RETURN_IF_ERROR(cluster->CreateIndex("pgbench_accounts", "aid"));
  GPHTAP_RETURN_IF_ERROR(cluster->CreateIndex("pgbench_tellers", "tid"));
  return cluster->CreateIndex("pgbench_branches", "bid");
}

// One TPC-B transaction; rolls back and returns the error on failure.
Status RunTxn(Client* c, const TxnArgs& a) {
  const std::string d = std::to_string(a.delta);
  const std::string aid = std::to_string(a.aid);
  const std::string tid = std::to_string(a.tid);
  const std::string bid = std::to_string(a.bid);
  const std::pair<const char*, std::string> steps[] = {
      {"stmt.begin", "BEGIN"},
      {"stmt.update_account", "EXECUTE tpcb_update_account(" + d + ", " + aid + ")"},
      {"stmt.select_account", "EXECUTE tpcb_select_account(" + aid + ")"},
      {"stmt.update_teller", "EXECUTE tpcb_update_teller(" + d + ", " + tid + ")"},
      {"stmt.update_branch", "EXECUTE tpcb_update_branch(" + d + ", " + bid + ")"},
      {"stmt.insert_history",
       "EXECUTE tpcb_insert_history(" + tid + ", " + bid + ", " + aid + ", " + d + ")"},
      {"stmt.commit", "COMMIT"},
  };
  c->BeginOp("txn.tpcb");
  Status status;
  for (const auto& [label, sql] : steps) {
    status = c->Exec(label, sql).status();
    if (!status.ok()) break;
  }
  if (!status.ok() && c->session()->in_txn()) c->session()->Rollback();
  c->EndOp();
  return status;
}

StatusOr<int64_t> ScalarInt(Session* s, const std::string& sql) {
  GPHTAP_ASSIGN_OR_RETURN(QueryResult r, s->Execute(sql));
  if (r.rows.size() != 1 || r.rows[0].empty()) {
    return Status::Internal("expected one value from: " + sql);
  }
  if (r.rows[0][0].is_null()) return int64_t{0};
  return r.rows[0][0].int_val();
}

// sum(abalance) = sum(bbalance) = sum(tbalance) = sum(delta), and one
// history row per committed transaction.
Status Check(Cluster* cluster, int64_t committed) {
  auto s = cluster->Connect();
  GPHTAP_ASSIGN_OR_RETURN(int64_t a, ScalarInt(s.get(), "SELECT sum(abalance) FROM pgbench_accounts"));
  GPHTAP_ASSIGN_OR_RETURN(int64_t b, ScalarInt(s.get(), "SELECT sum(bbalance) FROM pgbench_branches"));
  GPHTAP_ASSIGN_OR_RETURN(int64_t t, ScalarInt(s.get(), "SELECT sum(tbalance) FROM pgbench_tellers"));
  GPHTAP_ASSIGN_OR_RETURN(int64_t h, ScalarInt(s.get(), "SELECT sum(delta) FROM pgbench_history"));
  GPHTAP_ASSIGN_OR_RETURN(int64_t n, ScalarInt(s.get(), "SELECT count(*) FROM pgbench_history"));
  if (a != b || b != t || t != h) {
    return Status::Internal("tpcb balances diverge: accounts=" + std::to_string(a) +
                            " branches=" + std::to_string(b) +
                            " tellers=" + std::to_string(t) +
                            " history=" + std::to_string(h));
  }
  if (n != committed) {
    return Status::Internal("tpcb history has " + std::to_string(n) + " rows, " +
                            std::to_string(committed) + " transactions committed");
  }
  return Status::OK();
}

}  // namespace

Status RunTpcb(const BenchConfig& cfg, RunResult* out) {
  out->sizes = {{"branches", kBranches},
                {"tellers", kTellers},
                {"accounts", kAccounts},
                {"clients", kClients},
                {"txns_per_round", int64_t{kClients} * kTxnsPerClient}};
  out->clients = kClients;
  out->select_shapes = {"SELECT abalance FROM pgbench_accounts WHERE aid = 1"};

  std::vector<std::vector<TxnArgs>> warmup, streams;
  for (int c = 0; c < kClients; ++c) {
    warmup.push_back(MakeStream(cfg.seed, 100 + c, kWarmupPerClient));
    streams.push_back(MakeStream(cfg.seed, c, kTxnsPerClient));
  }

  while (out->rounds < kMinRounds || out->window_s < cfg.seconds) {
    const bool probe_round = cfg.trace && out->rounds == 0;
    int64_t setup_start = NowNs();
    auto cluster = std::make_unique<Cluster>(BaseOptions());
    GPHTAP_RETURN_IF_ERROR(Load(cluster.get()));
    std::vector<std::unique_ptr<Client>> clients;
    int64_t committed = 0;
    for (int c = 0; c < kClients; ++c) {
      clients.push_back(std::make_unique<Client>(cluster.get(), cfg.trace));
      Client* client = clients.back().get();
      for (const char* p : kPrepares) {
        GPHTAP_RETURN_IF_ERROR(client->session()->Execute(p).status());
      }
      for (const TxnArgs& a : warmup[static_cast<size_t>(c)]) {
        GPHTAP_RETURN_IF_ERROR(RunTxn(client, a));
        ++committed;
      }
      client->ClearTrace();
    }
    out->setup_s.push_back(static_cast<double>(NowNs() - setup_start) / 1e9);

    if (probe_round) {
      GPHTAP_RETURN_IF_ERROR(RunClusterProbes(cluster.get(), out));
      GPHTAP_RETURN_IF_ERROR(
          RunStorageProbes(cluster.get(), "pgbench_accounts", AccountRows(), false, out));
      GPHTAP_RETURN_IF_ERROR(TimePlans(cluster.get(), out));
    }

    std::vector<std::vector<int64_t>> lat(kClients);
    std::vector<uint64_t> failed(kClients, 0);
    out->stats.Begin(cluster.get());
    const int64_t window_start = NowNs();
    const int64_t cpu_start = ProcessCpuNs();
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        auto& mine = lat[static_cast<size_t>(c)];
        mine.reserve(kTxnsPerClient);
        for (const TxnArgs& a : streams[static_cast<size_t>(c)]) {
          int64_t start = NowNs();
          Status s = RunTxn(clients[static_cast<size_t>(c)].get(), a);
          if (s.ok()) {
            mine.push_back(NowNs() - start);
          } else {
            ++failed[static_cast<size_t>(c)];
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    const double window_s = static_cast<double>(NowNs() - window_start) / 1e9;
    const int64_t cpu_ns = ProcessCpuNs() - cpu_start;
    out->stats.End(cluster.get());

    std::vector<int64_t> round_ns;
    for (int c = 0; c < kClients; ++c) {
      const auto& mine = lat[static_cast<size_t>(c)];
      round_ns.insert(round_ns.end(), mine.begin(), mine.end());
      out->failed += failed[static_cast<size_t>(c)];
      out->attempted += kTxnsPerClient;
    }
    committed += static_cast<int64_t>(round_ns.size());
    out->oltp_ns.insert(out->oltp_ns.end(), round_ns.begin(), round_ns.end());
    GPHTAP_RETURN_IF_ERROR(Check(cluster.get(), committed));
    for (auto& c : clients) {
      c->Disconnect();
      if (cfg.trace) out->traced_clients.push_back(std::move(c));
    }
    out->EndRound(window_s, round_ns.size(), round_ns, cpu_ns, round_ns.size());
  }
  return Status::OK();
}

}  // namespace htapbench
