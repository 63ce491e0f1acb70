// CH-benCHmark workloads: olap_scan (the 11 analytical queries round robin
// over AO-column fact tables, closed loop, one session) and htap (the same
// queries in one closed-loop session beside a fixed-rate open loop of
// NewOrder/Payment over heap tables with the delta store on).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "bench.h"

namespace htapbench {

namespace {

using gphtap::Datum;
using gphtap::Row;

struct ChSizes {
  int64_t warehouses = 8;
  int64_t districts = 10;        // per warehouse
  int64_t customers = 100;       // per district
  int64_t items = 2000;
  int64_t orders = 100;          // initial orders per district
  int64_t lines_per_order = 3;
  bool column_storage = false;   // orders / order_line as AO-column
};

// The analytical set. Ties in ORDER BY ... LIMIT get a unique tiebreaker so
// both engines must return the same rows in the same order.
const std::vector<std::string>& Queries() {
  static const std::vector<std::string> queries = {
      "SELECT ol_number, sum(ol_qty) AS sum_qty, sum(ol_amount) AS sum_amount, "
      "avg(ol_qty) AS avg_qty, avg(ol_amount) AS avg_amount, count(*) AS count_order "
      "FROM order_line GROUP BY ol_number ORDER BY ol_number",
      "SELECT sum(ol_amount) AS revenue FROM order_line WHERE ol_qty >= 2 AND ol_qty <= 8",
      "SELECT o.o_id, sum(l.ol_amount) AS revenue FROM orders o "
      "JOIN order_line l ON o.o_id = l.ol_o_id "
      "WHERE o.o_w_id = l.ol_w_id AND o.o_d_id = l.ol_d_id "
      "GROUP BY o.o_id ORDER BY revenue DESC, o_id LIMIT 10",
      "SELECT o_ol_cnt, count(*) AS order_count FROM orders GROUP BY o_ol_cnt "
      "ORDER BY o_ol_cnt",
      "SELECT i.i_category, sum(l.ol_amount) AS revenue FROM order_line l "
      "JOIN item i ON l.ol_i_id = i.i_id GROUP BY i.i_category ORDER BY i.i_category",
      "SELECT count(*) AS low_stock_lines FROM order_line l "
      "JOIN stock s ON l.ol_i_id = s.s_i_id "
      "WHERE l.ol_w_id = s.s_w_id AND s.s_quantity < 60",
      "SELECT c_d_id, avg(c_balance) AS avg_balance, min(c_balance), max(c_balance) "
      "FROM customer GROUP BY c_d_id ORDER BY c_d_id",
      "SELECT o_d_id, count(*) AS n FROM orders WHERE o_entry_d > 10 GROUP BY o_d_id "
      "ORDER BY o_d_id",
      "SELECT s_i_id, sum(s_quantity) AS total_qty FROM stock GROUP BY s_i_id "
      "HAVING sum(s_quantity) > 100 ORDER BY total_qty DESC, s_i_id LIMIT 20",
      "SELECT DISTINCT ol_d_id, ol_i_id FROM order_line ORDER BY ol_d_id, ol_i_id "
      "LIMIT 50",
      "SELECT c_d_id, avg(c_ytd_payment) AS avg_paid FROM customer GROUP BY c_d_id "
      "HAVING avg_paid >= 0 ORDER BY c_d_id",
  };
  return queries;
}

const char* const kQueryLabels[] = {
    "query.q0", "query.q1", "query.q2", "query.q3", "query.q4",  "query.q5",
    "query.q6", "query.q7", "query.q8", "query.q9", "query.q10",
};

double Amount(int64_t item, int64_t qty) {
  return static_cast<double>(qty) * (1.0 + static_cast<double>(item % 100));
}

// Creates and fills the CH tables; returns the order_line rows it loaded.
StatusOr<std::vector<Row>> Load(Cluster* cluster, const ChSizes& z, uint64_t seed) {
  auto session = cluster->Connect();
  const std::string fact = z.column_storage ? " WITH (storage=ao_column)" : "";
  for (const std::string& ddl : {
           std::string("CREATE TABLE warehouse (w_id int, w_name text, w_ytd double) "
                       "DISTRIBUTED BY (w_id)"),
           std::string("CREATE TABLE district (d_w_id int, d_id int, d_ytd double, "
                       "d_next_o_id int) DISTRIBUTED BY (d_w_id)"),
           std::string("CREATE TABLE customer (c_w_id int, c_d_id int, c_id int, "
                       "c_balance double, c_ytd_payment double) DISTRIBUTED BY (c_w_id)"),
           "CREATE TABLE orders (o_w_id int, o_d_id int, o_id int, o_c_id int, "
           "o_ol_cnt int, o_entry_d int)" + fact + " DISTRIBUTED BY (o_w_id)",
           "CREATE TABLE order_line (ol_w_id int, ol_d_id int, ol_o_id int, "
           "ol_number int, ol_i_id int, ol_qty int, ol_amount double)" + fact +
               " DISTRIBUTED BY (ol_w_id)",
           std::string("CREATE TABLE item (i_id int, i_name text, i_price double, "
                       "i_category int) DISTRIBUTED REPLICATED"),
           std::string("CREATE TABLE stock (s_w_id int, s_i_id int, s_quantity int, "
                       "s_ytd int) DISTRIBUTED BY (s_w_id)"),
       }) {
    GPHTAP_RETURN_IF_ERROR(session->Execute(ddl).status());
  }
  auto insert = [&](const char* table, const std::vector<Row>& rows) -> Status {
    GPHTAP_ASSIGN_OR_RETURN(gphtap::TableDef def, cluster->LookupTable(table));
    return session->ExecuteInsert(def, rows).status();
  };

  Rng rng(StreamSeed(seed, 1000));
  std::vector<Row> rows;
  for (int64_t w = 1; w <= z.warehouses; ++w) {
    rows.push_back({Datum(w), Datum("warehouse_" + std::to_string(w)), Datum(0.0)});
  }
  GPHTAP_RETURN_IF_ERROR(insert("warehouse", rows));
  rows.clear();
  for (int64_t w = 1; w <= z.warehouses; ++w) {
    for (int64_t d = 1; d <= z.districts; ++d) {
      rows.push_back({Datum(w), Datum(d), Datum(0.0), Datum(z.orders + 1)});
    }
  }
  GPHTAP_RETURN_IF_ERROR(insert("district", rows));
  rows.clear();
  for (int64_t w = 1; w <= z.warehouses; ++w) {
    for (int64_t d = 1; d <= z.districts; ++d) {
      for (int64_t c = 1; c <= z.customers; ++c) {
        rows.push_back({Datum(w), Datum(d), Datum(c), Datum(0.0), Datum(0.0)});
      }
    }
  }
  GPHTAP_RETURN_IF_ERROR(insert("customer", rows));
  rows.clear();
  for (int64_t i = 1; i <= z.items; ++i) {
    rows.push_back({Datum(i), Datum("item_" + std::to_string(i)),
                    Datum(1.0 + static_cast<double>(i % 100)), Datum(i % 10)});
  }
  GPHTAP_RETURN_IF_ERROR(insert("item", rows));
  rows.clear();
  for (int64_t w = 1; w <= z.warehouses; ++w) {
    for (int64_t i = 1; i <= z.items; ++i) {
      rows.push_back({Datum(w), Datum(i), Datum(rng.Range(10, 100)), Datum(int64_t{0})});
    }
  }
  GPHTAP_RETURN_IF_ERROR(insert("stock", rows));

  std::vector<Row> orders, lines;
  for (int64_t w = 1; w <= z.warehouses; ++w) {
    for (int64_t d = 1; d <= z.districts; ++d) {
      for (int64_t o = 1; o <= z.orders; ++o) {
        orders.push_back({Datum(w), Datum(d), Datum(o), Datum(rng.Range(1, z.customers)),
                          Datum(z.lines_per_order), Datum(o)});
        for (int64_t l = 1; l <= z.lines_per_order; ++l) {
          int64_t item = rng.Range(1, z.items);
          int64_t qty = rng.Range(1, 10);
          lines.push_back({Datum(w), Datum(d), Datum(o), Datum(l), Datum(item), Datum(qty),
                           Datum(Amount(item, qty))});
        }
      }
    }
  }
  GPHTAP_RETURN_IF_ERROR(insert("orders", orders));
  GPHTAP_RETURN_IF_ERROR(insert("order_line", lines));
  return lines;
}

bool SameValue(const Datum& a, const Datum& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.is_string() || b.is_string()) return a == b;
  double x = a.AsDouble(), y = b.AsDouble();
  return std::fabs(x - y) <= 1e-9 * std::max({1.0, std::fabs(x), std::fabs(y)});
}

Status CompareRows(const std::vector<Row>& got, const std::vector<Row>& want,
                   const std::string& what) {
  bool same = got.size() == want.size();
  for (size_t r = 0; same && r < got.size(); ++r) {
    same = got[r].size() == want[r].size();
    for (size_t c = 0; same && c < got[r].size(); ++c) {
      same = SameValue(got[r][c], want[r][c]);
    }
  }
  if (same) return Status::OK();
  return Status::Internal(what + ": " + std::to_string(got.size()) + " rows differ from the " +
                          std::to_string(want.size()) + "-row row-engine answer");
}

/// Row-engine answers (SET vectorized_execution = off) for `sqls`.
StatusOr<std::vector<std::vector<Row>>> RowEngineAnswers(Cluster* cluster,
                                                         const std::vector<std::string>& sqls) {
  auto s = cluster->Connect();
  GPHTAP_RETURN_IF_ERROR(s->Execute("SET vectorized_execution = off").status());
  std::vector<std::vector<Row>> out;
  for (const std::string& sql : sqls) {
    GPHTAP_ASSIGN_OR_RETURN(QueryResult r, s->Execute(sql));
    out.push_back(std::move(r.rows));
  }
  return out;
}

// Runs query `q` as one request; returns its latency.
StatusOr<int64_t> RunQuery(Client* c, size_t q, std::vector<Row>* rows) {
  c->BeginOp("op.query");
  int64_t start = NowNs();
  StatusOr<QueryResult> r = c->Exec(kQueryLabels[q], Queries()[q]);
  int64_t elapsed = NowNs() - start;
  c->EndOp();
  if (!r.ok()) return r.status();
  if (rows != nullptr) *rows = std::move(r->rows);
  return elapsed;
}

std::map<std::string, int64_t> SizesOf(const ChSizes& z) {
  return {{"warehouses", z.warehouses},
          {"districts_per_warehouse", z.districts},
          {"customers_per_district", z.customers},
          {"items", z.items},
          {"orders_per_district", z.orders},
          {"order_lines", z.warehouses * z.districts * z.orders * z.lines_per_order}};
}

// ---------------------------------------------------------------------------
// olap_scan
// ---------------------------------------------------------------------------

constexpr int kOlapPassesPerRound = 10;
constexpr int kOlapMinRounds = 3;

}  // namespace

Status RunOlapScan(const BenchConfig& cfg, RunResult* out) {
  ChSizes z;
  z.orders = 1000;
  z.column_storage = true;
  out->sizes = SizesOf(z);
  out->sizes["clients"] = 1;
  out->sizes["passes_per_round"] = kOlapPassesPerRound;
  out->clients = 1;
  out->select_shapes = Queries();
  const size_t nq = Queries().size();

  std::vector<std::vector<Row>> reference;
  while (out->rounds < kOlapMinRounds || out->window_s < cfg.seconds) {
    const bool probe_round = cfg.trace && out->rounds == 0;
    int64_t setup_start = NowNs();
    auto cluster = std::make_unique<Cluster>(BaseOptions());
    GPHTAP_ASSIGN_OR_RETURN(std::vector<Row> lines, Load(cluster.get(), z, cfg.seed));
    auto client = std::make_unique<Client>(cluster.get(), cfg.trace);
    for (size_t q = 0; q < nq; ++q) {  // warm-up pass: fills the plan cache
      GPHTAP_RETURN_IF_ERROR(RunQuery(client.get(), q, nullptr).status());
    }
    client->ClearTrace();
    out->setup_s.push_back(static_cast<double>(NowNs() - setup_start) / 1e9);

    // Same seed, same data: the row-engine answers hold for every round.
    if (reference.empty()) {
      GPHTAP_ASSIGN_OR_RETURN(reference, RowEngineAnswers(cluster.get(), Queries()));
    }
    if (probe_round) {
      GPHTAP_RETURN_IF_ERROR(RunClusterProbes(cluster.get(), out));
      GPHTAP_RETURN_IF_ERROR(RunStorageProbes(cluster.get(), "order_line", lines, true, out));
      GPHTAP_RETURN_IF_ERROR(TimePlans(cluster.get(), out));
    }
    lines.clear();
    lines.shrink_to_fit();

    std::vector<std::vector<Row>> results(nq * kOlapPassesPerRound);
    std::vector<bool> ok(results.size(), false);
    std::vector<int64_t> round_ns;
    out->stats.Begin(cluster.get());
    const int64_t window_start = NowNs();
    const int64_t cpu_start = ProcessCpuNs();
    for (size_t i = 0; i < results.size(); ++i) {
      StatusOr<int64_t> lat = RunQuery(client.get(), i % nq, &results[i]);
      ++out->attempted;
      if (lat.ok()) {
        round_ns.push_back(*lat);
        ok[i] = true;
      } else {
        ++out->failed;
      }
    }
    const double window_s = static_cast<double>(NowNs() - window_start) / 1e9;
    const int64_t cpu_ns = ProcessCpuNs() - cpu_start;
    out->stats.End(cluster.get());
    out->olap_ns.insert(out->olap_ns.end(), round_ns.begin(), round_ns.end());

    for (size_t i = 0; i < results.size(); ++i) {
      if (!ok[i]) continue;
      GPHTAP_RETURN_IF_ERROR(CompareRows(results[i], reference[i % nq],
                                         "olap_scan q" + std::to_string(i % nq)));
    }
    client->Disconnect();
    if (cfg.trace) out->traced_clients.push_back(std::move(client));
    out->EndRound(window_s, round_ns.size(), round_ns, cpu_ns, round_ns.size());
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// htap
// ---------------------------------------------------------------------------

namespace {

constexpr double kOltpRatePerS = 130;  // open-loop arrival rate
constexpr int kOltpClients = 2;
constexpr int kOltpTxnsPerRound = 650;  // 5 s of schedule per round
constexpr int kOltpWarmupTxns = 10;
constexpr int kHtapMinRounds = 3;

struct ChTxn {
  bool new_order = false;
  int64_t w = 0, d = 0, c = 0;
  int64_t amount = 0;                        // payment
  std::vector<std::pair<int64_t, int64_t>> lines;  // (item, qty), item-sorted
};

std::vector<ChTxn> MakeSchedule(uint64_t seed, uint64_t tag, int n, const ChSizes& z) {
  Rng rng(StreamSeed(seed, tag));
  std::vector<ChTxn> out;
  for (int i = 0; i < n; ++i) {
    ChTxn t;
    t.new_order = rng.Range(0, 1) == 0;
    t.w = rng.Range(1, z.warehouses);
    t.d = rng.Range(1, z.districts);
    t.c = rng.Range(1, z.customers);
    t.amount = rng.Range(1, 5000);
    if (t.new_order) {
      for (int64_t l = 0; l < z.lines_per_order; ++l) {
        t.lines.emplace_back(rng.Range(1, z.items), rng.Range(1, 10));
      }
      // Stock rows are locked in item order, so two NewOrders cannot deadlock.
      std::sort(t.lines.begin(), t.lines.end());
    }
    out.push_back(std::move(t));
  }
  return out;
}

// NewOrder or Payment as literal SQL; rolls back and returns the error on
// failure.
Status RunChTxn(Client* c, const ChTxn& t) {
  const std::string ws = std::to_string(t.w), ds = std::to_string(t.d);
  c->BeginOp(t.new_order ? "txn.new_order" : "txn.payment");
  auto body = [&]() -> Status {
    GPHTAP_RETURN_IF_ERROR(c->Exec("stmt.begin", "BEGIN").status());
    if (t.new_order) {
      GPHTAP_RETURN_IF_ERROR(c->Exec("stmt.update_district",
                                     "UPDATE district SET d_next_o_id = d_next_o_id + 1 "
                                     "WHERE d_w_id = " + ws + " AND d_id = " + ds)
                                 .status());
      GPHTAP_ASSIGN_OR_RETURN(
          QueryResult next,
          c->Exec("stmt.select_district", "SELECT d_next_o_id FROM district WHERE d_w_id = " +
                                              ws + " AND d_id = " + ds));
      if (next.rows.size() != 1) return Status::Internal("district row missing");
      const std::string os = std::to_string(next.rows[0][0].int_val() - 1);
      GPHTAP_RETURN_IF_ERROR(
          c->Exec("stmt.insert_order",
                  "INSERT INTO orders (o_w_id, o_d_id, o_id, o_c_id, o_ol_cnt, o_entry_d) "
                  "VALUES (" + ws + ", " + ds + ", " + os + ", " + std::to_string(t.c) +
                      ", " + std::to_string(t.lines.size()) + ", " + os + ")")
              .status());
      for (size_t l = 0; l < t.lines.size(); ++l) {
        const auto [item, qty] = t.lines[l];
        GPHTAP_RETURN_IF_ERROR(
            c->Exec("stmt.insert_order_line",
                    "INSERT INTO order_line (ol_w_id, ol_d_id, ol_o_id, ol_number, ol_i_id, "
                    "ol_qty, ol_amount) VALUES (" + ws + ", " + ds + ", " + os + ", " +
                        std::to_string(l + 1) + ", " + std::to_string(item) + ", " +
                        std::to_string(qty) + ", " + std::to_string(Amount(item, qty)) + ")")
                .status());
        GPHTAP_RETURN_IF_ERROR(
            c->Exec("stmt.update_stock",
                    "UPDATE stock SET s_quantity = s_quantity - " + std::to_string(qty) +
                        ", s_ytd = s_ytd + " + std::to_string(qty) + " WHERE s_w_id = " + ws +
                        " AND s_i_id = " + std::to_string(item))
                .status());
      }
    } else {
      const std::string as = std::to_string(t.amount);
      GPHTAP_RETURN_IF_ERROR(c->Exec("stmt.update_warehouse",
                                     "UPDATE warehouse SET w_ytd = w_ytd + " + as +
                                         " WHERE w_id = " + ws)
                                 .status());
      GPHTAP_RETURN_IF_ERROR(c->Exec("stmt.update_district",
                                     "UPDATE district SET d_ytd = d_ytd + " + as +
                                         " WHERE d_w_id = " + ws + " AND d_id = " + ds)
                                 .status());
      GPHTAP_RETURN_IF_ERROR(
          c->Exec("stmt.update_customer",
                  "UPDATE customer SET c_balance = c_balance - " + as +
                      ", c_ytd_payment = c_ytd_payment + " + as + " WHERE c_w_id = " + ws +
                      " AND c_d_id = " + ds + " AND c_id = " + std::to_string(t.c))
              .status());
    }
    return c->Exec("stmt.commit", "COMMIT").status();
  };
  Status status = body();
  if (!status.ok() && c->session()->in_txn()) c->session()->Rollback();
  c->EndOp();
  return status;
}

// What the committed transactions must have left behind.
struct Committed {
  int64_t new_orders = 0;
  int64_t order_lines = 0;
  double payments = 0;

  void Add(const ChTxn& t) {
    if (t.new_order) {
      ++new_orders;
      order_lines += static_cast<int64_t>(t.lines.size());
    } else {
      payments += static_cast<double>(t.amount);
    }
  }
};

StatusOr<double> Scalar(Session* s, const std::string& sql) {
  GPHTAP_ASSIGN_OR_RETURN(QueryResult r, s->Execute(sql));
  if (r.rows.size() != 1 || r.rows[0].empty() || r.rows[0][0].is_null()) {
    return Status::Internal("expected one value from: " + sql);
  }
  return r.rows[0][0].AsDouble();
}

// At quiescence: fact-table counts and ytd sums match the committed
// transactions, and a delta-merged scan matches the row engine.
Status CheckHtap(Cluster* cluster, const ChSizes& z, const Committed& done) {
  auto s = cluster->Connect();
  const int64_t initial_orders = z.warehouses * z.districts * z.orders;
  const struct {
    const char* sql;
    double want;
  } checks[] = {
      {"SELECT count(*) FROM orders", static_cast<double>(initial_orders + done.new_orders)},
      {"SELECT count(*) FROM order_line",
       static_cast<double>(initial_orders * z.lines_per_order + done.order_lines)},
      {"SELECT sum(w_ytd) FROM warehouse", done.payments},
      {"SELECT sum(d_ytd) FROM district", done.payments},
  };
  for (const auto& c : checks) {
    GPHTAP_ASSIGN_OR_RETURN(double got, Scalar(s.get(), c.sql));
    if (!SameValue(Datum(got), Datum(c.want))) {
      return Status::Internal(std::string("htap: ") + c.sql + " = " + std::to_string(got) +
                              ", committed transactions imply " + std::to_string(c.want));
    }
  }
  const std::string merged =
      "SELECT ol_w_id, count(*), sum(ol_qty), sum(ol_amount) FROM order_line "
      "GROUP BY ol_w_id ORDER BY ol_w_id";
  GPHTAP_ASSIGN_OR_RETURN(QueryResult got, s->Execute(merged));
  GPHTAP_ASSIGN_OR_RETURN(auto want, RowEngineAnswers(cluster, {merged}));
  return CompareRows(got.rows, want[0], "htap delta-merged order_line scan");
}

}  // namespace

Status RunHtap(const BenchConfig& cfg, RunResult* out) {
  ChSizes z;  // heap tables, 100 orders per district
  out->sizes = SizesOf(z);
  out->sizes["oltp_clients"] = kOltpClients;
  out->sizes["olap_clients"] = 1;
  out->sizes["oltp_rate_per_s"] = static_cast<int64_t>(kOltpRatePerS);
  out->sizes["oltp_txns_per_round"] = kOltpTxnsPerRound;
  out->clients = kOltpClients + 1;
  out->select_shapes = Queries();
  out->select_shapes.push_back("SELECT d_next_o_id FROM district WHERE d_w_id = 1 AND d_id = 1");
  const size_t nq = Queries().size();
  const std::vector<ChTxn> warmup = MakeSchedule(cfg.seed, 2000, kOltpWarmupTxns, z);
  const std::vector<ChTxn> schedule = MakeSchedule(cfg.seed, 2001, kOltpTxnsPerRound, z);
  const int64_t interval_ns = static_cast<int64_t>(1e9 / kOltpRatePerS);

  ClusterOptions options = BaseOptions();
  options.delta_store_enabled = true;
  while (out->rounds < kHtapMinRounds || out->window_s < cfg.seconds) {
    const bool probe_round = cfg.trace && out->rounds == 0;
    int64_t setup_start = NowNs();
    auto cluster = std::make_unique<Cluster>(options);
    GPHTAP_ASSIGN_OR_RETURN(std::vector<Row> lines, Load(cluster.get(), z, cfg.seed));
    std::vector<std::unique_ptr<Client>> oltp;
    for (int c = 0; c < kOltpClients; ++c) {
      oltp.push_back(std::make_unique<Client>(cluster.get(), cfg.trace));
    }
    auto olap = std::make_unique<Client>(cluster.get(), cfg.trace);
    Committed done;
    for (size_t i = 0; i < warmup.size(); ++i) {
      GPHTAP_RETURN_IF_ERROR(RunChTxn(oltp[i % kOltpClients].get(), warmup[i]));
      done.Add(warmup[i]);
    }
    for (size_t q = 0; q < nq; ++q) {
      GPHTAP_RETURN_IF_ERROR(RunQuery(olap.get(), q, nullptr).status());
    }
    for (auto& c : oltp) c->ClearTrace();
    olap->ClearTrace();
    out->setup_s.push_back(static_cast<double>(NowNs() - setup_start) / 1e9);

    if (probe_round) {
      GPHTAP_RETURN_IF_ERROR(RunClusterProbes(cluster.get(), out));
      GPHTAP_RETURN_IF_ERROR(RunStorageProbes(cluster.get(), "order_line", lines, false, out));
      GPHTAP_RETURN_IF_ERROR(TimePlans(cluster.get(), out));
    }
    lines.clear();
    lines.shrink_to_fit();

    std::vector<std::vector<int64_t>> lat(kOltpClients), late(kOltpClients);
    std::vector<std::vector<size_t>> committed(kOltpClients);
    std::vector<uint64_t> failed(kOltpClients + 1, 0);
    std::vector<int64_t> olap_lat;
    std::atomic<int> oltp_running{kOltpClients};
    int64_t olap_end = 0;
    out->stats.Begin(cluster.get());
    const int64_t window_start = NowNs();
    const int64_t cpu_start = ProcessCpuNs();
    std::vector<std::thread> threads;
    for (int c = 0; c < kOltpClients; ++c) {
      threads.emplace_back([&, c] {
        const size_t k = static_cast<size_t>(c);
        for (size_t i = k; i < schedule.size(); i += kOltpClients) {
          const int64_t due = window_start + static_cast<int64_t>(i) * interval_ns;
          int64_t now = NowNs();
          if (now < due) {
            std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
            now = NowNs();
          }
          late[k].push_back(now - due);
          if (RunChTxn(oltp[k].get(), schedule[i]).ok()) {
            lat[k].push_back(NowNs() - due);
            committed[k].push_back(i);
          } else {
            ++failed[k];
          }
        }
        oltp_running.fetch_sub(1);
      });
    }
    threads.emplace_back([&] {
      for (size_t q = 0; oltp_running.load() > 0; q = (q + 1) % nq) {
        StatusOr<int64_t> r = RunQuery(olap.get(), q, nullptr);
        if (r.ok()) {
          olap_lat.push_back(*r);
        } else {
          ++failed[kOltpClients];
        }
      }
      olap_end = NowNs();
    });
    for (auto& t : threads) t.join();
    const double window_s = static_cast<double>(olap_end - window_start) / 1e9;
    const int64_t cpu_ns = ProcessCpuNs() - cpu_start;
    out->stats.End(cluster.get());

    std::vector<int64_t> round_ns;
    for (int c = 0; c < kOltpClients; ++c) {
      const size_t k = static_cast<size_t>(c);
      round_ns.insert(round_ns.end(), lat[k].begin(), lat[k].end());
      out->late_ns.insert(out->late_ns.end(), late[k].begin(), late[k].end());
      out->failed += failed[k];
      for (size_t i : committed[k]) done.Add(schedule[i]);
    }
    out->oltp_ns.insert(out->oltp_ns.end(), round_ns.begin(), round_ns.end());
    out->attempted += schedule.size() + olap_lat.size() + failed[kOltpClients];
    out->olap_ns.insert(out->olap_ns.end(), olap_lat.begin(), olap_lat.end());
    out->failed += failed[kOltpClients];
    GPHTAP_RETURN_IF_ERROR(CheckHtap(cluster.get(), z, done));

    for (auto& c : oltp) c->Disconnect();
    olap->Disconnect();
    if (cfg.trace) {
      for (auto& c : oltp) out->traced_clients.push_back(std::move(c));
      out->traced_clients.push_back(std::move(olap));
    }
    out->EndRound(window_s, olap_lat.size(), round_ns, cpu_ns,
                  round_ns.size() + olap_lat.size());
  }
  return Status::OK();
}

}  // namespace htapbench
