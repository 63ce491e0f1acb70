// Randomized differential testing: the same generated queries run on two
// clusters that differ only in vectorized_execution_enabled must return
// identical row sets. Predicates are built from a small grammar over the
// fact table's columns, covering arithmetic, comparisons, NULL handling,
// and nested AND/OR/NOT — the surface where the two engines could diverge.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/session.h"
#include "common/exact_row_text.h"
#include "common/rng.h"

namespace gphtap {
namespace {

// Random arithmetic term over the int columns (k, grp, v). Division and modulus
// use non-zero constants so generated predicates stay error-free — error parity
// is covered deterministically in column_batch_test.
std::string Term(Rng& rng) {
  static const char* cols[] = {"k", "grp", "v"};
  switch (rng.Uniform(6)) {
    case 0:
    case 1:
      return cols[rng.Uniform(3)];
    case 2:
      return std::to_string(rng.UniformRange(-50, 150));
    case 3:
      return std::string(cols[rng.Uniform(3)]) + " + " +
             std::to_string(rng.UniformRange(0, 40));
    case 4:
      return std::string(cols[rng.Uniform(3)]) + " * " +
             std::to_string(rng.UniformRange(1, 5));
    default:
      return std::string(cols[rng.Uniform(3)]) + " % " +
             std::to_string(rng.UniformRange(2, 9));
  }
}

std::string Comparison(Rng& rng) {
  static const char* ops[] = {"=", "<>", "<", "<=", ">", ">="};
  return Term(rng) + " " + ops[rng.Uniform(6)] + " " + Term(rng);
}

std::string Predicate(Rng& rng, int depth) {
  if (depth <= 0 || rng.Chance(0.4)) return Comparison(rng);
  switch (rng.Uniform(3)) {
    case 0:
      return "(" + Predicate(rng, depth - 1) + " AND " + Predicate(rng, depth - 1) +
             ")";
    case 1:
      return "(" + Predicate(rng, depth - 1) + " OR " + Predicate(rng, depth - 1) +
             ")";
    default:
      return "NOT (" + Predicate(rng, depth - 1) + ")";
  }
}

TEST(VecDifferentialTest, RandomPredicatesAgreeAcrossEngines) {
  auto make = [](bool vectorized) {
    ClusterOptions options;
    options.num_segments = 3;
    options.vectorized_execution_enabled = vectorized;
    return std::make_unique<Cluster>(options);
  };
  auto vec_cluster = make(true);
  auto row_cluster = make(false);
  for (Cluster* c : {vec_cluster.get(), row_cluster.get()}) {
    auto s = c->Connect();
    ASSERT_TRUE(s->Execute("CREATE TABLE fact (k int, grp int, v int) "
                           "WITH (storage=ao_column) DISTRIBUTED BY (k)")
                    .ok());
    ASSERT_TRUE(s->Execute("INSERT INTO fact SELECT i, i % 13, (i * 7) % 101 "
                           "FROM generate_series(0, 2999) i")
                    .ok());
    ASSERT_TRUE(s->Execute("DELETE FROM fact WHERE v = 42").ok());
  }
  auto vec_session = vec_cluster->Connect();
  auto row_session = row_cluster->Connect();

  Rng rng(20260805);
  int compared = 0;
  for (int i = 0; i < 60; ++i) {
    std::string where = Predicate(rng, 3);
    std::string sql;
    switch (i % 3) {
      case 0:
        sql = "SELECT k, grp, v FROM fact WHERE " + where;
        break;
      case 1:
        sql = "SELECT count(*) AS n, sum(v) AS s FROM fact WHERE " + where;
        break;
      default:
        sql = "SELECT grp, count(*) AS n, min(v) AS lo, max(v) AS hi FROM fact "
              "WHERE " +
              where + " GROUP BY grp";
        break;
    }
    auto vec = vec_session->Execute(sql);
    auto row = row_session->Execute(sql);
    ASSERT_EQ(vec.ok(), row.ok()) << sql << "\nvec: " << vec.status().ToString()
                                  << "\nrow: " << row.status().ToString();
    if (!vec.ok()) continue;  // both rejected (e.g. parse limits) — still parity
    EXPECT_EQ(SortedRows(*vec), SortedRows(*row)) << sql;
    ++compared;
  }
  EXPECT_GT(compared, 40) << "too few queries executed to be meaningful";
  EXPECT_GT(vec_cluster->StatsSnapshot().counter("vec.batches"), 0u);
}

// NULLs in every column type (int, double, string): the typed vectors carry
// a null mask per payload kind, and each kind has its own kernel path.
TEST(VecDifferentialTest, NullsInEveryColumnTypeAgreeAcrossEngines) {
  auto make = [](bool vectorized) {
    ClusterOptions options;
    options.num_segments = 3;
    options.vectorized_execution_enabled = vectorized;
    return std::make_unique<Cluster>(options);
  };
  auto vec_cluster = make(true);
  auto row_cluster = make(false);
  for (Cluster* c : {vec_cluster.get(), row_cluster.get()}) {
    auto s = c->Connect();
    ASSERT_TRUE(s->Execute("CREATE TABLE mixed (k int, i int, d double, t text) "
                           "WITH (storage=ao_column) DISTRIBUTED BY (k)")
                    .ok());
    // Every third int NULL, every fourth double NULL, every fifth string NULL.
    for (int base = 0; base < 2000; base += 500) {
      std::string values;
      for (int k = base; k < base + 500; ++k) {
        if (!values.empty()) values += ", ";
        std::string i = k % 3 == 0 ? "NULL" : std::to_string(k % 41);
        std::string d = k % 4 == 0 ? "NULL" : std::to_string(k % 17) + ".5";
        std::string t = k % 5 == 0 ? "NULL" : "'s" + std::to_string(k % 11) + "'";
        values += "(" + std::to_string(k) + ", " + i + ", " + d + ", " + t + ")";
      }
      ASSERT_TRUE(s->Execute("INSERT INTO mixed VALUES " + values).ok());
    }
  }
  auto vec_session = vec_cluster->Connect();
  auto row_session = row_cluster->Connect();
  const char* queries[] = {
      "SELECT k, i, d, t FROM mixed WHERE i IS NULL",
      "SELECT k, i, d, t FROM mixed WHERE d IS NOT NULL AND i > 20",
      "SELECT k, t FROM mixed WHERE t IS NULL OR i IS NULL",
      "SELECT count(*), count(i), count(d), count(t) FROM mixed",
      "SELECT sum(i), sum(d), min(i), max(d) FROM mixed",
      "SELECT i, count(*), sum(d) FROM mixed GROUP BY i",
      "SELECT k, i + 1, d * 2 FROM mixed WHERE k % 7 = 0",
      "SELECT count(*) FROM mixed WHERE i = i",  // NULL = NULL is not true
  };
  for (const char* sql : queries) {
    auto vec = vec_session->Execute(sql);
    auto row = row_session->Execute(sql);
    ASSERT_EQ(vec.ok(), row.ok()) << sql;
    if (!vec.ok()) continue;
    EXPECT_EQ(SortedRows(*vec), SortedRows(*row)) << sql;
  }
  EXPECT_GT(vec_cluster->StatsSnapshot().counter("vec.batches"), 0u);
}

// A vectorized AO-column scan feeding a join against a heap table: the heap
// side cannot vectorize, so the join bridges engines mid-stream. The join
// follows its AO-column probe side onto the batch engine; the counted
// fallback is the heap build side, whose rows are packed into batches.
TEST(VecDifferentialTest, MidStreamFallbackAtJoinBoundaryAgrees) {
  auto make = [](bool vectorized) {
    ClusterOptions options;
    options.num_segments = 3;
    options.vectorized_execution_enabled = vectorized;
    return std::make_unique<Cluster>(options);
  };
  auto vec_cluster = make(true);
  auto row_cluster = make(false);
  for (Cluster* c : {vec_cluster.get(), row_cluster.get()}) {
    auto s = c->Connect();
    ASSERT_TRUE(s->Execute("CREATE TABLE fact (k int, dim_id int, v int) "
                           "WITH (storage=ao_column) DISTRIBUTED BY (k)")
                    .ok());
    ASSERT_TRUE(s->Execute("CREATE TABLE dim (id int, label text) "
                           "DISTRIBUTED BY (id)")  // heap: not vectorizable
                    .ok());
    ASSERT_TRUE(s->Execute("INSERT INTO fact SELECT i, i % 20, i * 3 "
                           "FROM generate_series(0, 2999) i")
                    .ok());
    ASSERT_TRUE(s->Execute("INSERT INTO dim SELECT i, 'd' FROM "
                           "generate_series(0, 19) i")
                    .ok());
  }
  auto vec_session = vec_cluster->Connect();
  auto row_session = row_cluster->Connect();
  const char* queries[] = {
      "SELECT fact.k, dim.label FROM fact JOIN dim ON fact.dim_id = dim.id "
      "WHERE fact.v % 5 = 0",
      "SELECT dim.id, count(*), sum(fact.v) FROM fact JOIN dim "
      "ON fact.dim_id = dim.id GROUP BY dim.id",
  };
  for (const char* sql : queries) {
    auto vec = vec_session->Execute(sql);
    auto row = row_session->Execute(sql);
    ASSERT_TRUE(vec.ok()) << sql << ": " << vec.status().ToString();
    ASSERT_TRUE(row.ok()) << sql << ": " << row.status().ToString();
    EXPECT_EQ(SortedRows(*vec), SortedRows(*row)) << sql;
  }
  // The vec cluster both ran batches and bridged at least one boundary.
  EXPECT_GT(vec_cluster->StatsSnapshot().counter("vec.batches"), 0u);
  EXPECT_GT(vec_cluster->StatsSnapshot().counter("vec.fallbacks"), 0u);
}

// The same statements on a batch-engine cluster and a row-engine cluster.
class EnginePair {
 public:
  EnginePair() {
    for (bool vectorized : {true, false}) {
      ClusterOptions options;
      options.num_segments = 3;
      options.vectorized_execution_enabled = vectorized;
      clusters_.push_back(std::make_unique<Cluster>(options));
      sessions_.push_back(clusters_.back()->Connect());
    }
  }

  Cluster& vec_cluster() { return *clusters_[0]; }

  // Runs `sql` on both clusters; false (with a test failure) if either fails.
  bool Run(const std::string& sql, QueryResult* vec = nullptr,
           QueryResult* row = nullptr) {
    QueryResult* out[] = {vec, row};
    for (size_t i = 0; i < 2; ++i) {
      auto r = sessions_[i]->Execute(sql);
      if (!r.ok()) {
        ADD_FAILURE() << (i == 0 ? "vec: " : "row: ") << sql << ": "
                      << r.status().ToString();
        return false;
      }
      if (out[i] != nullptr) *out[i] = std::move(*r);
    }
    return true;
  }

  // Runs `sql` on both clusters and expects the same rows, compared exactly
  // and in any order. Returns the batch engine's result.
  QueryResult Agree(const std::string& sql, const std::string& context) {
    QueryResult vec, row;
    if (!Run(sql, &vec, &row)) return vec;
    EXPECT_EQ(SortedRows(vec), SortedRows(row)) << context << ": " << sql;
    return vec;
  }

 private:
  std::vector<std::unique_ptr<Cluster>> clusters_;
  std::vector<std::unique_ptr<Session>> sessions_;
};

// Inserts `rows` (each a parenthesized VALUES tuple) in chunks.
void InsertValues(EnginePair* engines, const std::string& table,
                  const std::vector<std::string>& rows) {
  for (size_t begin = 0; begin < rows.size(); begin += 1000) {
    std::string sql = "INSERT INTO " + table + " VALUES ";
    for (size_t i = begin; i < std::min(rows.size(), begin + 1000); ++i) {
      if (i > begin) sql += ", ";
      sql += rows[i];
    }
    ASSERT_TRUE(engines->Run(sql));
  }
}

// Hash aggregation and DISTINCT on the shared hash table: more than 20k groups
// (many output batches), multi-column keys with NULLs, and double keys that
// agree in their first six significant digits.
TEST(VecDifferentialTest, HashAggregationAgreesAcrossEngines) {
  for (uint64_t seed : {42u, 1337u, 7u}) {
    const std::string ctx = "seed " + std::to_string(seed);
    EnginePair engines;
    ASSERT_TRUE(engines.Run("CREATE TABLE g (k int, grp int, a int, b text, d double, "
                            "v int) WITH (storage=ao_column) DISTRIBUTED BY (k)"));
    Rng rng(seed);
    constexpr int kRows = 30000;
    constexpr int kGroups = 22003;
    std::set<std::string> distinct_d;
    std::vector<std::string> rows;
    for (int k = 0; k < kRows; ++k) {
      const int grp = static_cast<int>((k * 7919 + seed) % kGroups);
      const std::string a = rng.Chance(0.2) ? "NULL" : std::to_string(rng.Uniform(4));
      const std::string b =
          rng.Chance(0.2) ? "NULL" : "'s" + std::to_string(rng.Uniform(3)) + "'";
      std::string d = "NULL";
      if (!rng.Chance(0.1)) {
        d = rng.Chance(0.5) ? "1000000.00" + std::to_string(1000 + rng.Uniform(40))
                            : "0.12345" + std::to_string(60 + rng.Uniform(9));
      }
      distinct_d.insert(d);
      rows.push_back("(" + std::to_string(k) + ", " + std::to_string(grp) + ", " + a +
                     ", " + b + ", " + d + ", " + std::to_string(rng.Uniform(1000)) + ")");
    }
    InsertValues(&engines, "g", rows);

    QueryResult big = engines.Agree(
        "SELECT grp, count(*), sum(v), min(k), max(k) FROM g GROUP BY grp", ctx);
    EXPECT_EQ(big.rows.size(), static_cast<size_t>(kGroups)) << ctx;
    engines.Agree("SELECT a, b, count(*), sum(v), min(d), max(d) FROM g GROUP BY a, b",
                  ctx);
    engines.Agree("SELECT b, d, a, count(*) FROM g GROUP BY b, d, a", ctx);
    QueryResult by_d = engines.Agree("SELECT d, count(*), sum(v) FROM g GROUP BY d", ctx);
    EXPECT_EQ(by_d.rows.size(), distinct_d.size()) << ctx;

    // Two-phase DISTINCT.
    QueryResult all_ab = engines.Agree("SELECT DISTINCT a, b FROM g", ctx);
    QueryResult all_d = engines.Agree("SELECT DISTINCT d FROM g", ctx);
    EXPECT_EQ(all_d.rows.size(), distinct_d.size()) << ctx;
    engines.Agree("SELECT DISTINCT grp, a FROM g WHERE v < 500", ctx);
    engines.Agree("SELECT DISTINCT grp FROM g ORDER BY grp LIMIT 50", ctx);
    // Without ORDER BY, LIMIT may pick any distinct rows: each engine must
    // return that many, all different, all from the full distinct set.
    const std::vector<std::string> full = SortedRows(all_ab);
    QueryResult vec, row;
    ASSERT_TRUE(engines.Run("SELECT DISTINCT a, b FROM g LIMIT 7", &vec, &row));
    for (const QueryResult* r : {&vec, &row}) {
      const std::vector<std::string> got = SortedRows(*r);
      EXPECT_EQ(got.size(), std::min<size_t>(7, full.size())) << ctx;
      EXPECT_EQ(std::adjacent_find(got.begin(), got.end()), got.end()) << ctx;
      EXPECT_TRUE(std::includes(full.begin(), full.end(), got.begin(), got.end())) << ctx;
    }
  }
}

// Join keys compare under Datum equality: an int key matches an integral
// double (1 = 1.0) whichever side builds, and whether the build side is an
// AO-column scan or a packed heap scan.
TEST(VecDifferentialTest, IntAndDoubleJoinKeysAgreeAcrossEngines) {
  for (uint64_t seed : {42u, 1337u, 7u}) {
    const std::string ctx = "seed " + std::to_string(seed);
    EnginePair engines;
    ASSERT_TRUE(engines.Run(
        "CREATE TABLE ints (k int, x int) WITH (storage=ao_column) DISTRIBUTED BY (k)"));
    ASSERT_TRUE(engines.Run("CREATE TABLE dbls (w int, y double) "
                            "WITH (storage=ao_column) DISTRIBUTED BY (w)"));
    ASSERT_TRUE(engines.Run(
        "CREATE TABLE dbls_heap (w int, y double) WITH (storage=heap) DISTRIBUTED BY (w)"));
    Rng rng(seed);
    std::vector<int> xs;  // -1 = NULL
    std::vector<std::string> int_rows;
    for (int k = 0; k < 3000; ++k) {
      const int x = rng.Chance(0.05) ? -1 : static_cast<int>(rng.Uniform(60));
      xs.push_back(x);
      int_rows.push_back("(" + std::to_string(k) + ", " +
                         (x < 0 ? std::string("NULL") : std::to_string(x)) + ")");
    }
    std::vector<int> integral_ys;  // y values equal to an int
    std::vector<std::string> dbl_rows;
    for (int w = 0; w < 200; ++w) {
      std::string y = "NULL";
      if (!rng.Chance(0.05)) {
        const int whole = static_cast<int>(rng.Uniform(80));
        const bool integral = rng.Chance(0.5);
        y = std::to_string(whole) + (integral ? ".0" : ".5");
        if (integral) integral_ys.push_back(whole);
      }
      dbl_rows.push_back("(" + std::to_string(w) + ", " + y + ")");
    }
    InsertValues(&engines, "ints", int_rows);
    InsertValues(&engines, "dbls", dbl_rows);
    InsertValues(&engines, "dbls_heap", dbl_rows);
    size_t expected = 0;
    for (int x : xs) {
      expected += static_cast<size_t>(std::count(integral_ys.begin(), integral_ys.end(), x));
    }
    ASSERT_GT(expected, 0u) << ctx;

    for (const char* sql : {
             "SELECT i.k, d.w FROM ints i JOIN dbls d ON i.x = d.y",
             "SELECT d.w, i.k FROM dbls d JOIN ints i ON d.y = i.x",
             "SELECT i.k, d.w FROM ints i JOIN dbls_heap d ON i.x = d.y",
         }) {
      EXPECT_EQ(engines.Agree(sql, ctx).rows.size(), expected) << ctx << ": " << sql;
    }
    engines.Agree("SELECT i.x, count(*), min(d.w) FROM ints i JOIN dbls d "
                  "ON i.x = d.y GROUP BY i.x",
                  ctx);
    EXPECT_GT(engines.vec_cluster().StatsSnapshot().counter("vec.batches"), 0u) << ctx;
  }
}

// Morsel-parallel scans must be indistinguishable from serial ones: same
// rows, and (per segment slice) the same order after the reorder buffer.
TEST(VecDifferentialTest, MorselParallelScanMatchesSerial) {
  for (uint64_t seed : {42u, 1337u, 7u}) {
    auto make = [&](int workers) {
      ClusterOptions options;
      options.num_segments = 2;
      options.vectorized_execution_enabled = true;
      options.vec_morsel_workers = workers;
      return std::make_unique<Cluster>(options);
    };
    auto parallel_cluster = make(4);
    auto serial_cluster = make(1);
    Rng rng(seed);
    // Same generated data on both clusters: enough rows per segment to seal
    // multiple 1024-row groups, with NULLs and deletes in the mix.
    std::vector<std::string> inserts;
    for (int base = 0; base < 10000; base += 1000) {
      std::string values;
      for (int k = base; k < base + 1000; ++k) {
        if (!values.empty()) values += ", ";
        int64_t v = rng.UniformRange(-100, 1000);
        std::string sv = rng.Chance(0.05) ? "NULL" : std::to_string(v);
        values += "(" + std::to_string(k) + ", " + std::to_string(k % 31) +
                  ", " + sv + ")";
      }
      inserts.push_back("INSERT INTO fact VALUES " + values);
    }
    for (Cluster* c : {parallel_cluster.get(), serial_cluster.get()}) {
      auto s = c->Connect();
      ASSERT_TRUE(s->Execute("CREATE TABLE fact (k int, grp int, v int) "
                             "WITH (storage=ao_column) DISTRIBUTED BY (k)")
                      .ok());
      for (const std::string& ins : inserts) ASSERT_TRUE(s->Execute(ins).ok());
      ASSERT_TRUE(s->Execute("DELETE FROM fact WHERE grp = 13").ok());
    }
    auto par = parallel_cluster->Connect();
    auto ser = serial_cluster->Connect();
    const char* queries[] = {
        "SELECT k, grp, v FROM fact WHERE v > 500",
        "SELECT count(*), sum(v), min(v), max(v) FROM fact",
        "SELECT grp, count(*), sum(v) FROM fact GROUP BY grp",
        "SELECT k, v FROM fact WHERE v IS NULL",
        "SELECT k FROM fact WHERE k % 2 = 0 ORDER BY k LIMIT 100",
    };
    for (const char* sql : queries) {
      auto p = par->Execute(sql);
      auto s = ser->Execute(sql);
      ASSERT_TRUE(p.ok()) << "seed " << seed << ": " << sql << ": "
                          << p.status().ToString();
      ASSERT_TRUE(s.ok()) << "seed " << seed << ": " << sql;
      EXPECT_EQ(SortedRows(*p), SortedRows(*s)) << "seed " << seed << ": " << sql;
    }
    // ORDER BY results must match exactly (not just as sets).
    auto p_ord = par->Execute("SELECT k, v FROM fact ORDER BY k");
    auto s_ord = ser->Execute("SELECT k, v FROM fact ORDER BY k");
    ASSERT_TRUE(p_ord.ok() && s_ord.ok());
    ASSERT_EQ(p_ord->rows.size(), s_ord->rows.size());
    for (size_t i = 0; i < p_ord->rows.size(); ++i) {
      ASSERT_EQ(RowText(p_ord->rows[i]), RowText(s_ord->rows[i])) << "row " << i;
    }
    EXPECT_GT(parallel_cluster->StatsSnapshot().counter("vec.morsels"), 0u)
        << "seed " << seed << ": morsel path never engaged";
    EXPECT_EQ(serial_cluster->StatsSnapshot().counter("vec.morsels"), 0u);
  }
}

}  // namespace
}  // namespace gphtap
