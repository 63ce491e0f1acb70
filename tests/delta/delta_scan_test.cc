// End-to-end delta-merged scans: analytics over heap rows committed in the
// same run are served vectorized from the columnar delta store, snapshot-exact
// (freshness wait), with EXPLAIN/EXPLAIN ANALYZE labeling the serving store,
// gp_delta_status exposing feed lag and store shape, manual sealing via
// Cluster::SealDeltaNow, and survival across crash recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/session.h"
#include "common/exact_row_text.h"

namespace gphtap {
namespace {

std::string ResultText(const QueryResult& r) {
  std::string text;
  for (const Row& row : r.rows) text += RowText(row) + "\n";
  return text;
}

class DeltaScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterOptions options;
    options.num_segments = 2;
    options.vectorized_execution_enabled = true;
    options.delta_store_enabled = true;
    options.delta_seal_period_us = 0;  // seal manually for determinism
    cluster_ = std::make_unique<Cluster>(options);
    session_ = cluster_->Connect();
  }

  uint64_t Counter(const std::string& name) {
    return cluster_->StatsSnapshot().counter(name);
  }

  void SealAll() {
    for (int i = 0; i < cluster_->num_segments(); ++i) {
      ASSERT_TRUE(cluster_->SealDeltaNow(i).ok()) << "segment " << i;
    }
  }

  std::unique_ptr<Cluster> cluster_;
  std::shared_ptr<Session> session_;
};

TEST_F(DeltaScanTest, SameRunCommittedRowsReturnVectorized) {
  ASSERT_TRUE(session_
                  ->Execute("CREATE TABLE orders (k int, grp int, v int) "
                            "DISTRIBUTED BY (k)")
                  .ok());
  ASSERT_TRUE(session_
                  ->Execute("INSERT INTO orders SELECT i, i % 7, i % 101 "
                            "FROM generate_series(0, 2999) i")
                  .ok());

  // CH-benCH shape over rows committed milliseconds ago: grouped aggregate
  // over the freshly loaded heap table, served from the delta store.
  auto r = session_->Execute(
      "EXPLAIN ANALYZE SELECT grp, count(*) AS n, sum(v) AS s "
      "FROM orders GROUP BY grp");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::string text = ResultText(*r);
  EXPECT_NE(text.find("delta-merged (vectorized) batches="), std::string::npos)
      << text;
  EXPECT_NE(text.find("stores:"), std::string::npos) << text;
  // Per-store visible rows accumulate across the gang on the scan node.
  EXPECT_NE(text.find("delta-merged=3000"), std::string::npos) << text;
  EXPECT_GT(Counter("delta.merged_scans"), 0u);

  // And the answer is the row engine's answer.
  auto agg = session_->Execute("SELECT count(*) AS n, sum(v) AS s FROM orders");
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg->rows[0][0].int_val(), 3000);
}

TEST_F(DeltaScanTest, ExplainLabelsStores) {
  ASSERT_TRUE(session_->Execute("CREATE TABLE h (a int, b int) DISTRIBUTED BY (a)").ok());
  ASSERT_TRUE(session_
                  ->Execute("CREATE TABLE c (a int, b int) WITH (storage=ao_column) "
                            "DISTRIBUTED BY (a)")
                  .ok());

  auto hp = session_->Execute("EXPLAIN SELECT b FROM h WHERE a > 3");
  ASSERT_TRUE(hp.ok());
  EXPECT_NE(ResultText(*hp).find("store=delta-merged (vectorized)"),
            std::string::npos)
      << ResultText(*hp);

  auto cp = session_->Execute("EXPLAIN SELECT b FROM c WHERE a > 3");
  ASSERT_TRUE(cp.ok());
  EXPECT_NE(ResultText(*cp).find("store=ao-column"), std::string::npos)
      << ResultText(*cp);

  // Session override: the same heap scan drops back to the row engine and the
  // plan says so.
  ASSERT_TRUE(session_->Execute("SET vectorized_execution = off").ok());
  auto rp = session_->Execute("EXPLAIN SELECT b FROM h WHERE a > 3");
  ASSERT_TRUE(rp.ok());
  std::string text = ResultText(*rp);
  EXPECT_NE(text.find("store=heap"), std::string::npos) << text;
  EXPECT_EQ(text.find("delta-merged"), std::string::npos) << text;
  ASSERT_TRUE(session_->Execute("SET vectorized_execution = default").ok());
}

TEST_F(DeltaScanTest, RowEngineOverrideMatchesDeltaMergedResults) {
  ASSERT_TRUE(session_->Execute("CREATE TABLE t (a int, b int) DISTRIBUTED BY (a)").ok());
  ASSERT_TRUE(session_
                  ->Execute("INSERT INTO t SELECT i, i * 3 "
                            "FROM generate_series(1, 2000) i")
                  .ok());
  ASSERT_TRUE(session_->Execute("DELETE FROM t WHERE a % 5 = 0").ok());

  const std::string sql = "SELECT a, b FROM t WHERE b % 2 = 0";
  auto merged = session_->Execute(sql);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();

  ASSERT_TRUE(session_->Execute("SET vectorized_execution = off").ok());
  auto row = session_->Execute(sql);
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  ASSERT_TRUE(session_->Execute("SET vectorized_execution = default").ok());

  EXPECT_EQ(SortedRows(*merged), SortedRows(*row));
  EXPECT_FALSE(merged->rows.empty());
}

TEST_F(DeltaScanTest, SessionOverrideBypassesPlanCache) {
  ASSERT_TRUE(session_->Execute("CREATE TABLE pc (a int) DISTRIBUTED BY (a)").ok());
  ASSERT_TRUE(
      session_->Execute("INSERT INTO pc SELECT i FROM generate_series(1, 50) i").ok());
  const std::string sql = "SELECT count(*) FROM pc";
  ASSERT_TRUE(session_->Execute(sql).ok());  // caches the delta-merged plan

  // With the override active the cached (vectorized) plan must not be served:
  // no new hit, and the row-engine result is still correct.
  ASSERT_TRUE(session_->Execute("SET vectorized_execution = off").ok());
  uint64_t hits_before = Counter("plan_cache.hits");
  auto r = session_->Execute(sql);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Counter("plan_cache.hits"), hits_before);
  EXPECT_EQ(r->rows[0][0].int_val(), 50);
  ASSERT_TRUE(session_->Execute("SET vectorized_execution = default").ok());
}

TEST_F(DeltaScanTest, SealedGroupsKeepServingAndStatusViewReports) {
  ASSERT_TRUE(session_->Execute("CREATE TABLE big (a int, b int) DISTRIBUTED BY (a)").ok());
  // Enough rows per segment to seal multiple 1024-row groups.
  ASSERT_TRUE(session_
                  ->Execute("INSERT INTO big SELECT i, i % 13 "
                            "FROM generate_series(0, 9999) i")
                  .ok());
  auto before = session_->Execute("SELECT sum(b) FROM big");
  ASSERT_TRUE(before.ok());
  SealAll();
  EXPECT_GT(Counter("delta.sealed_groups"), 0u);

  // Sealed groups + open tail still add up to the same answer.
  auto after = session_->Execute("SELECT sum(b) FROM big");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->rows[0][0].int_val(), before->rows[0][0].int_val());

  auto status = session_->Execute(
      "SELECT segment, table_name, lag, sealed_groups, sealed_rows, open_rows "
      "FROM gp_delta_status");
  ASSERT_TRUE(status.ok()) << status.status().ToString();
  ASSERT_FALSE(status->rows.empty());
  int64_t sealed_rows = 0;
  int64_t open_rows = 0;
  for (const Row& row : status->rows) {
    EXPECT_EQ(row[1].string_val(), "big");
    sealed_rows += row[4].int_val();
    open_rows += row[5].int_val();
  }
  EXPECT_GT(sealed_rows, 0);
  EXPECT_EQ(sealed_rows + open_rows, 10000);

  // Delete everything; after the creating/deleting txns are globally old the
  // seal pass reclaims whole dead groups and logs the frees.
  ASSERT_TRUE(session_->Execute("DELETE FROM big").ok());
  auto empty = session_->Execute("SELECT count(*) FROM big");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->rows[0][0].int_val(), 0);
  SealAll();
  auto still_empty = session_->Execute("SELECT count(*) FROM big");
  ASSERT_TRUE(still_empty.ok());
  EXPECT_EQ(still_empty->rows[0][0].int_val(), 0);
}

TEST_F(DeltaScanTest, DeltaScanSurvivesCrashRecovery) {
  ASSERT_TRUE(session_->Execute("CREATE TABLE cr (a int, b int) DISTRIBUTED BY (a)").ok());
  ASSERT_TRUE(session_
                  ->Execute("INSERT INTO cr SELECT i, i FROM generate_series(1, 1000) i")
                  .ok());
  ASSERT_TRUE(session_->Execute("DELETE FROM cr WHERE a <= 100").ok());

  ASSERT_TRUE(cluster_->CrashSegment(0).ok());
  ASSERT_TRUE(cluster_->RecoverSegment(0).ok());

  auto r = session_->Execute("SELECT count(*) AS n, sum(b) AS s FROM cr");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].int_val(), 900);
  EXPECT_EQ(r->rows[0][1].int_val(), (1000 * 1001 / 2) - (100 * 101 / 2));

  // Fresh writes after recovery keep flowing into the delta store.
  ASSERT_TRUE(session_->Execute("INSERT INTO cr VALUES (2000, 7)").ok());
  auto r2 = session_->Execute("SELECT count(*) FROM cr WHERE b = 7");
  ASSERT_TRUE(r2.ok());
  EXPECT_GE(r2->rows[0][0].int_val(), 1);
  EXPECT_GT(Counter("delta.merged_scans"), 0u);
}

TEST_F(DeltaScanTest, UncommittedRowsOfOtherSessionsStayInvisible) {
  ASSERT_TRUE(session_->Execute("CREATE TABLE iso (a int) DISTRIBUTED BY (a)").ok());
  ASSERT_TRUE(session_->Execute("INSERT INTO iso VALUES (1), (2), (3)").ok());

  auto writer = cluster_->Connect();
  ASSERT_TRUE(writer->Execute("BEGIN").ok());
  ASSERT_TRUE(writer->Execute("INSERT INTO iso VALUES (100)").ok());

  // The open transaction's insert is in the delta store (records append at
  // execution time) but must not be visible to another snapshot.
  auto r = session_->Execute("SELECT count(*) FROM iso");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].int_val(), 3);

  ASSERT_TRUE(writer->Execute("COMMIT").ok());
  auto r2 = session_->Execute("SELECT count(*) FROM iso");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->rows[0][0].int_val(), 4);
}

}  // namespace
}  // namespace gphtap
