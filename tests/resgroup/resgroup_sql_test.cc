// Resource groups end-to-end through SQL: the paper's DDL, role assignment,
// admission control on sessions, and vmem-driven query cancellation.
#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "api/gphtap.h"
#include "integration/actor.h"

namespace gphtap {
namespace {

ClusterOptions RgCluster() {
  ClusterOptions o;
  o.num_segments = 2;
  o.resource_groups_enabled = true;
  o.global_shared_mem_mb = 1;  // tiny global pool: vmem tests bite
  return o;
}

TEST(ResgroupSqlTest, PaperDdlRoundTrip) {
  Cluster cluster(RgCluster());
  auto s = cluster.Connect();
  // Verbatim from Section 6 of the paper.
  ASSERT_TRUE(s->Execute("CREATE RESOURCE GROUP olap_group WITH (CONCURRENCY=10, "
                         "MEMORY_LIMIT=35, MEMORY_SHARED_QUOTA=20, CPU_RATE_LIMIT=20)")
                  .ok());
  ASSERT_TRUE(s->Execute("CREATE RESOURCE GROUP oltp_group WITH (CONCURRENCY=50, "
                         "MEMORY_LIMIT=15, MEMORY_SHARED_QUOTA=20, CPU_RATE_LIMIT=60)")
                  .ok());
  ASSERT_TRUE(s->Execute("CREATE ROLE dev1 RESOURCE GROUP olap_group").ok());
  ASSERT_TRUE(s->Execute("ALTER ROLE dev1 RESOURCE GROUP oltp_group").ok());
  auto g = cluster.resgroups().GroupForRole("dev1");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->name(), "oltp_group");
  EXPECT_EQ(g->config().concurrency, 50);
  EXPECT_DOUBLE_EQ(g->config().cpu_rate_limit, 60);

  // Duplicate and missing groups error.
  EXPECT_FALSE(s->Execute("CREATE RESOURCE GROUP olap_group WITH (CONCURRENCY=1)").ok());
  EXPECT_FALSE(s->Execute("CREATE ROLE dev2 RESOURCE GROUP missing").ok());
  ASSERT_TRUE(s->Execute("DROP RESOURCE GROUP olap_group").ok());
  EXPECT_FALSE(s->Execute("DROP RESOURCE GROUP olap_group").ok());
}

TEST(ResgroupSqlTest, CpusetDdlParsesRanges) {
  Cluster cluster(RgCluster());
  auto s = cluster.Connect();
  ASSERT_TRUE(s->Execute("CREATE RESOURCE GROUP g WITH (CONCURRENCY=5, CPU_SET=4-31)")
                  .ok());
  auto g = cluster.resgroups().Get("g");
  ASSERT_NE(g, nullptr);
  EXPECT_TRUE(g->config().uses_cpuset());
  EXPECT_EQ(g->config().cpuset_begin, 4);
  EXPECT_EQ(g->config().cpuset_end, 31);
}

TEST(ResgroupSqlTest, ConcurrencyLimitQueuesSessions) {
  Cluster cluster(RgCluster());
  auto admin = cluster.Connect();
  ASSERT_TRUE(
      admin->Execute("CREATE RESOURCE GROUP tight WITH (CONCURRENCY=1, MEMORY_LIMIT=8)")
          .ok());
  ASSERT_TRUE(admin->Execute("CREATE ROLE app RESOURCE GROUP tight").ok());
  ASSERT_TRUE(admin->Execute("CREATE TABLE t (k int, v int)").ok());

  Actor a(&cluster, "app"), b(&cluster, "app");
  ASSERT_TRUE(a.RunSync("BEGIN").ok());  // takes the single slot
  auto b_blocked = b.Run("BEGIN");       // queued behind the concurrency limit
  EXPECT_TRUE(StillBlocked(b_blocked, 100));
  ASSERT_TRUE(a.RunSync("COMMIT").ok());  // frees the slot
  EXPECT_TRUE(b_blocked.get().ok());
  ASSERT_TRUE(b.RunSync("COMMIT").ok());
}

TEST(ResgroupSqlTest, VmemLimitCancelsOversizedQuery) {
  Cluster cluster(RgCluster());
  auto admin = cluster.Connect();
  // 1 MB group, no shared headroom to speak of.
  ASSERT_TRUE(admin->Execute("CREATE RESOURCE GROUP small WITH (CONCURRENCY=2, "
                             "MEMORY_LIMIT=1, MEMORY_SHARED_QUOTA=10)")
                  .ok());
  ASSERT_TRUE(admin->Execute("CREATE ROLE analyst RESOURCE GROUP small").ok());
  ASSERT_TRUE(admin->Execute("CREATE TABLE big (k int, v text)").ok());
  {
    // Load ~6 MB of strings.
    auto def = cluster.LookupTable("big");
    std::vector<Row> rows;
    for (int64_t i = 0; i < 20000; ++i) {
      rows.push_back(Row{Datum(i), Datum(std::string(300, 'x'))});
    }
    ASSERT_TRUE(admin->ExecuteInsert(*def, rows).ok());
  }
  auto analyst = cluster.Connect("analyst");
  // The sort must materialize ~6 MB through a ~1 MB budget: cancelled.
  auto r = analyst->Execute("SELECT v FROM big ORDER BY v");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted) << r.status().ToString();
  // The admin (default group, bigger pools) can still run small queries.
  EXPECT_TRUE(admin->Execute("SELECT count(*) FROM big").ok());
  // And the analyst's next (small) query works: the account was released.
  EXPECT_TRUE(analyst->Execute("SELECT count(*) FROM big").ok());
}

TEST(ResgroupSqlTest, ReservationFallsBackToExactBytesAndPoolsDrain) {
  Cluster cluster(RgCluster());
  auto admin = cluster.Connect();
  // Slot 0.8 MB / 2 = 410 KB, group shared 205 KB, global shared 1 MB.
  ASSERT_TRUE(admin->Execute("CREATE RESOURCE GROUP tight WITH (CONCURRENCY=2, "
                             "MEMORY_LIMIT=1, MEMORY_SHARED_QUOTA=20)")
                  .ok());
  ASSERT_TRUE(admin->Execute("CREATE ROLE app RESOURCE GROUP tight").ok());
  ASSERT_TRUE(admin->Execute("CREATE TABLE a (k int, v int) DISTRIBUTED BY (k)").ok());
  ASSERT_TRUE(admin->Execute("CREATE TABLE b (k int, w int) DISTRIBUTED BY (w)").ok());
  ASSERT_TRUE(
      admin->Execute("INSERT INTO a SELECT i, i % 7 FROM generate_series(1, 2000) i").ok());
  ASSERT_TRUE(
      admin->Execute("INSERT INTO b SELECT i, i FROM generate_series(1, 2000) i").ok());
  auto tight = cluster.resgroups().Get("tight");
  ASSERT_NE(tight, nullptr);
  auto app = cluster.Connect("app");
  Counter* cancels = cluster.metrics().counter("resgroup.vmem_cancels");
  const uint64_t cancels_before = cancels->value();
  // Every slice of these statements reserves (hash join build, hash agg
  // groups, sort rows, nest-loop inner), and its slices want a 1 MB chunk
  // each out of ~1.6 MB: after the first, chunks do not fit and the slices
  // fall back to exact bytes.
  const char* statements[] = {
      "SELECT count(*) FROM a JOIN b ON a.k = b.k",
      "SELECT v, count(*) FROM a GROUP BY v ORDER BY v",
      "SELECT k FROM a ORDER BY k DESC LIMIT 3",
      "SELECT count(*) FROM a, b WHERE a.k < 3 AND b.k < 3",
  };
  for (const char* sql : statements) {
    for (const char* vec : {"on", "off"}) {
      ASSERT_TRUE(app->Execute(std::string("SET vectorized_execution = ") + vec).ok());
      auto r = app->Execute(sql);
      ASSERT_TRUE(r.ok()) << sql << " (vectorized " << vec << "): " << r.status().ToString();
      // After the statement both shared pools are whole again: the global
      // pool reads 0 and a fresh account of the group can take slot plus
      // group-shared bytes exactly.
      EXPECT_EQ(cluster.vmem().global_shared_used(), 0) << sql;
      auto probe = tight->NewMemoryAccount();
      const int64_t group_bytes = 1 << 20;
      const int64_t shared = group_bytes * 20 / 100;
      EXPECT_TRUE(probe->Reserve((group_bytes - shared) / 2 + shared).ok()) << sql;
      EXPECT_EQ(probe->global_used(), 0) << sql;
    }
  }
  auto joined = app->Execute("SELECT count(*) FROM a JOIN b ON a.k = b.k");
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  EXPECT_EQ(joined->rows[0][0].int_val(), 2000);
  EXPECT_EQ(cancels->value(), cancels_before) << "a fitting query was cancelled";
}

TEST(ResgroupSqlTest, SetRoleSwitchesGroups) {
  Cluster cluster(RgCluster());
  auto s = cluster.Connect();
  ASSERT_TRUE(s->Execute("CREATE RESOURCE GROUP g1 WITH (CONCURRENCY=5)").ok());
  ASSERT_TRUE(s->Execute("CREATE ROLE r1 RESOURCE GROUP g1").ok());
  ASSERT_TRUE(s->Execute("SET ROLE r1").ok());
  EXPECT_EQ(s->role(), "r1");
  ASSERT_TRUE(s->Execute("CREATE TABLE t (k int)").ok());
  ASSERT_TRUE(s->Execute("INSERT INTO t VALUES (1)").ok());
  EXPECT_EQ(cluster.resgroups().Get("g1")->active(), 0);  // released after txn
}

}  // namespace
}  // namespace gphtap
