// The execution runtime (src/common/exec_runtime.h): tasks never queue behind
// busy workers, wait contexts do not leak between tasks, cancellation frees
// parked workers, the cluster joins its workers, and steady OLTP load reuses
// workers instead of starting threads. Every thread count here stays small.
#include "common/exec_runtime.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>

#include "api/gphtap.h"
#include "common/clock.h"
#include "exec/executor.h"
#include "net/motion_exchange.h"
#include "stats/statement_resources.h"
#include "workload/tpcb.h"

namespace gphtap {
namespace {

// Polls `pred` for up to two seconds.
template <typename Pred>
bool Eventually(Pred pred) {
  const int64_t deadline = MonotonicMicros() + 2'000'000;
  while (MonotonicMicros() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

size_t BusyWorkers(const ExecRuntime& rt) { return rt.live_workers() - rt.idle_workers(); }

size_t ProcessThreads() {
  size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST(ExecRuntimeTest, ParkedProducersNeverQueueBehindBusyWorkers) {
  Counter spawns;
  ExecRuntime rt(/*idle_cap=*/2, &spawns);
  {
    // Warm up exactly two idle workers.
    ExecRuntime::TaskGroup warm(&rt);
    std::atomic<int> arrived{0};
    for (int i = 0; i < 2; ++i) {
      warm.Spawn(WaitContext{}, [&] {
        arrived.fetch_add(1);
        while (arrived.load() < 2) std::this_thread::yield();
      });
    }
  }
  ASSERT_TRUE(Eventually([&] { return rt.idle_workers() == 2; }));
  ASSERT_EQ(spawns.value(), 2u);

  // Eight producers into a 4-row exchange: all but a few park on a full
  // queue until this thread drains it, so a queued producer would deadlock.
  constexpr int kProducers = 8;
  constexpr int kRowsEach = 200;
  MotionExchange ex(kProducers, 1, /*buffer_rows=*/4);
  ExecRuntime::TaskGroup producers(&rt);
  for (int p = 0; p < kProducers; ++p) {
    producers.Spawn(WaitContext{}, [&ex, p] {
      for (int i = 0; i < kRowsEach; ++i) {
        if (!ex.Send(0, Row{Datum(int64_t{p}), Datum(int64_t{i})})) break;
      }
      ex.CloseSender();
    });
  }
  int received = 0;
  while (ex.Recv(0).has_value()) ++received;
  producers.Wait();
  EXPECT_EQ(received, kProducers * kRowsEach);
  EXPECT_EQ(spawns.value(), 2u + kProducers - 2u);  // two reused, six started
  // Above the idle cap, finished workers exit instead of parking.
  EXPECT_TRUE(Eventually([&] { return rt.live_workers() == 2 && rt.idle_workers() == 2; }));
}

TEST(ExecRuntimeTest, TaskAfterTracedTaskSeesNoContext) {
  ExecRuntime rt(/*idle_cap=*/1, nullptr);
  Trace trace(1);
  LockOwner owner(/*gxid=*/42);
  StatementResources resources;
  std::thread::id first_thread, second_thread;
  {
    WaitContext traced;
    traced.trace = &trace;
    traced.parent_span = 7;
    traced.owner = &owner;
    traced.resources = &resources;
    traced.node = 3;
    ExecRuntime::TaskGroup g(&rt);
    g.Spawn(traced, [&] {
      first_thread = std::this_thread::get_id();
      const WaitContext* ctx = CurrentWaitContext();
      ASSERT_NE(ctx, nullptr);
      EXPECT_EQ(ctx->trace, &trace);
      EXPECT_EQ(ctx->owner, &owner);
      EXPECT_EQ(ctx->resources, &resources);
      EXPECT_EQ(ctx->node, 3);
    });
  }
  ASSERT_TRUE(Eventually([&] { return rt.idle_workers() == 1; }));
  {
    ExecRuntime::TaskGroup g(&rt);
    g.Spawn(WaitContext{}, [&] {
      second_thread = std::this_thread::get_id();
      const WaitContext* ctx = CurrentWaitContext();
      ASSERT_NE(ctx, nullptr);
      EXPECT_EQ(ctx->trace, nullptr);
      EXPECT_EQ(ctx->parent_span, 0u);
      EXPECT_EQ(ctx->owner, nullptr);
      EXPECT_EQ(ctx->resources, nullptr);
      EXPECT_EQ(ctx->node, -1);
    });
  }
  EXPECT_EQ(first_thread, second_thread);  // the same worker ran both

  // The task ParallelFor runs on the caller gets its own context too, and the
  // caller's is back in place afterwards.
  WaitContext mine;
  mine.node = 9;
  WaitContextGuard guard(mine);
  std::atomic<int> seen_nodes{0};
  rt.ParallelFor(
      3,
      [](size_t i) {
        WaitContext c;
        c.node = static_cast<int>(i);
        return c;
      },
      [&](size_t i) {
        if (CurrentWaitContext()->node == static_cast<int>(i)) seen_nodes.fetch_add(1);
      });
  EXPECT_EQ(seen_nodes.load(), 3);
  EXPECT_EQ(CurrentWaitContext()->node, 9);
}

TEST(ExecRuntimeTest, CancelTxnFreesParkedProducer) {
  ClusterOptions o;
  o.num_segments = 2;
  o.motion_buffer_rows = 8;
  Cluster cluster(o);
  auto session = cluster.Connect();
  ASSERT_TRUE(session->Execute("CREATE TABLE t (k int, v int) DISTRIBUTED BY (k)").ok());
  ASSERT_TRUE(
      session->Execute("INSERT INTO t SELECT i, i FROM generate_series(1, 4000) i").ok());

  QueryPlan plan;
  plan.root = MakeMotion(MotionKind::kGather,
                         MakeSeqScan(cluster.LookupTable("t")->id, 2), 1);
  plan.gang = {0, 1};
  Gxid gxid;
  auto owner = cluster.dtm().BeginTxn(&gxid);
  DistributedSnapshot snap = cluster.dtm().TakeSnapshot();

  // The consumer takes one row and then stalls, so both producers park on
  // full queues.
  std::atomic<bool> release{false};
  std::atomic<bool> consuming{false};
  Status result;
  std::thread query([&] {
    result = ExecutePlan(&cluster, plan, gxid, owner, snap, nullptr, nullptr,
                         [&](Row&&) -> Status {
                           consuming.store(true);
                           while (!release.load()) {
                             std::this_thread::sleep_for(std::chrono::milliseconds(1));
                           }
                           return Status::OK();
                         });
  });
  ExecRuntime& rt = cluster.runtime();
  ASSERT_TRUE(Eventually([&] { return consuming.load() && BusyWorkers(rt) == 2; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(BusyWorkers(rt), 2u);  // parked, not finished

  cluster.CancelTxn(gxid, Status::Aborted("user cancel"));
  // Both workers come back while the consumer is still stalled.
  EXPECT_TRUE(Eventually([&] { return BusyWorkers(rt) == 0; }));
  EXPECT_FALSE(release.load());
  release.store(true);
  query.join();
  EXPECT_TRUE(result.IsAbortLike()) << result.ToString();
  cluster.dtm().MarkAborted(gxid);
}

TEST(ExecRuntimeTest, DestroyingClusterJoinsEveryWorker) {
  const size_t before = ProcessThreads();
  {
    ClusterOptions o;
    o.num_segments = 4;
    Cluster cluster(o);
    auto session = cluster.Connect();
    ASSERT_TRUE(session->Execute("CREATE TABLE t (k int, v int) DISTRIBUTED BY (k)").ok());
    ASSERT_TRUE(
        session->Execute("INSERT INTO t SELECT i, i FROM generate_series(1, 100) i").ok());
    ASSERT_TRUE(session->Execute("UPDATE t SET v = v + 1").ok());
    auto count = session->Execute("SELECT count(*) FROM t");
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(count->rows[0][0].int_val(), 100);
    EXPECT_GT(cluster.runtime().live_workers(), 0u);
  }
  // A thread can stay listed in /proc/self/task for a moment after it was
  // joined (an earlier test's, at `before`, or a worker's here), so the count
  // may take a moment to drop; a worker left running never lets it.
  EXPECT_TRUE(Eventually([&] { return ProcessThreads() <= before; }))
      << ProcessThreads() << " threads, " << before << " before the cluster";
}

TEST(ExecRuntimeTest, WarmTpcbTransactionsStartNoThreads) {
  ClusterOptions o;
  o.num_segments = 4;
  Cluster cluster(o);
  TpcbConfig config;
  config.scale = 2;
  config.accounts_per_branch = 500;
  ASSERT_TRUE(LoadTpcb(&cluster, config).ok());
  auto session = cluster.Connect();
  Rng rng(7);
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(RunTpcbTransaction(session.get(), rng, config).ok());

  auto spawns = [&] { return cluster.metrics().TakeSnapshot().counter("runtime.thread_spawns"); };
  const uint64_t warm = spawns();
  EXPECT_GT(warm, 0u);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(RunTpcbTransaction(session.get(), rng, config).ok());
  }
  EXPECT_EQ(spawns(), warm);
  ASSERT_TRUE(CheckTpcbInvariant(&cluster).ok());

  // The counter is exposed through gp_metrics (this query may lease more
  // workers than a TPC-B transaction does).
  auto r = session->Execute("SELECT value FROM gp_metrics WHERE name = 'runtime.thread_spawns'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_GE(static_cast<uint64_t>(r->rows[0][0].int_val()), warm);
}

}  // namespace
}  // namespace gphtap
