// Randomized differential test (seeds 42 / 1337 / 7): a heap table under
// concurrent inserts, deletes, and seal passes, compared at quiesce points —
// the vectorized delta-merged scan must return exactly the rows the row
// engine returns. READ COMMITTED takes a fresh snapshot per statement, so
// writers are paused at each compare point to make the two statements read
// the same database state.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/session.h"
#include "common/exact_row_text.h"

namespace gphtap {
namespace {

void RunSeed(uint32_t seed) {
  ClusterOptions options;
  options.num_segments = 2;
  options.vectorized_execution_enabled = true;
  options.delta_store_enabled = true;
  options.delta_seal_period_us = 2'000;  // aggressive background sealing
  auto cluster = std::make_unique<Cluster>(options);

  auto setup = cluster->Connect();
  ASSERT_TRUE(setup
                  ->Execute("CREATE TABLE d (k int, grp int, v int) "
                            "DISTRIBUTED BY (k)")
                  .ok());

  constexpr int kWriters = 3;
  constexpr int kRounds = 6;
  constexpr int kOpsPerBurst = 120;

  std::atomic<int64_t> next_key{0};
  // One session per writer; each burst mixes inserts and deletes.
  std::vector<std::shared_ptr<Session>> writers;
  for (int w = 0; w < kWriters; ++w) writers.push_back(cluster->Connect());

  auto reader = cluster->Connect();
  std::mt19937 rng(seed);

  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::thread> burst;
    for (int w = 0; w < kWriters; ++w) {
      uint32_t wseed = rng();
      burst.emplace_back([&, w, wseed] {
        std::mt19937 wrng(wseed);
        for (int op = 0; op < kOpsPerBurst; ++op) {
          if (wrng() % 4 != 0) {
            int64_t k = next_key.fetch_add(1, std::memory_order_relaxed);
            std::string sql = "INSERT INTO d VALUES (" + std::to_string(k) + ", " +
                              std::to_string(wrng() % 7) + ", " +
                              std::to_string(wrng() % 100) + ")";
            EXPECT_TRUE(writers[static_cast<size_t>(w)]->Execute(sql).ok());
          } else {
            int64_t k = static_cast<int64_t>(
                wrng() % std::max<int64_t>(1, next_key.load(std::memory_order_relaxed)));
            std::string sql = "DELETE FROM d WHERE k = " + std::to_string(k);
            EXPECT_TRUE(writers[static_cast<size_t>(w)]->Execute(sql).ok());
          }
        }
      });
    }
    // Interleave explicit seal passes with the writing burst.
    std::thread sealer([&] {
      for (int i = 0; i < 5; ++i) {
        for (int s = 0; s < cluster->num_segments(); ++s) {
          (void)cluster->SealDeltaNow(s);
        }
      }
    });
    for (auto& t : burst) t.join();
    sealer.join();

    // Quiesce point: writers are parked, so both engines read the same state.
    const std::string sql = "SELECT k, grp, v FROM d WHERE v % 3 != 1";
    auto merged = reader->Execute(sql);
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    ASSERT_TRUE(reader->Execute("SET vectorized_execution = off").ok());
    auto row = reader->Execute(sql);
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    ASSERT_TRUE(reader->Execute("SET vectorized_execution = default").ok());
    EXPECT_EQ(SortedRows(*merged), SortedRows(*row))
        << "seed " << seed << " round " << round;
  }

  // The vectorized side must actually have run delta-merged scans.
  MetricsSnapshot snap = cluster->StatsSnapshot();
  EXPECT_GT(snap.counter("delta.merged_scans"), 0u) << "seed " << seed;
  EXPECT_GT(snap.counter("vec.batches"), 0u) << "seed " << seed;
}

TEST(DeltaDifferentialTest, Seed42) { RunSeed(42); }
TEST(DeltaDifferentialTest, Seed1337) { RunSeed(1337); }
TEST(DeltaDifferentialTest, Seed7) { RunSeed(7); }

}  // namespace
}  // namespace gphtap
