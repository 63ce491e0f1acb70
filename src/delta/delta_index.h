// Per-segment delta index: tails the segment's change log on its own thread
// (the same stream the mirror replays) and applies every heap-table data
// record to that table's DeltaStore, so the columnar deltas trail the row
// store by the feed's apply latency — milliseconds, not a batch ETL window.
//
// Freshness contract: kInsert / kSetXmax records are appended at statement
// execution time, before the writing transaction commits. A scan that first
// waits for `applied >= log.size()` (WaitForApplied) therefore sees every
// record of every transaction its snapshot can see — the delta-merged scan is
// snapshot-exact, never "eventually consistent".
#ifndef GPHTAP_DELTA_DELTA_INDEX_H_
#define GPHTAP_DELTA_DELTA_INDEX_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "delta/delta_store.h"

namespace gphtap {

class DeltaIndex {
 public:
  using TableDefLookup = std::function<StatusOr<TableDef>(TableId)>;

  DeltaIndex(int segment_index, TableDefLookup lookup, MetricsRegistry* metrics);
  ~DeltaIndex();

  /// Starts the feed thread tailing `log`. The log outlives this index (it is
  /// owned by the segment and survives Crash/Recover); a Close() by failover
  /// does not stop the feed — it polls for post-promotion appends.
  void Start(ChangeLog* log);
  void Stop();

  /// Number of log records applied so far.
  uint64_t applied() const { return applied_.load(std::memory_order_acquire); }

  /// Blocks until `applied() >= target` (TimedOut after `timeout_us`).
  Status WaitForApplied(uint64_t target, int64_t timeout_us);

  /// The table's delta store, or null when the table has none here (not a
  /// plain heap table, or no record touched it yet — i.e. it is empty).
  DeltaStore* store(TableId id) const;

  struct TableStatus {
    TableId id = 0;
    std::string name;
    DeltaStoreStats stats;
  };
  std::vector<TableStatus> TableStatuses() const;

  /// One seal-daemon pass over every store: seal cold runs, then reclaim
  /// all-dead groups, logging kFreeGroup records to `log`. A seal error ends
  /// the pass.
  StatusOr<DeltaSealResult> SealAndReclaim(const CommitLog* clog, ChangeLog* log,
                                           const AoRowDeadFn& dead);

 private:
  void FeedLoop();
  void ApplyRecord(const ChangeRecord& rec);
  DeltaStore* StoreForRecord(TableId table);

  const int segment_index_;
  const TableDefLookup lookup_;
  MetricsRegistry* const metrics_;
  Counter* applied_records_ = nullptr;
  Counter* rows_ = nullptr;
  Counter* deletes_ = nullptr;

  ChangeLog* log_ = nullptr;
  std::thread feed_;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> applied_{0};

  std::mutex wait_mu_;
  std::condition_variable wait_cv_;
  std::atomic<int> waiters_{0};

  mutable std::shared_mutex stores_mu_;
  // nullptr marks "seen and not tracked" (AO / partitioned / virtual tables)
  // so the catalog lookup happens once per table.
  std::map<TableId, std::unique_ptr<DeltaStore>> stores_;
};

}  // namespace gphtap

#endif  // GPHTAP_DELTA_DELTA_INDEX_H_
