// Append-optimized column-oriented storage: each column lives in its own
// stream of compressed blocks ("each column is allotted a separate file"),
// so projected scans read only the touched columns (Section 3.4). Rows live
// in ColumnGroups (storage/column_group.h), the format the delta store uses
// too; a delete writes the row's xmax slot in its group.
#ifndef GPHTAP_STORAGE_COLUMN_STORE_H_
#define GPHTAP_STORAGE_COLUMN_STORE_H_

#include <atomic>
#include <functional>
#include <shared_mutex>
#include <vector>

#include "storage/ao_group.h"
#include "storage/column_group.h"
#include "storage/table.h"
#include "vec/column_batch.h"

namespace gphtap {

/// Receives one decoded batch per row group; return false to stop the scan.
using BatchScanCallback = std::function<bool(ColumnBatch&&)>;

class AoColumnTable : public Table {
 public:
  static constexpr size_t kRowGroupSize = ColumnGroup::kRows;

  explicit AoColumnTable(TableDef def);

  StatusOr<TupleId> Insert(LocalXid xid, const Row& row) override;
  /// Row scans explode the decoded batches of ScanBatches into rows, tid =
  /// group * kRowGroupSize + selected slot.
  Status Scan(const VisibilityContext& ctx, const ScanCallback& fn) override;
  Status ScanColumns(const VisibilityContext& ctx, const std::vector<int>& cols,
                     const ScanCallback& fn) override;
  Status Truncate() override;
  uint64_t StoredVersionCount() const override;
  uint64_t BytesScanned() const override;

  /// Vectorized scan: one ColumnBatch per row group (sealed groups and the
  /// open tail alike) whose selection vector holds the visible rows. Groups
  /// with no visible row are skipped.
  Status ScanBatches(const VisibilityContext& ctx, const std::vector<int>& cols,
                     const BatchScanCallback& fn);

  /// Number of row groups, sealed or open (the morsel count for parallel
  /// scans). Groups added after a scan reads this hold rows its snapshot
  /// cannot see.
  size_t NumGroups() const;

  /// Decodes group `gi` into `batch` (typed columns + visibility selection),
  /// the per-morsel unit of work. Payload and delete marks are read under one
  /// latch hold. Returns false — with `batch` untouched — when the group is
  /// out of range, reclaimed or has no visible rows. Thread-safe: any number
  /// of groups may decode concurrently.
  StatusOr<bool> DecodeGroup(size_t gi, const VisibilityContext& ctx,
                             const std::vector<int>& cols, ColumnBatch* batch);

  /// Compressed footprint of one column's sealed blocks, in bytes.
  uint64_t ColumnCompressedBytes(int col) const;

  /// Delete: writes the row's xmax slot in its group (see
  /// AoRowTable::MarkDeleted for the AO delete model).
  Status MarkDeleted(TupleId tid, LocalXid xid);

  /// Per-group occupancy under the caller's dead-row predicate (bloat
  /// reporting and the compaction trigger). The open tail reports unsealed.
  std::vector<AoGroupInfo> GroupInfos(const AoRowDeadFn& dead) const;

  /// Frees every sealed group whose rows are all dead per `dead` ("dead to
  /// every snapshot"): drops the compressed blocks and MVCC columns, keeps
  /// the group slot so tids stay stable. One kFreeGroup record per freed
  /// group. Callers hold ShareUpdateExclusiveLock.
  AoReclaimResult ReclaimDeadGroups(const AoRowDeadFn& dead);

  /// Replay-side free (crash recovery / mirrors): no change record emitted.
  Status ApplyFreeGroup(size_t group_index);

 private:
  mutable std::shared_mutex latch_;
  std::vector<ColumnGroup> groups_;  // all sealed except possibly the last
  // Atomic: concurrent scans account under the shared latch.
  mutable std::atomic<uint64_t> bytes_scanned_{0};
};

}  // namespace gphtap

#endif  // GPHTAP_STORAGE_COLUMN_STORE_H_
