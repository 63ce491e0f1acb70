#include "storage/column_store.h"

#include <numeric>

namespace gphtap {

AoColumnTable::AoColumnTable(TableDef def) : Table(std::move(def)) {}

StatusOr<TupleId> AoColumnTable::Insert(LocalXid xid, const Row& row) {
  GPHTAP_RETURN_IF_ERROR(schema().CheckRow(row));
  std::unique_lock<std::shared_mutex> g(latch_);
  ColumnGroup& tail = ColumnGroup::Tail(&groups_, schema().num_columns());
  TupleId tid = (groups_.size() - 1) * kRowGroupSize + tail.rows();
  tail.Append(row, xid);
  if (change_log() != nullptr) {
    change_log()->Append(
        ChangeRecord{ChangeKind::kInsert, id(), tid, kInvalidTupleId, xid, row});
  }
  if (tail.full()) GPHTAP_RETURN_IF_ERROR(tail.Seal(schema(), def().compression));
  return tid;
}

Status AoColumnTable::Scan(const VisibilityContext& ctx, const ScanCallback& fn) {
  std::vector<int> all(schema().num_columns());
  std::iota(all.begin(), all.end(), 0);
  return ScanColumns(ctx, all, fn);
}

Status AoColumnTable::ScanColumns(const VisibilityContext& ctx,
                                  const std::vector<int>& cols, const ScanCallback& fn) {
  const size_t num_groups = NumGroups();
  for (size_t gi = 0; gi < num_groups; ++gi) {
    ColumnBatch batch;
    GPHTAP_ASSIGN_OR_RETURN(bool any, DecodeGroup(gi, ctx, cols, &batch));
    if (!any) continue;
    for (int32_t r : batch.sel) {
      if (!fn(gi * kRowGroupSize + static_cast<TupleId>(r), batch.MaterializeRow(r))) {
        return Status::OK();
      }
    }
  }
  return Status::OK();
}

Status AoColumnTable::ScanBatches(const VisibilityContext& ctx,
                                  const std::vector<int>& cols,
                                  const BatchScanCallback& fn) {
  const size_t num_groups = NumGroups();
  for (size_t gi = 0; gi < num_groups; ++gi) {
    ColumnBatch batch;
    GPHTAP_ASSIGN_OR_RETURN(bool any, DecodeGroup(gi, ctx, cols, &batch));
    if (any && !fn(std::move(batch))) break;
  }
  return Status::OK();
}

size_t AoColumnTable::NumGroups() const {
  std::shared_lock<std::shared_mutex> g(latch_);
  return groups_.size();
}

StatusOr<bool> AoColumnTable::DecodeGroup(size_t gi, const VisibilityContext& ctx,
                                          const std::vector<int>& cols,
                                          ColumnBatch* batch) {
  std::shared_lock<std::shared_mutex> g(latch_);
  if (gi >= groups_.size()) return false;
  uint64_t bytes = 0;
  StatusOr<bool> decoded = groups_[gi].Decode(ctx, cols, batch, &bytes);
  bytes_scanned_.fetch_add(bytes, std::memory_order_relaxed);
  return decoded;
}

std::vector<AoGroupInfo> AoColumnTable::GroupInfos(const AoRowDeadFn& dead) const {
  std::shared_lock<std::shared_mutex> g(latch_);
  std::vector<AoGroupInfo> infos;
  infos.reserve(groups_.size());
  for (size_t gi = 0; gi < groups_.size(); ++gi) {
    infos.push_back(groups_[gi].Info(gi, dead));
  }
  return infos;
}

AoReclaimResult AoColumnTable::ReclaimDeadGroups(const AoRowDeadFn& dead) {
  std::unique_lock<std::shared_mutex> g(latch_);
  return ColumnGroup::ReclaimDead(&groups_, dead, [this](size_t gi) {
    if (change_log() != nullptr) {
      change_log()->Append(ChangeRecord{ChangeKind::kFreeGroup, id(),
                                        static_cast<TupleId>(gi), kInvalidTupleId,
                                        kInvalidLocalXid, {}});
    }
  });
}

Status AoColumnTable::ApplyFreeGroup(size_t group_index) {
  std::unique_lock<std::shared_mutex> g(latch_);
  if (group_index >= groups_.size() || !groups_[group_index].sealed()) {
    return Status::NotFound("AO-column free-group replay: group " +
                            std::to_string(group_index));
  }
  groups_[group_index].Free();
  return Status::OK();
}

Status AoColumnTable::Truncate() {
  std::unique_lock<std::shared_mutex> g(latch_);
  groups_.clear();
  if (change_log() != nullptr) {
    change_log()->Append(ChangeRecord{ChangeKind::kTruncate, id(), kInvalidTupleId,
                                      kInvalidTupleId, kInvalidLocalXid, {}});
  }
  return Status::OK();
}

uint64_t AoColumnTable::StoredVersionCount() const {
  std::shared_lock<std::shared_mutex> g(latch_);
  uint64_t rows = 0;
  for (const ColumnGroup& group : groups_) rows += group.rows();
  return rows;
}

uint64_t AoColumnTable::BytesScanned() const {
  return bytes_scanned_.load(std::memory_order_relaxed);
}

Status AoColumnTable::MarkDeleted(TupleId tid, LocalXid xid) {
  std::unique_lock<std::shared_mutex> g(latch_);
  const size_t gi = tid / kRowGroupSize;
  const size_t r = tid % kRowGroupSize;
  if (gi >= groups_.size() || (!groups_[gi].freed() && r >= groups_[gi].rows())) {
    return Status::NotFound("AO-column tid " + std::to_string(tid));
  }
  groups_[gi].SetXmax(r, xid);
  if (change_log() != nullptr) {
    change_log()->Append(
        ChangeRecord{ChangeKind::kSetXmax, id(), tid, kInvalidTupleId, xid, {}});
  }
  return Status::OK();
}

uint64_t AoColumnTable::ColumnCompressedBytes(int col) const {
  std::shared_lock<std::shared_mutex> g(latch_);
  uint64_t total = 0;
  for (const ColumnGroup& group : groups_) total += group.CompressedBytes(col);
  return total;
}

}  // namespace gphtap
