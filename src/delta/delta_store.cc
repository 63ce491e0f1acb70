#include "delta/delta_store.h"

namespace gphtap {

DeltaStore::DeltaStore(TableDef def) : def_(std::move(def)) {}

size_t DeltaStore::PositionOfLocked(TupleId tid) const {
  auto it = tid_pos_.find(tid);
  return it == tid_pos_.end() ? kNoPos : it->second;
}

void DeltaStore::ApplyInsert(TupleId tid, LocalXid xid, const Row& row) {
  std::unique_lock<std::shared_mutex> g(latch_);
  // Heap tids are reused after vacuum; a mapping that still exists here is a
  // stale version of the slot — retire it before the new row takes the tid.
  size_t old = PositionOfLocked(tid);
  if (old != kNoPos) groups_[old / kGroupRows].Drop(old % kGroupRows);
  ColumnGroup& tail = ColumnGroup::Tail(&groups_, def_.schema.num_columns());
  tid_pos_[tid] = (groups_.size() - 1) * kGroupRows + tail.rows();
  tail.Append(row, xid);
}

void DeltaStore::ApplyDelete(TupleId tid, LocalXid xid) {
  std::unique_lock<std::shared_mutex> g(latch_);
  size_t pos = PositionOfLocked(tid);
  if (pos == kNoPos) return;
  groups_[pos / kGroupRows].SetXmax(pos % kGroupRows, xid);
  ++deletes_;
}

void DeltaStore::ApplyFreeSlot(TupleId tid) {
  std::unique_lock<std::shared_mutex> g(latch_);
  size_t pos = PositionOfLocked(tid);
  tid_pos_.erase(tid);  // the heap slot may be reused by a future insert
  if (pos != kNoPos) groups_[pos / kGroupRows].Drop(pos % kGroupRows);
}

void DeltaStore::ApplyTruncate() {
  std::unique_lock<std::shared_mutex> g(latch_);
  groups_.clear();
  tid_pos_.clear();
  pending_free_.clear();
  ++truncate_epoch_;
}

void DeltaStore::ApplyFreeGroup(size_t group_index, uint64_t epoch) {
  std::unique_lock<std::shared_mutex> g(latch_);
  if (epoch != truncate_epoch_) return;  // free predates a truncate: stale
  if (group_index < groups_.size() && groups_[group_index].sealed()) {
    groups_[group_index].Free();
  } else {
    // Seals are local, not logged: a replica replaying the log may reach this
    // free before it has sealed the group. Defer; SealCold lands it.
    pending_free_.insert(group_index);
  }
}

StatusOr<DeltaSealResult> DeltaStore::SealCold(const CommitLog* clog) {
  std::unique_lock<std::shared_mutex> g(latch_);
  DeltaSealResult result;
  for (size_t gi = 0; gi < groups_.size(); ++gi) {
    ColumnGroup& group = groups_[gi];
    if (group.sealed()) continue;
    if (!group.full()) break;
    if (clog != nullptr) {
      bool decided = true;
      for (size_t r = 0; r < kGroupRows && decided; ++r) {
        TxnState s = clog->GetState(group.xmins()[r]);
        decided = (s == TxnState::kCommitted || s == TxnState::kAborted);
      }
      if (!decided) break;  // the run is still hot; try again next pass
    }
    GPHTAP_RETURN_IF_ERROR(group.Seal(def_.schema, def_.compression));
    ++result.groups_sealed;
    result.rows_sealed += kGroupRows;
    // A free that arrived from the log before we sealed this group lands now.
    if (pending_free_.erase(gi) > 0) group.Free();
  }
  return result;
}

AoReclaimResult DeltaStore::ReclaimDeadGroups(const AoRowDeadFn& dead, ChangeLog* log) {
  std::unique_lock<std::shared_mutex> g(latch_);
  return ColumnGroup::ReclaimDead(&groups_, dead, [&](size_t gi) {
    if (log == nullptr) return;
    ChangeRecord rec;
    rec.kind = ChangeKind::kFreeGroup;
    rec.table = def_.id;
    rec.tid = gi;
    rec.tid2 = truncate_epoch_;  // stamps the epoch; see ApplyFreeGroup
    log->Append(std::move(rec));
  });
}

Status DeltaStore::ScanBatches(const VisibilityContext& ctx, const std::vector<int>& cols,
                               const BatchScanCallback& fn, uint64_t* sealed_scanned,
                               uint64_t* open_scanned) const {
  std::shared_lock<std::shared_mutex> g(latch_);
  std::vector<int> all;
  if (cols.empty()) {
    all.resize(def_.schema.num_columns());
    for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
  }
  const std::vector<int>& touched = cols.empty() ? all : cols;

  for (const ColumnGroup& group : groups_) {
    ColumnBatch batch;
    GPHTAP_ASSIGN_OR_RETURN(bool any, group.Decode(ctx, touched, &batch, nullptr));
    if (!any) continue;
    uint64_t* served = group.sealed() ? sealed_scanned : open_scanned;
    if (served != nullptr) *served += batch.ActiveRows();
    if (!fn(std::move(batch))) return Status::OK();
  }
  return Status::OK();
}

DeltaStoreStats DeltaStore::Stats() const {
  std::shared_lock<std::shared_mutex> g(latch_);
  DeltaStoreStats s;
  for (const ColumnGroup& group : groups_) {
    if (!group.sealed()) {
      s.open_rows += group.rows();
      continue;
    }
    ++s.sealed_groups;
    if (group.freed()) {
      ++s.freed_groups;
    } else {
      s.sealed_rows += group.rows();
    }
  }
  s.deletes = deletes_;
  s.pending_frees = pending_free_.size();
  return s;
}

}  // namespace gphtap
