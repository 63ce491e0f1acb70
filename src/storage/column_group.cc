#include "storage/column_group.h"

namespace gphtap {

ColumnGroup& ColumnGroup::Tail(std::vector<ColumnGroup>* groups, size_t ncols) {
  if (groups->empty() || groups->back().sealed() || groups->back().full()) {
    groups->emplace_back(ncols);
  }
  return groups->back();
}

AoReclaimResult ColumnGroup::ReclaimDead(std::vector<ColumnGroup>* groups,
                                         const AoRowDeadFn& dead,
                                         const std::function<void(size_t)>& on_free) {
  AoReclaimResult result;
  for (size_t gi = 0; gi < groups->size(); ++gi) {
    ColumnGroup& group = (*groups)[gi];
    if (!group.sealed() || group.freed()) continue;
    bool all_dead = true;
    for (size_t r = 0; r < group.rows() && all_dead; ++r) {
      all_dead = group.RowDead(r, dead);
    }
    if (!all_dead) continue;
    result.rows_freed += group.rows();
    ++result.groups_freed;
    group.Free();
    on_free(gi);
  }
  return result;
}

void ColumnGroup::Append(const Row& row, LocalXid xmin) {
  for (size_t c = 0; c < open_.size(); ++c) {
    open_[c].Append(c < row.size() ? row[c] : Datum::Null());
  }
  xmins_.push_back(xmin);
  xmaxs_.push_back(kInvalidLocalXid);
  dropped_.push_back(0);
}

void ColumnGroup::SetXmax(size_t r, LocalXid xmax) {
  if (!freed_) xmaxs_[r] = xmax;
}

void ColumnGroup::Drop(size_t r) {
  if (!freed_) dropped_[r] = 1;
}

Status ColumnGroup::Seal(const Schema& schema, CompressionKind kind) {
  std::vector<CompressedBlock> blocks(open_.size());
  std::vector<Datum> values(rows());
  for (size_t c = 0; c < open_.size(); ++c) {
    for (size_t r = 0; r < values.size(); ++r) values[r] = open_[c].GetDatum(r);
    GPHTAP_RETURN_IF_ERROR(CompressColumn(kind, schema.column(c).type, values, &blocks[c]));
  }
  blocks_ = std::move(blocks);
  std::vector<ColumnVector>().swap(open_);
  sealed_ = true;
  return Status::OK();
}

StatusOr<bool> ColumnGroup::Decode(const VisibilityContext& ctx, const std::vector<int>& cols,
                                   ColumnBatch* out, uint64_t* bytes_read) const {
  if (freed_) return false;
  std::vector<int32_t> sel;
  sel.reserve(rows());
  // Rows come in runs of equal (xmin, xmax) — a group loaded by one
  // transaction is one run — so visibility is decided once per run; every
  // call reads the shared clog and distributed log.
  bool have_run = false;
  bool run_visible = false;
  LocalXid run_xmin = kInvalidLocalXid;
  LocalXid run_xmax = kInvalidLocalXid;
  for (size_t r = 0; r < rows(); ++r) {
    if (dropped_[r]) continue;
    if (!have_run || xmins_[r] != run_xmin || xmaxs_[r] != run_xmax) {
      have_run = true;
      run_xmin = xmins_[r];
      run_xmax = xmaxs_[r];
      run_visible = TupleVisible(run_xmin, run_xmax, ctx);
    }
    if (run_visible) sel.push_back(static_cast<int32_t>(r));
  }
  if (sel.empty()) return false;
  ColumnBatch batch;
  batch.columns.resize(cols.size());
  uint64_t bytes = 0;
  for (size_t k = 0; k < cols.size(); ++k) {
    const size_t c = static_cast<size_t>(cols[k]);
    if (sealed_) {
      const CompressedBlock& block = blocks_[c];
      bytes += block.bytes.size();
      GPHTAP_RETURN_IF_ERROR(DecompressInto(block, &batch.columns[k]));
    } else {
      bytes += 16 * sel.size();
      batch.columns[k] = open_[c];
    }
  }
  if (bytes_read != nullptr) *bytes_read += bytes;
  batch.rows = rows();
  batch.sel = std::move(sel);
  *out = std::move(batch);
  return true;
}

AoGroupInfo ColumnGroup::Info(size_t index, const AoRowDeadFn& dead) const {
  AoGroupInfo info;
  info.index = index;
  info.sealed = sealed_;
  info.freed = freed_;
  info.rows = rows();
  for (size_t r = 0; r < rows(); ++r) {
    if (RowDead(r, dead)) {
      ++info.dead;
    } else {
      ++info.live;
    }
  }
  return info;
}

void ColumnGroup::Free() {
  std::vector<ColumnVector>().swap(open_);
  std::vector<CompressedBlock>().swap(blocks_);
  std::vector<LocalXid>().swap(xmins_);
  std::vector<LocalXid>().swap(xmaxs_);
  std::vector<uint8_t>().swap(dropped_);
  freed_ = true;
}

uint64_t ColumnGroup::CompressedBytes(int col) const {
  return sealed_ && !freed_ ? blocks_[static_cast<size_t>(col)].bytes.size() : 0;
}

}  // namespace gphtap
