// One row group of a column store: the single group format shared by
// AO-column tables (Section 3.4: each column is its own stream of compressed
// blocks) and the in-memory delta store over heap tables.
//
// A group starts open — one typed ColumnVector per column, appended row by
// row — and seals into one compressed block per column. Per-row MVCC
// metadata (xmin, xmax, dropped) stays uncompressed beside the payload in
// both states: a delete writes the row's xmax slot in place, sealing carries
// the marks along, and one decode reads payload and visibility from the same
// group state. Groups are positional: row N of the append order lives in
// group N / kRows at slot N % kRows, and a freed group keeps its index.
//
// Not synchronized: the owning store's latch guards every call.
#ifndef GPHTAP_STORAGE_COLUMN_GROUP_H_
#define GPHTAP_STORAGE_COLUMN_GROUP_H_

#include <functional>
#include <vector>

#include "catalog/schema.h"
#include "common/status.h"
#include "storage/ao_group.h"
#include "storage/compression.h"
#include "txn/visibility.h"
#include "vec/column_batch.h"

namespace gphtap {

class ColumnGroup {
 public:
  /// One group decodes into exactly one ColumnBatch.
  static constexpr size_t kRows = ColumnBatch::kDefaultCapacity;

  explicit ColumnGroup(size_t ncols) : open_(ncols) {}

  /// The group the next appended row belongs to: the last group while it is
  /// open and not full, otherwise a fresh open group pushed onto `groups`.
  static ColumnGroup& Tail(std::vector<ColumnGroup>* groups, size_t ncols);

  /// Frees every sealed, live group of `groups` whose rows are all dead per
  /// `dead`, calling `on_free(index)` after each free.
  static AoReclaimResult ReclaimDead(std::vector<ColumnGroup>* groups,
                                     const AoRowDeadFn& dead,
                                     const std::function<void(size_t)>& on_free);

  /// Rows stored (0 once freed).
  size_t rows() const { return xmins_.size(); }
  bool full() const { return rows() >= kRows; }
  bool sealed() const { return sealed_; }
  bool freed() const { return freed_; }
  const std::vector<LocalXid>& xmins() const { return xmins_; }

  /// Appends one row to an open group; columns past the row's end are NULL.
  void Append(const Row& row, LocalXid xmin);

  /// Marks row `r` deleted by `xmax` / its heap slot vacuumed (dead to every
  /// snapshot). Both are no-ops on a freed group.
  void SetXmax(size_t r, LocalXid xmax);
  void Drop(size_t r);

  /// Compresses every column with `kind` (column types from `schema`) and
  /// drops the open vectors. On error the group stays open and unchanged.
  Status Seal(const Schema& schema, CompressionKind kind);

  /// Decodes columns `cols` into `out`, whose selection vector holds the rows
  /// visible under `ctx`; visibility runs first, so a group with no visible
  /// row is never decompressed. Returns false — `out` untouched — for a freed
  /// or fully invisible group. `bytes_read` (may be null) accumulates the
  /// compressed bytes read, or 16 per visible value of an open group.
  StatusOr<bool> Decode(const VisibilityContext& ctx, const std::vector<int>& cols,
                        ColumnBatch* out, uint64_t* bytes_read) const;

  /// Occupancy of this group (as group `index`) under `dead`; dropped rows
  /// count as dead.
  AoGroupInfo Info(size_t index, const AoRowDeadFn& dead) const;

  /// Releases payload and MVCC metadata; the group keeps its slot.
  void Free();

  /// Compressed footprint of column `col` (0 unless sealed and live).
  uint64_t CompressedBytes(int col) const;

 private:
  bool RowDead(size_t r, const AoRowDeadFn& dead) const {
    return dropped_[r] != 0 || dead(xmins_[r], xmaxs_[r]);
  }

  std::vector<ColumnVector> open_;       // open payload, one per column
  std::vector<CompressedBlock> blocks_;  // sealed payload, one per column
  std::vector<LocalXid> xmins_;
  std::vector<LocalXid> xmaxs_;          // kInvalidLocalXid = not deleted
  std::vector<uint8_t> dropped_;         // heap slot vacuumed (delta store)
  bool sealed_ = false;
  bool freed_ = false;
};

}  // namespace gphtap

#endif  // GPHTAP_STORAGE_COLUMN_GROUP_H_
