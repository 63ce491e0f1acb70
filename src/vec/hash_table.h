// One open-addressing hash table keyed by typed key columns: the grouping
// table of both engines' hash aggregation (and so of DISTINCT) and the build
// table of the vectorized hash join.
//
// Entries live as the rows of one dense ColumnBatch, in insertion order, so
// an entry id is a row index and operators read keys and payload back by
// column copy. Keys hash with HashRowKey's combination of Datum::Hash (int 1
// and double 1.0 co-hash) and compare under Datum::Compare (NULL equals NULL,
// 1 equals 1.0), unboxed for int64/double columns. The slot array holds entry
// ids and is indexed by the high bits of a multiplicative remix of the key
// hash: rows that reached a segment through a redistribute motion all share
// their hash modulo the segment count, so the low bits alone would cluster.
#ifndef GPHTAP_VEC_HASH_TABLE_H_
#define GPHTAP_VEC_HASH_TABLE_H_

#include <cstdint>
#include <vector>

#include "catalog/datum.h"
#include "vec/column_batch.h"

namespace gphtap {

class VecHashTable {
 public:
  /// An empty grouping table whose entries are `num_keys` key columns; every
  /// key is unique.
  explicit VecHashTable(size_t num_keys);

  /// A join build table over the dense batch `rows`, keyed by its columns
  /// `key_cols`. Rows with equal keys chain in insertion order.
  VecHashTable(ColumnBatch rows, std::vector<int> key_cols);

  /// The entries, one row each, in insertion order.
  const ColumnBatch& entries() const { return entries_; }
  size_t size() const { return entries_.rows; }

  /// Grouping: sets (*ids)[r], for every live row r of `in`, to the id of the
  /// entry whose key equals the row's columns `in_cols`, appending the key as
  /// a new entry when there is none. New entries get ids from size() on.
  /// `ids` is resized to in.rows; only entries at in.sel are set.
  void FindOrInsert(const ColumnBatch& in, const std::vector<int>& in_cols,
                    std::vector<int32_t>* ids);

  /// Row-engine form of FindOrInsert for one row.
  int32_t FindOrInsert(const Row& row, const std::vector<int>& cols);

  /// Join probe: for every live row r of `probe`, appends (r, e) to
  /// (`probe_rows`, `entry_ids`) for each entry e whose key equals the row's
  /// columns `probe_cols`, in probe-row then entry order. Rows with a NULL
  /// key match nothing (SQL equality). Both outputs are cleared first.
  void Probe(const ColumnBatch& probe, const std::vector<int>& probe_cols,
             std::vector<int32_t>* probe_rows, std::vector<int32_t>* entry_ids) const;

 private:
  static constexpr int32_t kEmpty = -1;

  size_t SlotOf(uint64_t hash) const {
    return static_cast<size_t>((hash * 0x9e3779b97f4a7c15ULL) >> shift_);
  }
  // Empties the slot array, sized to hold `n` entries at most half full.
  void SizeSlots(size_t n);
  // SizeSlots(n), then re-slots the existing keys (all distinct: grouping
  // tables only).
  void Rehash(size_t n);
  // Records a new grouping entry, whose key columns the caller has just
  // appended, in the empty slot `slot`; grows the table past half load.
  int32_t InsertAt(size_t slot, uint64_t hash);
  // True when entry `e`'s key equals row `r`'s columns `cols` of `b`.
  bool KeyEquals(int32_t e, const ColumnBatch& b, const std::vector<int>& cols,
                 size_t r) const;

  ColumnBatch entries_;
  std::vector<int> key_cols_;      // key columns within an entry row
  std::vector<uint64_t> hashes_;   // per entry
  std::vector<int32_t> next_;      // join tables: next entry with an equal key
  std::vector<int32_t> slots_;     // entry id (a chain head) or kEmpty
  int shift_ = 64;
  std::vector<uint64_t> batch_hashes_;  // FindOrInsert scratch, by row index
};

}  // namespace gphtap

#endif  // GPHTAP_VEC_HASH_TABLE_H_
