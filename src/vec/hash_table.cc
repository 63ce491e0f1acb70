#include "vec/hash_table.h"

#include <numeric>

#include "vec/vec_kernels.h"

namespace gphtap {

VecHashTable::VecHashTable(size_t num_keys) : key_cols_(num_keys) {
  entries_.Reset(num_keys);
  std::iota(key_cols_.begin(), key_cols_.end(), 0);
  Rehash(0);
}

VecHashTable::VecHashTable(ColumnBatch rows, std::vector<int> key_cols)
    : entries_(std::move(rows)), key_cols_(std::move(key_cols)) {
  entries_.SelectAll();
  const size_t n = entries_.rows;
  VecHashRows(entries_, key_cols_, entries_.sel, &hashes_);
  next_.assign(n, kEmpty);
  SizeSlots(n);
  const size_t mask = slots_.size() - 1;
  // Inserting in reverse and pushing onto the chain head leaves each chain
  // in insertion order.
  for (size_t k = n; k-- > 0;) {
    const auto e = static_cast<int32_t>(k);
    for (size_t i = SlotOf(hashes_[k]);; i = (i + 1) & mask) {
      const int32_t head = slots_[i];
      if (head == kEmpty) {
        slots_[i] = e;
        break;
      }
      if (hashes_[static_cast<size_t>(head)] == hashes_[k] &&
          KeyEquals(head, entries_, key_cols_, k)) {
        next_[k] = head;
        slots_[i] = e;
        break;
      }
    }
  }
}

void VecHashTable::SizeSlots(size_t n) {
  size_t capacity = 16;
  while (capacity < 2 * n) capacity *= 2;
  shift_ = 64 - __builtin_ctzll(capacity);
  slots_.assign(capacity, kEmpty);
}

void VecHashTable::Rehash(size_t n) {
  SizeSlots(n);
  const size_t mask = slots_.size() - 1;
  for (size_t e = 0; e < size(); ++e) {
    size_t i = SlotOf(hashes_[e]);
    while (slots_[i] != kEmpty) i = (i + 1) & mask;
    slots_[i] = static_cast<int32_t>(e);
  }
}

bool VecHashTable::KeyEquals(int32_t e, const ColumnBatch& b,
                             const std::vector<int>& cols, size_t r) const {
  for (size_t k = 0; k < cols.size(); ++k) {
    const ColumnVector& key = entries_.columns[static_cast<size_t>(key_cols_[k])];
    if (!key.EqualAt(static_cast<size_t>(e), b.columns[static_cast<size_t>(cols[k])], r)) {
      return false;
    }
  }
  return true;
}

int32_t VecHashTable::InsertAt(size_t slot, uint64_t hash) {
  const auto e = static_cast<int32_t>(entries_.rows);
  entries_.sel.push_back(e);
  ++entries_.rows;
  hashes_.push_back(hash);
  slots_[slot] = e;
  if (2 * size() > slots_.size()) Rehash(size());
  return e;
}

void VecHashTable::FindOrInsert(const ColumnBatch& in, const std::vector<int>& in_cols,
                                std::vector<int32_t>* ids) {
  ids->resize(in.rows);
  VecHashRows(in, in_cols, in.sel, &batch_hashes_);
  for (int32_t r : in.sel) {
    const auto row = static_cast<size_t>(r);
    const uint64_t h = batch_hashes_[row];
    const size_t mask = slots_.size() - 1;
    size_t i = SlotOf(h);
    int32_t e = slots_[i];
    while (e != kEmpty && (hashes_[static_cast<size_t>(e)] != h ||
                           !KeyEquals(e, in, in_cols, row))) {
      i = (i + 1) & mask;
      e = slots_[i];
    }
    if (e == kEmpty) {
      for (size_t k = 0; k < in_cols.size(); ++k) {
        entries_.columns[k].AppendFrom(in.columns[static_cast<size_t>(in_cols[k])], row);
      }
      e = InsertAt(i, h);
    }
    (*ids)[row] = e;
  }
}

int32_t VecHashTable::FindOrInsert(const Row& row, const std::vector<int>& cols) {
  const uint64_t h = HashRowKey(row, cols);
  const size_t mask = slots_.size() - 1;
  size_t i = SlotOf(h);
  for (int32_t e = slots_[i]; e != kEmpty; i = (i + 1) & mask, e = slots_[i]) {
    if (hashes_[static_cast<size_t>(e)] != h) continue;
    bool equal = true;
    for (size_t k = 0; k < cols.size() && equal; ++k) {
      const ColumnVector& key = entries_.columns[k];
      const Datum& d = row[static_cast<size_t>(cols[k])];
      equal = key.tag == ColumnVector::Tag::kDatum
                  ? key.datums[static_cast<size_t>(e)].Compare(d) == 0
                  : key.GetDatum(static_cast<size_t>(e)).Compare(d) == 0;
    }
    if (equal) return e;
  }
  for (size_t k = 0; k < cols.size(); ++k) {
    entries_.columns[k].Append(row[static_cast<size_t>(cols[k])]);
  }
  return InsertAt(i, h);
}

void VecHashTable::Probe(const ColumnBatch& probe, const std::vector<int>& probe_cols,
                         std::vector<int32_t>* probe_rows,
                         std::vector<int32_t>* entry_ids) const {
  probe_rows->clear();
  entry_ids->clear();
  if (size() == 0) return;
  std::vector<int32_t> live = probe.sel;
  for (int c : probe_cols) {
    const ColumnVector& col = probe.columns[static_cast<size_t>(c)];
    if (col.tag != ColumnVector::Tag::kDatum && col.nulls.empty()) continue;
    size_t w = 0;
    for (int32_t r : live) {
      live[w] = r;
      w += !col.IsNull(static_cast<size_t>(r));
    }
    live.resize(w);
  }
  std::vector<uint64_t> hashes;
  VecHashRows(probe, probe_cols, live, &hashes);
  const size_t mask = slots_.size() - 1;
  for (int32_t r : live) {
    const uint64_t h = hashes[static_cast<size_t>(r)];
    for (size_t i = SlotOf(h);; i = (i + 1) & mask) {
      int32_t e = slots_[i];
      if (e == kEmpty) break;
      if (hashes_[static_cast<size_t>(e)] != h ||
          !KeyEquals(e, probe, probe_cols, static_cast<size_t>(r))) {
        continue;
      }
      for (; e != kEmpty; e = next_[static_cast<size_t>(e)]) {
        probe_rows->push_back(r);
        entry_ids->push_back(e);
      }
      break;
    }
  }
}

}  // namespace gphtap
