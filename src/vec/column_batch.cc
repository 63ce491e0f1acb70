#include "vec/column_batch.h"

namespace gphtap {

void ColumnVector::ResetTyped(Tag t, size_t n) {
  Clear();
  tag = t;
  switch (tag) {
    case Tag::kInt64:
      ints.assign(n, 0);
      break;
    case Tag::kDouble:
      dbls.assign(n, 0.0);
      break;
    case Tag::kDatum:
      datums.assign(n, Datum());
      break;
  }
}

void ColumnVector::Demote() {
  if (tag == Tag::kDatum) return;
  const size_t n = size();
  std::vector<Datum> boxed;
  boxed.reserve(n);
  for (size_t r = 0; r < n; ++r) boxed.push_back(GetDatum(r));
  Clear();
  tag = Tag::kDatum;
  datums = std::move(boxed);
}

void ColumnVector::Append(const Datum& d) {
  if (size() == 0 && nulls.empty()) {
    // Empty column: adopt the datum's type (NULL defaults to the int layout —
    // the mask keeps it exact whatever arrives later).
    if (d.is_double()) {
      tag = Tag::kDouble;
    } else if (d.is_string()) {
      tag = Tag::kDatum;
    } else {
      tag = Tag::kInt64;
    }
  }
  switch (tag) {
    case Tag::kInt64:
      if (d.is_null()) {
        EnsureNulls();
        ints.push_back(0);
        nulls.push_back(1);
        return;
      }
      if (d.is_int()) {
        ints.push_back(d.int_val());
        if (!nulls.empty()) nulls.push_back(0);
        return;
      }
      break;
    case Tag::kDouble:
      if (d.is_null()) {
        EnsureNulls();
        dbls.push_back(0.0);
        nulls.push_back(1);
        return;
      }
      if (d.is_double()) {
        dbls.push_back(d.double_val());
        if (!nulls.empty()) nulls.push_back(0);
        return;
      }
      break;
    case Tag::kDatum:
      datums.push_back(d);
      return;
  }
  Demote();
  datums.push_back(d);
}

void ColumnVector::Append(Datum&& d) {
  if (tag == Tag::kDatum && size() > 0) {
    datums.push_back(std::move(d));
    return;
  }
  Append(static_cast<const Datum&>(d));
}

void ColumnVector::AppendFrom(const ColumnVector& src, size_t r) {
  if (size() == 0 && nulls.empty()) tag = src.tag;
  if (tag == src.tag) {
    switch (tag) {
      case Tag::kInt64:
        if (src.IsNull(r)) {
          EnsureNulls();
          ints.push_back(0);
          nulls.push_back(1);
        } else {
          ints.push_back(src.ints[r]);
          if (!nulls.empty()) nulls.push_back(0);
        }
        return;
      case Tag::kDouble:
        if (src.IsNull(r)) {
          EnsureNulls();
          dbls.push_back(0.0);
          nulls.push_back(1);
        } else {
          dbls.push_back(src.dbls[r]);
          if (!nulls.empty()) nulls.push_back(0);
        }
        return;
      case Tag::kDatum:
        datums.push_back(src.datums[r]);
        return;
    }
  }
  Append(src.GetDatum(r));
}

bool ColumnVector::EqualAt(size_t r, const ColumnVector& other, size_t s) const {
  if (tag == other.tag && tag != Tag::kDatum) {
    const bool a_null = IsNull(r);
    const bool b_null = other.IsNull(s);
    if (a_null || b_null) return a_null == b_null;
    if (tag == Tag::kInt64) return ints[r] == other.ints[s];
    // Datum::Compare's rule: equal unless one orders before the other.
    const double a = dbls[r];
    const double b = other.dbls[s];
    return !(a < b) && !(a > b);
  }
  if (tag == Tag::kDatum) return datums[r].Compare(other.GetDatum(s)) == 0;
  if (other.tag == Tag::kDatum) return other.datums[s].Compare(GetDatum(r)) == 0;
  return GetDatum(r).Compare(other.GetDatum(s)) == 0;
}

void ColumnVector::AppendGather(const ColumnVector& src, const int32_t* idx, size_t n) {
  if (size() == 0 && nulls.empty()) tag = src.tag;
  if (tag != src.tag) {
    for (size_t i = 0; i < n; ++i) AppendFrom(src, static_cast<size_t>(idx[i]));
    return;
  }
  const size_t base = size();
  switch (tag) {
    case Tag::kInt64:
      ints.resize(base + n);
      for (size_t i = 0; i < n; ++i) ints[base + i] = src.ints[static_cast<size_t>(idx[i])];
      break;
    case Tag::kDouble:
      dbls.resize(base + n);
      for (size_t i = 0; i < n; ++i) dbls[base + i] = src.dbls[static_cast<size_t>(idx[i])];
      break;
    case Tag::kDatum:
      datums.reserve(base + n);
      for (size_t i = 0; i < n; ++i) datums.push_back(src.datums[static_cast<size_t>(idx[i])]);
      return;  // NULL lives in the datum
  }
  if (src.nulls.empty()) {
    if (!nulls.empty()) nulls.resize(base + n, 0);
    return;
  }
  if (nulls.empty()) nulls.assign(base, 0);
  nulls.resize(base + n);
  for (size_t i = 0; i < n; ++i) nulls[base + i] = src.nulls[static_cast<size_t>(idx[i])];
}

void ColumnBatch::Reset(size_t ncols, size_t capacity) {
  Clear();
  columns.resize(ncols);
  for (auto& col : columns) col.Reserve(capacity);
  sel.reserve(capacity);
}

void ColumnBatch::SelectAll() {
  sel.resize(rows);
  for (size_t r = 0; r < rows; ++r) sel[r] = static_cast<int32_t>(r);
}

void ColumnBatch::AppendRow(const Row& row) {
  for (size_t c = 0; c < columns.size(); ++c) columns[c].Append(row[c]);
  sel.push_back(static_cast<int32_t>(rows));
  ++rows;
}

void ColumnBatch::AppendRow(Row&& row) {
  for (size_t c = 0; c < columns.size(); ++c) columns[c].Append(std::move(row[c]));
  sel.push_back(static_cast<int32_t>(rows));
  ++rows;
}

void ColumnBatch::AppendSelectedFrom(const ColumnBatch& src, int32_t r) {
  for (size_t c = 0; c < columns.size(); ++c) {
    columns[c].AppendFrom(src.columns[c], static_cast<size_t>(r));
  }
  sel.push_back(static_cast<int32_t>(rows));
  ++rows;
}

Row ColumnBatch::MaterializeRow(int32_t r) const {
  Row out;
  out.reserve(columns.size());
  for (const auto& col : columns) out.push_back(col.GetDatum(static_cast<size_t>(r)));
  return out;
}

void ColumnBatch::AppendTo(std::vector<Row>* out) const {
  out->reserve(out->size() + sel.size());
  for (int32_t r : sel) out->push_back(MaterializeRow(r));
}

ColumnBatch ColumnBatch::FromRows(const std::vector<Row>& rows) {
  ColumnBatch b;
  b.Reset(rows.empty() ? 0 : rows[0].size(), rows.size());
  for (const Row& r : rows) b.AppendRow(r);
  return b;
}

void ColumnBatch::Compact() {
  if (sel.size() == rows) return;  // already dense
  for (auto& col : columns) {
    ColumnVector dense;
    dense.AppendGather(col, sel.data(), sel.size());
    col = std::move(dense);
  }
  rows = sel.size();
  SelectAll();
}

int64_t ColumnBatch::FootprintBytes() const {
  int64_t bytes = 0;
  for (int32_t r : sel) {
    bytes += static_cast<int64_t>(sizeof(Row));
    for (const auto& col : columns) {
      bytes += static_cast<int64_t>(col.FootprintAt(static_cast<size_t>(r)));
    }
  }
  return bytes;
}

}  // namespace gphtap
