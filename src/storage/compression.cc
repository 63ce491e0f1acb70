#include "storage/compression.h"

#include <algorithm>
#include <cstring>
#include <type_traits>
#include <unordered_map>

namespace gphtap {

namespace {

// ---------- varint / zigzag ----------

void PutVarint(std::vector<uint8_t>* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t ZigzagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

void PutString(std::vector<uint8_t>* out, const std::string& s) {
  PutVarint(out, s.size());
  out->insert(out->end(), s.begin(), s.end());
}

void PutDouble(std::vector<uint8_t>* out, double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, 8);
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<uint8_t>(bits >> (8 * i)));
}

// ---------- null bitmap ----------

void PutNullBitmap(std::vector<uint8_t>* out, const std::vector<Datum>& values) {
  size_t nbytes = (values.size() + 7) / 8;
  size_t start = out->size();
  out->resize(start + nbytes, 0);
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i].is_null()) (*out)[start + i / 8] |= static_cast<uint8_t>(1u << (i % 8));
  }
}

void PutValue(std::vector<uint8_t>* out, const Datum& d, TypeId type) {
  switch (type) {
    case TypeId::kInt64:
      PutVarint(out, ZigzagEncode(d.int_val()));
      break;
    case TypeId::kDouble:
      PutDouble(out, d.double_val());
      break;
    case TypeId::kString:
      PutString(out, d.string_val());
      break;
  }
}

// ---------- codec payloads (operate on the non-null values, in order) ----------

void EncodeRaw(const std::vector<Datum>& nn, TypeId type, std::vector<uint8_t>* out) {
  for (const Datum& d : nn) PutValue(out, d, type);
}

void EncodeRle(const std::vector<Datum>& nn, TypeId type, std::vector<uint8_t>* out) {
  size_t i = 0;
  while (i < nn.size()) {
    size_t j = i;
    while (j < nn.size() && nn[j] == nn[i]) ++j;
    PutVarint(out, j - i);  // run length
    PutValue(out, nn[i], type);
    i = j;
  }
}

void EncodeDelta(const std::vector<Datum>& nn, std::vector<uint8_t>* out) {
  int64_t prev = 0;
  for (const Datum& d : nn) {
    int64_t v = d.int_val();
    PutVarint(out, ZigzagEncode(v - prev));
    prev = v;
  }
}

void EncodeDict(const std::vector<Datum>& nn, TypeId type, std::vector<uint8_t>* out) {
  std::vector<Datum> dict;
  std::unordered_map<std::string, uint64_t> seen;  // keyed by ToString (exact per type)
  std::vector<uint64_t> codes;
  codes.reserve(nn.size());
  for (const Datum& d : nn) {
    std::string key = d.ToString();
    auto it = seen.find(key);
    if (it == seen.end()) {
      it = seen.emplace(key, dict.size()).first;
      dict.push_back(d);
    }
    codes.push_back(it->second);
  }
  PutVarint(out, dict.size());
  for (const Datum& d : dict) PutValue(out, d, type);
  for (uint64_t c : codes) PutVarint(out, c);
}

// ---------- decoding ----------
//
// Every read is bounds-checked against the block, so a truncated or corrupt
// block fails with InvalidArgument instead of reading past its end.

// Cursor over an encoded byte range.
struct Reader {
  const uint8_t* data = nullptr;
  size_t size = 0;
  size_t pos = 0;

  size_t remaining() const { return size - pos; }

  bool Varint(uint64_t* v) {
    uint64_t result = 0;
    for (int shift = 0; pos < size && shift <= 63; shift += 7) {
      const uint8_t b = data[pos++];
      result |= static_cast<uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) {
        *v = result;
        return true;
      }
    }
    return false;
  }
};

// One value of each payload type, in the PutValue encoding.
bool Get(Reader* in, int64_t* v) {
  uint64_t z;
  if (!in->Varint(&z)) return false;
  *v = ZigzagDecode(z);
  return true;
}

bool Get(Reader* in, double* v) {
  if (in->remaining() < 8) return false;
  uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) bits |= static_cast<uint64_t>(in->data[in->pos + i]) << (8 * i);
  in->pos += 8;
  std::memcpy(v, &bits, 8);
  return true;
}

bool Get(Reader* in, Datum* v) {
  uint64_t len;
  if (!in->Varint(&len) || len > in->remaining()) return false;
  *v = Datum(std::string(reinterpret_cast<const char*>(in->data) + in->pos, len));
  in->pos += len;
  return true;
}

Status LzDecode(Reader* in, std::vector<uint8_t>* out) {
  constexpr size_t kMinMatch = 4;
  uint64_t total;
  if (!in->Varint(&total)) return Status::InvalidArgument("lz: bad header");
  // One input byte expands to at most one maximal match (0x7f + kMinMatch
  // bytes); a corrupt header must not size the reservation.
  out->reserve(std::min<uint64_t>(total, in->remaining() * (0x7f + kMinMatch)));
  while (out->size() < total) {
    if (in->remaining() == 0) return Status::InvalidArgument("lz: truncated stream");
    const uint8_t t = in->data[in->pos++];
    if (t < 0x80) {
      const size_t run = static_cast<size_t>(t) + 1;
      if (run > in->remaining()) return Status::InvalidArgument("lz: bad literal run");
      out->insert(out->end(), in->data + in->pos, in->data + in->pos + run);
      in->pos += run;
    } else {
      const size_t len = static_cast<size_t>(t & 0x7f) + kMinMatch;
      uint64_t dist;
      if (!in->Varint(&dist)) return Status::InvalidArgument("lz: bad distance");
      if (dist == 0 || dist > out->size()) {
        return Status::InvalidArgument("lz: distance out of range");
      }
      const size_t start = out->size() - dist;
      for (size_t k = 0; k < len; ++k) out->push_back((*out)[start + k]);  // may overlap
    }
  }
  if (out->size() != total) return Status::InvalidArgument("lz: size mismatch");
  return Status::OK();
}

// The codec decoders: each appends the block's `n` non-NULL values, in order,
// to `out` as the payload type T (int64_t, double, or a string Datum).

template <typename T>
bool DecodeRaw(Reader* in, size_t n, std::vector<T>* out) {
  for (size_t i = 0; i < n; ++i) {
    T v;
    if (!Get(in, &v)) return false;
    out->push_back(std::move(v));
  }
  return true;
}

template <typename T>
bool DecodeRle(Reader* in, size_t n, std::vector<T>* out) {
  while (out->size() < n) {
    uint64_t run;
    T v;
    if (!in->Varint(&run) || !Get(in, &v)) return false;
    if (run == 0 || run > n - out->size()) return false;
    out->insert(out->end(), run, v);
  }
  return true;
}

bool DecodeDelta(Reader* in, size_t n, std::vector<int64_t>* out) {
  int64_t prev = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t z;
    if (!in->Varint(&z)) return false;
    prev += ZigzagDecode(z);
    out->push_back(prev);
  }
  return true;
}

template <typename T>
bool DecodeDict(Reader* in, size_t n, std::vector<T>* out) {
  uint64_t dict_size;
  // Every entry takes at least one byte, which bounds a corrupt size.
  if (!in->Varint(&dict_size) || dict_size > in->remaining()) return false;
  std::vector<T> dict;
  dict.reserve(dict_size);
  if (!DecodeRaw(in, dict_size, &dict)) return false;
  for (size_t i = 0; i < n; ++i) {
    uint64_t code;
    if (!in->Varint(&code) || code >= dict.size()) return false;
    out->push_back(dict[code]);
  }
  return true;
}

// Widens the dense non-NULL values in `vals` to one slot per flag of `nulls`,
// filling NULL slots with `null_value`. In place, back to front.
template <typename T>
void SpreadOverNulls(const std::vector<uint8_t>& nulls, const T& null_value,
                     std::vector<T>* vals) {
  size_t next = vals->size();
  vals->resize(nulls.size());
  for (size_t i = nulls.size(); i-- > 0 && next <= i;) {
    // next <= i: a NULL lies at or before i, so slot i still needs filling.
    (*vals)[i] = nulls[i] ? null_value : std::move((*vals)[--next]);
  }
}

// Decodes `block` (payload starting at `in`; `num_null` of its values NULL
// per `nulls`) through its codec into one T per value.
template <typename T>
Status DecodeValues(const CompressedBlock& block, Reader in, const std::vector<uint8_t>& nulls,
                    size_t num_null, const T& null_value, std::vector<T>* out) {
  const size_t n = block.count - num_null;
  out->reserve(block.count);
  bool ok = false;
  switch (block.kind) {
    case CompressionKind::kNone:
      ok = DecodeRaw(&in, n, out);
      break;
    case CompressionKind::kRle:
      ok = DecodeRle(&in, n, out);
      break;
    case CompressionKind::kDelta:
      if constexpr (std::is_same_v<T, int64_t>) ok = DecodeDelta(&in, n, out);
      break;
    case CompressionKind::kDict:
      ok = DecodeDict(&in, n, out);
      break;
    case CompressionKind::kLz: {
      std::vector<uint8_t> raw;
      GPHTAP_RETURN_IF_ERROR(LzDecode(&in, &raw));
      Reader raw_in{raw.data(), raw.size()};
      ok = DecodeRaw(&raw_in, n, out);
      break;
    }
  }
  if (!ok) return Status::InvalidArgument("corrupt compressed block");
  if (num_null > 0) SpreadOverNulls(nulls, null_value, out);
  return Status::OK();
}

}  // namespace

// ---------- LZ77-style byte codec ----------

std::vector<uint8_t> LzCompress(const std::vector<uint8_t>& in) {
  // Format: sequence of tokens. Token byte T:
  //   T < 0x80: literal run of T+1 bytes follows.
  //   T >= 0x80: match; length = (T & 0x7f) + kMinMatch, followed by varint
  //              backward distance (>=1).
  constexpr size_t kMinMatch = 4;
  constexpr size_t kMaxMatchLen = 0x7f + kMinMatch;
  std::vector<uint8_t> out;
  PutVarint(&out, in.size());
  if (in.empty()) return out;

  std::unordered_map<uint32_t, size_t> table;  // 4-byte prefix hash -> position
  auto hash4 = [&](size_t p) {
    uint32_t v;
    std::memcpy(&v, in.data() + p, 4);
    return v * 2654435761u;
  };

  size_t i = 0, lit_start = 0;
  auto flush_literals = [&](size_t end) {
    size_t p = lit_start;
    while (p < end) {
      size_t run = std::min<size_t>(end - p, 0x80);
      out.push_back(static_cast<uint8_t>(run - 1));
      out.insert(out.end(), in.begin() + static_cast<long>(p),
                 in.begin() + static_cast<long>(p + run));
      p += run;
    }
  };

  while (i + kMinMatch <= in.size()) {
    uint32_t h = hash4(i);
    auto it = table.find(h);
    size_t match_pos = (it != table.end()) ? it->second : SIZE_MAX;
    table[h] = i;
    if (match_pos != SIZE_MAX && i - match_pos <= (1u << 20) &&
        std::memcmp(in.data() + match_pos, in.data() + i, kMinMatch) == 0) {
      size_t len = kMinMatch;
      while (i + len < in.size() && len < kMaxMatchLen &&
             in[match_pos + len] == in[i + len]) {
        ++len;
      }
      flush_literals(i);
      out.push_back(static_cast<uint8_t>(0x80 | (len - kMinMatch)));
      PutVarint(&out, i - match_pos);
      i += len;
      lit_start = i;
    } else {
      ++i;
    }
  }
  flush_literals(in.size());
  return out;
}

StatusOr<std::vector<uint8_t>> LzDecompress(const std::vector<uint8_t>& in) {
  Reader reader{in.data(), in.size()};
  std::vector<uint8_t> out;
  GPHTAP_RETURN_IF_ERROR(LzDecode(&reader, &out));
  return out;
}

// ---------- public entry points ----------

Status CompressColumn(CompressionKind kind, TypeId type,
                      const std::vector<Datum>& values, CompressedBlock* out) {
  out->type = type;
  out->count = static_cast<uint32_t>(values.size());
  out->bytes.clear();

  std::vector<Datum> non_null;
  non_null.reserve(values.size());
  for (const Datum& d : values) {
    if (!d.is_null()) non_null.push_back(d);
  }
  // Delta applies to ints only; fall back to raw otherwise.
  CompressionKind effective = kind;
  if (kind == CompressionKind::kDelta && type != TypeId::kInt64) {
    effective = CompressionKind::kNone;
  }
  out->kind = effective;

  PutNullBitmap(&out->bytes, values);
  switch (effective) {
    case CompressionKind::kNone:
      EncodeRaw(non_null, type, &out->bytes);
      break;
    case CompressionKind::kRle:
      EncodeRle(non_null, type, &out->bytes);
      break;
    case CompressionKind::kDelta:
      EncodeDelta(non_null, &out->bytes);
      break;
    case CompressionKind::kDict:
      EncodeDict(non_null, type, &out->bytes);
      break;
    case CompressionKind::kLz: {
      std::vector<uint8_t> raw;
      EncodeRaw(non_null, type, &raw);
      std::vector<uint8_t> packed = LzCompress(raw);
      out->bytes.insert(out->bytes.end(), packed.begin(), packed.end());
      break;
    }
  }
  return Status::OK();
}

Status DecompressInto(const CompressedBlock& block, ColumnVector* out) {
  out->Clear();
  const size_t nbytes = (static_cast<size_t>(block.count) + 7) / 8;
  if (nbytes > block.bytes.size()) return Status::InvalidArgument("truncated null bitmap");
  const uint8_t* bitmap = block.bytes.data();
  size_t num_null = 0;
  std::vector<uint8_t> nulls;
  if (std::any_of(bitmap, bitmap + nbytes, [](uint8_t b) { return b != 0; })) {
    nulls.resize(block.count);
    for (size_t i = 0; i < nulls.size(); ++i) {
      nulls[i] = (bitmap[i / 8] >> (i % 8)) & 1;
      num_null += nulls[i];
    }
  }
  const Reader payload{block.bytes.data() + nbytes, block.bytes.size() - nbytes};
  Status st;
  switch (block.type) {
    case TypeId::kInt64:
      out->tag = ColumnVector::Tag::kInt64;
      st = DecodeValues(block, payload, nulls, num_null, int64_t{0}, &out->ints);
      break;
    case TypeId::kDouble:
      out->tag = ColumnVector::Tag::kDouble;
      st = DecodeValues(block, payload, nulls, num_null, 0.0, &out->dbls);
      break;
    case TypeId::kString:
      out->tag = ColumnVector::Tag::kDatum;
      st = DecodeValues(block, payload, nulls, num_null, Datum::Null(), &out->datums);
      break;
    default:
      st = Status::InvalidArgument("corrupt compressed block: unknown column type");
      break;
  }
  if (!st.ok()) {
    out->Clear();
    return st;
  }
  // Typed payloads flag NULLs in the mask; boxed datums carry their own.
  if (num_null > 0 && out->tag != ColumnVector::Tag::kDatum) out->nulls = std::move(nulls);
  return Status::OK();
}

StatusOr<std::vector<Datum>> DecompressColumn(const CompressedBlock& block) {
  ColumnVector col;
  GPHTAP_RETURN_IF_ERROR(DecompressInto(block, &col));
  if (col.tag == ColumnVector::Tag::kDatum) return std::move(col.datums);
  std::vector<Datum> out;
  out.reserve(col.size());
  for (size_t r = 0; r < col.size(); ++r) out.push_back(col.GetDatum(r));
  return out;
}

}  // namespace gphtap
