#include "catalog/datum.h"

#include <cmath>
#include <cstdio>

namespace gphtap {

const char* TypeIdName(TypeId t) {
  switch (t) {
    case TypeId::kInt64:
      return "INT";
    case TypeId::kDouble:
      return "DOUBLE";
    case TypeId::kString:
      return "TEXT";
  }
  return "?";
}

namespace {

uint64_t Fmix64(uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 33;
  return k;
}

uint64_t HashBytes(const void* data, size_t n, uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed ^ (n * 0x9e3779b97f4a7c15ULL);
  while (n >= 8) {
    uint64_t k;
    __builtin_memcpy(&k, p, 8);
    h = Fmix64(h ^ k);
    p += 8;
    n -= 8;
  }
  uint64_t k = 0;
  for (size_t i = 0; i < n; ++i) k |= static_cast<uint64_t>(p[i]) << (8 * i);
  return Fmix64(h ^ k);
}

}  // namespace

uint64_t Datum::HashInt(int64_t v) { return Fmix64(static_cast<uint64_t>(v)); }

uint64_t Datum::HashDouble(double d) {
  // Hash integral doubles the same as the equal int64 so cross-type equality
  // keys co-hash.
  if (std::floor(d) == d && std::abs(d) < 9.2e18) {
    return HashInt(static_cast<int64_t>(d));
  }
  uint64_t bits;
  __builtin_memcpy(&bits, &d, 8);
  return Fmix64(bits);
}

uint64_t Datum::Hash() const {
  if (is_null()) return kNullHash;
  if (is_int()) return HashInt(int_val());
  if (is_double()) return HashDouble(double_val());
  const std::string& s = string_val();
  return HashBytes(s.data(), s.size(), 0xc2b2ae3d27d4eb4fULL);
}

int Datum::Compare(const Datum& other) const {
  if (is_null() && other.is_null()) return 0;
  if (is_null()) return 1;   // NULLs last
  if (other.is_null()) return -1;
  if (is_string() || other.is_string()) {
    // String vs non-string: compare type tags; string vs string: lexicographic.
    if (is_string() && other.is_string()) {
      int c = string_val().compare(other.string_val());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    return is_string() ? 1 : -1;
  }
  if (is_int() && other.is_int()) {
    int64_t a = int_val(), b = other.int_val();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  double a = AsDouble(), b = other.AsDouble();
  return a < b ? -1 : (a > b ? 1 : 0);
}

std::string Datum::ToString() const {
  if (is_null()) return "NULL";
  if (is_int()) return std::to_string(int_val());
  if (is_double()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", double_val());
    return buf;
  }
  return string_val();
}

uint64_t HashRowKey(const Row& row, const std::vector<int>& key_cols) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (int c : key_cols) {
    h = h * 1099511628211ULL ^ row[static_cast<size_t>(c)].Hash();
  }
  return h;
}

std::string RowToString(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i) out += ", ";
    out += row[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace gphtap
