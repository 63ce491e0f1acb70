// Runtime value representation. A Datum is NULL, an int64, a double, or a string.
#ifndef GPHTAP_CATALOG_DATUM_H_
#define GPHTAP_CATALOG_DATUM_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace gphtap {

enum class TypeId : uint8_t { kInt64 = 0, kDouble = 1, kString = 2 };

const char* TypeIdName(TypeId t);

/// A single SQL value. Monostate encodes NULL.
class Datum {
 public:
  Datum() : v_(std::monostate{}) {}
  explicit Datum(int64_t v) : v_(v) {}
  explicit Datum(double v) : v_(v) {}
  explicit Datum(std::string v) : v_(std::move(v)) {}

  static Datum Null() { return Datum(); }

  bool is_null() const { return std::holds_alternative<std::monostate>(v_); }
  bool is_int() const { return std::holds_alternative<int64_t>(v_); }
  bool is_double() const { return std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }

  int64_t int_val() const { return std::get<int64_t>(v_); }
  double double_val() const { return std::get<double>(v_); }
  const std::string& string_val() const { return std::get<std::string>(v_); }

  /// Numeric coercion: int or double as double. Callers must check !is_null().
  double AsDouble() const { return is_int() ? static_cast<double>(int_val()) : double_val(); }

  /// Hash for distribution-key routing (matches across equal values of the same type).
  uint64_t Hash() const;

  /// Hash() of a non-NULL int / double datum holding `v`, without boxing it.
  /// An integral double hashes like the equal int, so 1 and 1.0 co-hash.
  static uint64_t HashInt(int64_t v);
  static uint64_t HashDouble(double v);
  static constexpr uint64_t kNullHash = 0x5bd1e995;

  /// Three-way comparison for ORDER BY / predicates. NULLs sort last and equal to
  /// each other. Numeric types compare cross-type; strings compare lexicographically.
  int Compare(const Datum& other) const;

  bool operator==(const Datum& other) const { return Compare(other) == 0; }

  std::string ToString() const;

  /// Approximate in-memory footprint in bytes (for vmem accounting).
  size_t FootprintBytes() const {
    return is_string() ? 24 + string_val().size() : 16;
  }

 private:
  std::variant<std::monostate, int64_t, double, std::string> v_;
};

using Row = std::vector<Datum>;

/// Hash of a distribution key (one or more columns).
uint64_t HashRowKey(const Row& row, const std::vector<int>& key_cols);

std::string RowToString(const Row& row);

}  // namespace gphtap

#endif  // GPHTAP_CATALOG_DATUM_H_
