// Row text for engine-vs-engine comparisons. Doubles print with 17
// significant digits, enough to round-trip every double, so results that
// agree only in their first six digits (Datum::ToString's %g) read
// differently and a comparison of the texts is exact.
#ifndef GPHTAP_TESTS_COMMON_EXACT_ROW_TEXT_H_
#define GPHTAP_TESTS_COMMON_EXACT_ROW_TEXT_H_

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "catalog/datum.h"
#include "cluster/session.h"

namespace gphtap {

inline std::string RowText(const Row& row) {
  std::string s;
  for (const Datum& d : row) {
    if (d.is_double()) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", d.double_val());
      s += buf;
    } else {
      s += d.is_null() ? "NULL" : d.ToString();
    }
    s += "|";
  }
  return s;
}

inline std::vector<std::string> SortedRows(const QueryResult& r) {
  std::vector<std::string> out;
  for (const Row& row : r.rows) out.push_back(RowText(row));
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace gphtap

#endif  // GPHTAP_TESTS_COMMON_EXACT_ROW_TEXT_H_
