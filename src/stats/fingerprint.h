// Statement fingerprinting for cumulative query statistics (gp_stat_statements,
// modeled on pg_stat_statements' query normalization): a fingerprint is the
// statement with every literal replaced by a positional placeholder, rendered
// from the lexer's token stream so whitespace and identifier case differences
// collapse to one shape. `SELECT * FROM t WHERE id = 7` and
// `select  *  from T where ID=42` share a fingerprint, and a prepared
// statement's `$N` parameters land on the same shape as the literals they
// stand for — EXECUTE of a prepared statement is attributed to the prepared
// text, not to `execute name(...)`.
#ifndef GPHTAP_STATS_FINGERPRINT_H_
#define GPHTAP_STATS_FINGERPRINT_H_

#include <string>
#include <vector>

#include "sql/lexer.h"

namespace gphtap {

/// Normalizes one SQL statement to its fingerprint:
///   * int / float / string literals become `$1`, `$2`, ... in order of
///     appearance; existing `$N` parameters are renumbered into the same
///     sequence, so the literal and prepared forms of a statement collide;
///   * identifiers are lowercased (the lexer already does this), whitespace
///     runs collapse to single token separators, and a trailing `;` is
///     dropped;
///   * a statement of the form `PREPARE name AS <stmt>` fingerprints as
///     `<stmt>`'s fingerprint, so the PREPARE and its EXECUTEs aggregate onto
///     one row.
/// A statement the lexer rejects falls back to lowercased,
/// whitespace-collapsed raw text (still a stable key, just unnormalized).
std::string FingerprintSql(const std::string& sql);

/// FingerprintSql for a statement already lexed into `tokens` (Tokenize of
/// `sql`), so the SQL driver renders it from the parser's own lexer pass.
std::string FingerprintTokens(const std::string& sql, const std::vector<Token>& tokens);

}  // namespace gphtap

#endif  // GPHTAP_STATS_FINGERPRINT_H_
