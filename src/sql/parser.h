// Recursive-descent parser for the supported SQL dialect (see README).
#ifndef GPHTAP_SQL_PARSER_H_
#define GPHTAP_SQL_PARSER_H_

#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "sql/lexer.h"

namespace gphtap {

/// Parses exactly one statement (a trailing ';' is allowed).
StatusOr<sql_ast::Statement> ParseStatement(const std::string& sql);
/// ParseStatement for a statement already lexed by Tokenize.
StatusOr<sql_ast::Statement> ParseTokens(std::vector<Token> tokens);

}  // namespace gphtap

#endif  // GPHTAP_SQL_PARSER_H_
