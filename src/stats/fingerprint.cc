#include "stats/fingerprint.h"

#include <cctype>

#include "sql/lexer.h"

namespace gphtap {

namespace {

// Lowercased, whitespace-collapsed raw text — the fallback key for statements
// the lexer rejects (still stable, just not literal-normalized).
std::string CollapsedRaw(const std::string& sql) {
  std::string out;
  out.reserve(sql.size());
  bool pending_space = false;
  for (char c : sql) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      pending_space = !out.empty();
      continue;
    }
    if (pending_space) {
      out.push_back(' ');
      pending_space = false;
    }
    out.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  while (!out.empty() && out.back() == ';') out.pop_back();
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

bool NoSpaceBefore(const Token& t) {
  return t.IsSymbol(",") || t.IsSymbol(")") || t.IsSymbol(";") ||
         t.IsSymbol(".") || t.IsSymbol("(");
}

bool NoSpaceAfter(const Token& t) {
  return t.IsSymbol("(") || t.IsSymbol(".");
}

}  // namespace

std::string FingerprintSql(const std::string& sql) {
  auto tokens_or = Tokenize(sql);
  if (!tokens_or.ok()) return CollapsedRaw(sql);
  return FingerprintTokens(sql, *tokens_or);
}

std::string FingerprintTokens(const std::string& sql, const std::vector<Token>& tokens) {
  // `PREPARE name AS <stmt>` fingerprints as <stmt>, so the PREPARE statement
  // and its EXECUTEs (attributed via the stored fingerprint) share one row.
  size_t begin = 0;
  if (!tokens.empty() && tokens[0].IsWord("prepare")) {
    for (size_t i = 1; i < tokens.size(); ++i) {
      if (tokens[i].Is(TokenType::kEnd)) break;
      if (tokens[i].IsWord("as")) {
        begin = i + 1;
        break;
      }
    }
  }

  std::string out;
  out.reserve(sql.size());
  int next_placeholder = 1;
  bool suppress_space = true;  // no leading space
  for (size_t i = begin; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (t.Is(TokenType::kEnd)) break;
    // Trailing `;` (possibly followed only by kEnd) is dropped so `...;` and
    // `...` collide; an interior `;` separating statements is kept.
    if (t.IsSymbol(";")) {
      bool trailing = true;
      for (size_t j = i + 1; j < tokens.size(); ++j) {
        if (!tokens[j].Is(TokenType::kEnd)) {
          trailing = false;
          break;
        }
      }
      if (trailing) break;
    }

    std::string piece;
    switch (t.type) {
      case TokenType::kInt:
      case TokenType::kFloat:
      case TokenType::kString:
      case TokenType::kParam:
        // Literals and $N params share one renumbered placeholder sequence so
        // the literal and prepared forms of a statement collide.
        piece = "$" + std::to_string(next_placeholder++);
        break;
      default:
        piece = t.text;  // idents already lowercased by the lexer
        break;
    }

    if (!suppress_space && !NoSpaceBefore(t)) out.push_back(' ');
    out += piece;
    suppress_space = NoSpaceAfter(t);
  }
  if (out.empty()) return CollapsedRaw(sql);
  return out;
}

}  // namespace gphtap
