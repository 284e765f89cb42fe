// Lightweight C++ tokenizer for ckptfi-lint.
//
// The token rules (rules.cpp) and the sema index (sema/index.cpp) work on
// token streams, not ASTs: every invariant the tool enforces is visible at
// token level (banned identifiers, declaration shapes, scope nesting), which
// keeps it free of a libclang dependency and fast enough to gate every CI
// run. The lexer understands just enough C++ to never misread program text:
// line and block comments, string/char literals (including raw strings and
// digit separators), and multi-char operators the rules care about (`::`,
// `->`).
//
// Comments are not emitted as tokens; the only thing the engine wants from
// them is suppression directives — comments that open with
// `ckptfi-lint: allow(<rule>) <reason>` — which the lexer parses into
// LexedFile::suppressions as it goes.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace ckptfi::lint {

enum class TokKind {
  Identifier,  ///< identifiers and keywords (the lexer does not distinguish)
  Number,
  String,      ///< string literal, text without quotes/prefix
  CharLit,
  Punct,       ///< single-char punctuation, plus "::" and "->"
};

struct Token {
  TokKind kind;
  std::string text;
  int line = 1;
};

/// One allow(...) directive: a comment opening with the marker. A directive
/// suppresses matching findings on its own line and on the line directly
/// below it (so it can ride at end-of-line or on the line above).
struct Suppression {
  std::vector<std::string> rules;  ///< rule ids listed inside allow(...)
  std::string reason;              ///< trailing free text; must be non-empty
  int line = 1;
};

struct LexedFile {
  std::vector<Token> tokens;
  std::vector<Suppression> suppressions;
};

LexedFile lex(std::string_view src);

}  // namespace ckptfi::lint
