#include "lexer.hpp"

#include <cctype>

namespace ckptfi::lint {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())))
    s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())))
    s.remove_suffix(1);
  return s;
}

/// Parse a directive out of a comment body. A comment is a directive only
/// when it opens with the marker `ckptfi-lint:` followed by `allow(`; prose
/// that mentions or quotes the syntax anywhere else is ignored. An allow
/// with an empty rule list or no reason yields a directive the engine
/// reports as malformed.
void parse_directive(std::string_view comment, int line,
                     std::vector<Suppression>& out) {
  constexpr std::string_view kMarker = "ckptfi-lint:";
  std::string_view rest = trim(comment);
  if (rest.substr(0, kMarker.size()) != kMarker) return;
  rest = trim(rest.substr(kMarker.size()));
  if (rest.rfind("allow(", 0) != 0) return;
  Suppression sup;
  sup.line = line;
  {
    std::string_view inside = rest.substr(6);
    const auto close = inside.find(')');
    if (close != std::string_view::npos) {
      std::string_view list = inside.substr(0, close);
      while (!list.empty()) {
        const auto comma = list.find(',');
        std::string_view one = trim(list.substr(0, comma));
        if (!one.empty()) sup.rules.emplace_back(one);
        if (comma == std::string_view::npos) break;
        list.remove_prefix(comma + 1);
      }
      sup.reason = std::string(trim(inside.substr(close + 1)));
    }
  }
  out.push_back(std::move(sup));
}

}  // namespace

LexedFile lex(std::string_view src) {
  LexedFile out;
  std::size_t i = 0;
  const std::size_t n = src.size();
  int line = 1;

  auto advance_line = [&](char c) {
    if (c == '\n') ++line;
  };

  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      const std::size_t start = i + 2;
      while (i < n && src[i] != '\n') ++i;
      parse_directive(src.substr(start, i - start), line, out.suppressions);
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      const std::size_t start = i + 2;
      const int start_line = line;
      i += 2;
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
        advance_line(src[i]);
        ++i;
      }
      const std::size_t end = (i + 1 < n) ? i : n;
      parse_directive(src.substr(start, end - start), start_line,
                      out.suppressions);
      i = (i + 1 < n) ? i + 2 : n;
      continue;
    }
    // Identifier / keyword — and the R"(...)"-style raw string glued to an
    // encoding prefix (R, u8R, uR, UR, LR).
    if (ident_start(c)) {
      const std::size_t start = i;
      while (i < n && ident_char(src[i])) ++i;
      std::string_view word = src.substr(start, i - start);
      if (i < n && src[i] == '"' && !word.empty() && word.back() == 'R' &&
          word.size() <= 3) {
        // Raw string: R"delim( ... )delim".
        ++i;  // consume the quote
        std::size_t dstart = i;
        while (i < n && src[i] != '(') ++i;
        const std::string delim(src.substr(dstart, i - dstart));
        const std::string closer = ")" + delim + "\"";
        if (i < n) ++i;  // consume '('
        const std::size_t body = i;
        const auto close = src.find(closer, i);
        const std::size_t body_end = close == std::string_view::npos
                                         ? n
                                         : close;
        for (std::size_t k = body; k < body_end; ++k) advance_line(src[k]);
        out.tokens.push_back({TokKind::String,
                              std::string(src.substr(body, body_end - body)),
                              line});
        i = close == std::string_view::npos ? n : close + closer.size();
        continue;
      }
      out.tokens.push_back({TokKind::Identifier, std::string(word), line});
      continue;
    }
    // Number (handles digit separators and exponents; precision of the
    // grammar does not matter to any rule).
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(src[i + 1])))) {
      const std::size_t start = i;
      while (i < n) {
        const char d = src[i];
        if (ident_char(d) || d == '.' || d == '\'') {
          ++i;
        } else if ((d == '+' || d == '-') && i > start &&
                   (src[i - 1] == 'e' || src[i - 1] == 'E' ||
                    src[i - 1] == 'p' || src[i - 1] == 'P')) {
          ++i;
        } else {
          break;
        }
      }
      out.tokens.push_back(
          {TokKind::Number, std::string(src.substr(start, i - start)), line});
      continue;
    }
    // String literal.
    if (c == '"') {
      ++i;
      const std::size_t start = i;
      while (i < n && src[i] != '"') {
        if (src[i] == '\\' && i + 1 < n) ++i;
        advance_line(src[i]);
        ++i;
      }
      out.tokens.push_back(
          {TokKind::String, std::string(src.substr(start, i - start)), line});
      if (i < n) ++i;
      continue;
    }
    // Char literal.
    if (c == '\'') {
      ++i;
      const std::size_t start = i;
      while (i < n && src[i] != '\'') {
        if (src[i] == '\\' && i + 1 < n) ++i;
        ++i;
      }
      out.tokens.push_back(
          {TokKind::CharLit, std::string(src.substr(start, i - start)), line});
      if (i < n) ++i;
      continue;
    }
    // Multi-char operators the rules need as single tokens.
    if (c == ':' && i + 1 < n && src[i + 1] == ':') {
      out.tokens.push_back({TokKind::Punct, "::", line});
      i += 2;
      continue;
    }
    if (c == '-' && i + 1 < n && src[i + 1] == '>') {
      out.tokens.push_back({TokKind::Punct, "->", line});
      i += 2;
      continue;
    }
    out.tokens.push_back({TokKind::Punct, std::string(1, c), line});
    ++i;
  }
  return out;
}

}  // namespace ckptfi::lint
