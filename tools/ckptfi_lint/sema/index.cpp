// The declaration indexer. One forward pass over the token stream with a
// scope stack: namespace/class scopes contribute to qualified names,
// function bodies collect call sites and lock events. A second pass matches
// the banned entropy/heap token shapes over the whole stream and attributes
// each hit to the body that contains it, or to file scope. Heuristics err
// toward over-collection — a call name that resolves to nothing creates no
// graph edge, so junk here is harmless, while a missed call is a hole in the
// taint walks.
#include "sema/index.hpp"

#include <algorithm>
#include <array>
#include <string_view>
#include <utility>

namespace ckptfi::lint::sema {

namespace {

bool is_ident(const Token& t, std::string_view text) {
  return t.kind == TokKind::Identifier && t.text == text;
}
bool is_punct(const Token& t, std::string_view text) {
  return t.kind == TokKind::Punct && t.text == text;
}

bool in_list(std::string_view needle, const std::vector<std::string_view>& v) {
  return std::find(v.begin(), v.end(), needle) != v.end();
}

/// Identifiers that look like calls but never are.
const std::vector<std::string_view>& not_a_call() {
  static const std::vector<std::string_view> k = {
      "if",        "for",        "while",    "switch",   "return",
      "sizeof",    "alignof",    "alignas",  "catch",    "assert",
      "static_assert",           "decltype", "noexcept", "throw",
      "delete",    "defined",    "typeid",   "co_return","co_await",
      "co_yield",  "int",        "char",     "bool",     "double",
      "float",     "unsigned",   "signed",   "long",     "short",
      "void",      "auto",       "EXPECT_TRUE",          "EXPECT_FALSE",
      "EXPECT_EQ", "EXPECT_NE",  "ASSERT_TRUE",          "ASSERT_EQ"};
  return k;
}

/// Identifier tokens that may legitimately precede a call expression — an
/// identifier before a call that is NOT one of these reads as a declaration
/// ("Foo bar(args)") and is skipped.
const std::vector<std::string_view>& call_context() {
  static const std::vector<std::string_view> k = {
      "return", "throw", "case",      "else",     "do",  "goto",
      "new",    "and",   "or",        "not",      "co_return",
      "co_await", "co_yield"};
  return k;
}

const std::vector<std::string_view>& entropy_always() {
  static const std::vector<std::string_view> k = {
      "random_device", "system_clock", "gettimeofday", "drand48",
      "lrand48",       "rand_r",       "srand",        "srand48"};
  return k;
}
const std::vector<std::string_view>& entropy_calls() {
  static const std::vector<std::string_view> k = {"rand", "time", "clock"};
  return k;
}
const std::vector<std::string_view>& alloc_calls() {
  static const std::vector<std::string_view> k = {
      "malloc", "calloc", "realloc", "free", "aligned_alloc",
      "make_unique", "make_shared"};
  return k;
}
const std::vector<std::string_view>& growth_calls() {
  static const std::vector<std::string_view> k = {
      "push_back", "emplace_back", "reserve", "assign", "insert", "emplace"};
  return k;
}
const std::vector<std::string_view>& lock_decl_types() {
  static const std::vector<std::string_view> k = {"lock_guard", "unique_lock",
                                                  "scoped_lock"};
  return k;
}
const std::vector<std::string_view>& lock_tag_args() {
  static const std::vector<std::string_view> k = {
      "adopt_lock", "defer_lock", "try_to_lock", "adopt_lock_t",
      "defer_lock_t", "try_to_lock_t"};
  return k;
}

std::size_t skip_template_args(const std::vector<Token>& toks,
                               std::size_t open) {
  int depth = 0;
  const std::size_t limit = std::min(toks.size(), open + 64);
  for (std::size_t i = open; i < limit; ++i) {
    if (is_punct(toks[i], "<")) ++depth;
    else if (is_punct(toks[i], ">")) {
      if (--depth == 0) return i + 1;
    } else if (is_punct(toks[i], ";") || is_punct(toks[i], "{") ||
               is_punct(toks[i], "}")) {
      break;
    }
  }
  return open;
}

std::size_t skip_parens(const std::vector<Token>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (is_punct(toks[i], "(")) ++depth;
    else if (is_punct(toks[i], ")") && --depth == 0) return i + 1;
  }
  return toks.size();
}

std::size_t skip_braces(const std::vector<Token>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (is_punct(toks[i], "{")) ++depth;
    else if (is_punct(toks[i], "}") && --depth == 0) return i + 1;
  }
  return toks.size();
}

/// Mark '{' tokens that open lambda bodies: "]" [(params)] [specs] "{".
/// Lock context resets inside them — a lambda body runs later, not under the
/// locks live at its capture site.
std::vector<char> mark_lambda_braces(const std::vector<Token>& toks) {
  const std::size_t n = toks.size();
  std::vector<char> lambda(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (!is_punct(toks[i], "]")) continue;
    std::size_t j = i + 1;
    if (j < n && is_punct(toks[j], "(")) j = skip_parens(toks, j);
    std::size_t guard = 0;
    while (j < n && guard++ < 24) {
      const Token& t = toks[j];
      if (is_punct(t, "{")) {
        lambda[j] = 1;
        break;
      }
      const bool benign =
          t.kind == TokKind::Identifier || is_punct(t, "->") ||
          is_punct(t, "::") || is_punct(t, "<") || is_punct(t, ">") ||
          is_punct(t, ",") || is_punct(t, "&") || is_punct(t, "*");
      if (!benign) break;
      ++j;
    }
  }
  return lambda;
}

/// Walk back from `pos` (an identifier) over "ident :: ident :: ..." and
/// return the first token index of the qualified name.
std::size_t name_start(const std::vector<Token>& toks, std::size_t pos) {
  std::size_t j = pos;
  while (j >= 2 && is_punct(toks[j - 1], "::") &&
         toks[j - 2].kind == TokKind::Identifier) {
    j -= 2;
  }
  return j;
}

std::string joined_name(const std::vector<Token>& toks, std::size_t start,
                        std::size_t end_incl) {
  std::string name;
  for (std::size_t k = start; k <= end_incl; ++k) {
    if (toks[k].kind == TokKind::Identifier) {
      if (!name.empty()) name += "::";
      name += toks[k].text;
    }
  }
  return name;
}

/// Record the det-rng-entropy or arena-kernel-heap shape at toks[i], if any,
/// attributed to function `owner` (-1: file scope).
void match_banned(const std::vector<Token>& toks, std::size_t i, int owner,
                  FileIndex& out) {
  const Token& t = toks[i];
  if (t.kind != TokKind::Identifier) return;
  const std::size_t n = toks.size();
  // Member calls are not the libc functions (foo.time(...),
  // pool.free(...)); the container growth calls are member calls.
  const bool member = i >= 1 && (is_punct(toks[i - 1], ".") ||
                                 is_punct(toks[i - 1], "->"));
  const bool call = i + 1 < n && is_punct(toks[i + 1], "(");
  const bool tmpl = i + 1 < n && is_punct(toks[i + 1], "<");
  if (in_list(t.text, entropy_always()) ||
      (call && !member && in_list(t.text, entropy_calls()))) {
    out.entropy_hits.push_back({t.text, t.line, owner});
  } else if (t.text == "new" ||
             (!member && (call || tmpl) && in_list(t.text, alloc_calls())) ||
             (member && call && in_list(t.text, growth_calls()))) {
    out.heap_hits.push_back({t.text, t.line, owner});
  } else if (t.text == "vector" && tmpl) {
    // A by-value std::vector declarator: "vector<...> name" then ; = ( {.
    const std::size_t after = skip_template_args(toks, i + 1);
    if (after != i + 1 && after + 1 < n &&
        toks[after].kind == TokKind::Identifier &&
        (is_punct(toks[after + 1], ";") || is_punct(toks[after + 1], "=") ||
         is_punct(toks[after + 1], "(") || is_punct(toks[after + 1], "{"))) {
      out.heap_hits.push_back({"std::vector", t.line, owner});
    }
  }
}

struct ScopeFrame {
  enum Kind { kNamespace, kClass, kBlock } kind = kBlock;
  std::string name;  ///< namespace/class component ("" for anonymous/blocks)
};

struct ActiveLock {
  int depth;
  std::string id;
  std::string var;  ///< the guard variable name, for .unlock() matching
};

}  // namespace

FileIndex build_index(const std::string& rel_path, const LexedFile& lexed) {
  const std::vector<Token>& toks = lexed.tokens;
  const std::size_t n = toks.size();
  FileIndex out;
  out.file = rel_path;

  // Quoted #include directives: '#' 'include' "path".
  for (std::size_t i = 0; i + 2 < n; ++i) {
    if (is_punct(toks[i], "#") && is_ident(toks[i + 1], "include") &&
        toks[i + 2].kind == TokKind::String) {
      out.includes.push_back(toks[i + 2].text);
    }
  }

  const std::vector<char> lambda_brace = mark_lambda_braces(toks);

  std::vector<ScopeFrame> scopes;  ///< one frame per open '{'
  FunctionDef* fn = nullptr;       ///< non-null while inside a function body
  std::size_t fn_scope_depth = 0;  ///< scopes.size() at the body '{'
  std::string fn_class;            ///< enclosing class component, for lock ids
  /// Token range ['{', '}'] of each function body, parallel to
  /// out.functions; bodies never nest, so the ranges are disjoint and sorted.
  std::vector<std::pair<std::size_t, std::size_t>> bodies;

  std::vector<ActiveLock> locks;
  struct LambdaFrame {
    std::size_t entry_depth;
    std::vector<ActiveLock> saved;
  };
  std::vector<LambdaFrame> lambda_frames;

  auto held_ids = [&]() {
    std::vector<std::string> ids;
    ids.reserve(locks.size());
    for (const ActiveLock& l : locks) ids.push_back(l.id);
    return ids;
  };

  // Canonical mutex id for the token range [b, e) of a lock ctor argument:
  // a bare member gets the enclosing class as qualifier (every class here
  // names its mutex mu_, so "mu_" alone would alias unrelated locks); a
  // dotted/arrow path keeps its final member name.
  auto mutex_id = [&](std::size_t b, std::size_t e) -> std::string {
    std::string last;
    bool qualified_access = false;
    for (std::size_t k = b; k < e; ++k) {
      if (toks[k].kind == TokKind::Identifier) {
        if (toks[k].text == "this") continue;
        last = toks[k].text;
      } else if (is_punct(toks[k], ".") ||
                 (is_punct(toks[k], "->") && !(k > b && is_ident(toks[k - 1], "this")))) {
        qualified_access = true;
      }
    }
    if (last.empty()) return last;
    if (in_list(last, lock_tag_args())) return "";
    if (!qualified_access && !fn_class.empty()) return fn_class + "::" + last;
    return last;
  };

  // Classify what an upcoming '{' opens when we are at namespace/class
  // scope; returns the token index to resume from.
  std::size_t i = 0;
  while (i < n) {
    const Token& t = toks[i];

    if (is_punct(t, "{")) {
      if (fn) {
        if (lambda_brace[i]) {
          lambda_frames.push_back({scopes.size(), std::move(locks)});
          locks.clear();
        }
      }
      scopes.push_back({ScopeFrame::kBlock, ""});
      ++i;
      continue;
    }
    if (is_punct(t, "}")) {
      if (!scopes.empty()) scopes.pop_back();
      if (fn) {
        while (!locks.empty() &&
               locks.back().depth > static_cast<int>(scopes.size()))
          locks.pop_back();
        if (!lambda_frames.empty() &&
            lambda_frames.back().entry_depth == scopes.size()) {
          locks = std::move(lambda_frames.back().saved);
          lambda_frames.pop_back();
        }
        if (scopes.size() < fn_scope_depth) {
          bodies.back().second = i;
          fn = nullptr;
          locks.clear();
          lambda_frames.clear();
        }
      }
      ++i;
      continue;
    }

    if (!fn) {
      // ---- namespace / class / function-definition recognition ----
      if (is_ident(t, "namespace")) {
        std::size_t j = i + 1;
        std::string name;
        while (j < n && (toks[j].kind == TokKind::Identifier ||
                         is_punct(toks[j], "::"))) {
          if (toks[j].kind == TokKind::Identifier) {
            if (!name.empty()) name += "::";
            name += toks[j].text;
          }
          ++j;
        }
        if (j < n && is_punct(toks[j], "{")) {
          scopes.push_back({ScopeFrame::kNamespace, name});
          i = j + 1;
          continue;
        }
        i = j;  // alias or ill-formed; fall through
        continue;
      }
      if ((is_ident(t, "class") || is_ident(t, "struct") ||
           is_ident(t, "union")) &&
          !(i >= 1 && is_ident(toks[i - 1], "enum"))) {
        std::size_t j = i + 1;
        std::string name;
        // first identifier after the keyword is the type name
        while (j < n && toks[j].kind == TokKind::Identifier) {
          name = toks[j].text;
          break;
        }
        // scan to the opening '{' or a ';' (forward declaration)
        while (j < n && !is_punct(toks[j], "{") && !is_punct(toks[j], ";") &&
               !is_punct(toks[j], "}"))
          ++j;
        if (j < n && is_punct(toks[j], "{")) {
          scopes.push_back({ScopeFrame::kClass, name});
          i = j + 1;
          continue;
        }
        i = j;
        continue;
      }
      if (is_ident(t, "enum")) {
        std::size_t j = i + 1;
        while (j < n && !is_punct(toks[j], "{") && !is_punct(toks[j], ";"))
          ++j;
        if (j < n && is_punct(toks[j], "{")) j = skip_braces(toks, j);
        i = j;
        continue;
      }

      // Function definition: [~]ident(::ident)* "(" ... ")" [specs] "{"
      // or "... ) : ctor-init {".
      if (t.kind == TokKind::Identifier && i + 1 < n &&
          is_punct(toks[i + 1], "(") && !in_list(t.text, not_a_call())) {
        const std::size_t start = name_start(toks, i);
        const bool dtor = start >= 1 && is_punct(toks[start - 1], "~");
        const std::size_t close = skip_parens(toks, i + 1);
        // walk over trailing specifiers to find '{', ';' or ':'
        std::size_t j = close;
        std::size_t body = 0;
        std::size_t guard = 0;
        while (j < n && guard++ < 64) {
          const Token& s = toks[j];
          if (is_punct(s, "{")) {
            body = j;
            break;
          }
          if (is_punct(s, ";") || is_punct(s, "}") || is_punct(s, "=")) break;
          if (is_punct(s, ":")) {
            // ctor init list: body '{' follows ')' or '}' ; an initializer
            // '{' follows an identifier or '>'.
            std::size_t k = j + 1;
            std::size_t g2 = 0;
            while (k < n && g2++ < 512) {
              if (is_punct(toks[k], "(")) {
                k = skip_parens(toks, k);
                continue;
              }
              if (is_punct(toks[k], "{")) {
                const Token& prev = toks[k - 1];
                if (is_punct(prev, ")") || is_punct(prev, "}")) {
                  body = k;
                  break;
                }
                k = skip_braces(toks, k);
                continue;
              }
              if (is_punct(toks[k], ";")) break;
              ++k;
            }
            break;
          }
          if (s.kind == TokKind::Identifier || is_punct(s, "::") ||
              is_punct(s, "<") || is_punct(s, ">") || is_punct(s, "&") ||
              is_punct(s, "*") || is_punct(s, "->") || is_punct(s, ",") ||
              is_punct(s, "[") || is_punct(s, "]")) {
            ++j;
            continue;
          }
          if (is_punct(s, "(")) {
            j = skip_parens(toks, j);  // noexcept(...), attributes
            continue;
          }
          break;
        }
        if (body != 0) {
          std::string written = joined_name(toks, start, i);
          if (dtor) written = "~" + written;
          std::string qual;
          for (const ScopeFrame& sf : scopes) {
            if (sf.kind == ScopeFrame::kBlock || sf.name.empty()) continue;
            if (!qual.empty()) qual += "::";
            qual += sf.name;
          }
          FunctionDef def;
          def.qualified_name = qual.empty() ? written : qual + "::" + written;
          def.line = t.line;
          out.functions.push_back(std::move(def));
          fn = &out.functions.back();
          bodies.emplace_back(body, n);
          // enclosing class component: explicit qualifier on the written
          // name wins, else the innermost class scope.
          fn_class.clear();
          const auto last_sep = written.rfind("::");
          if (last_sep != std::string::npos) {
            const auto prev_sep = written.rfind("::", last_sep - 1);
            fn_class = written.substr(
                prev_sep == std::string::npos ? 0 : prev_sep + 2,
                last_sep - (prev_sep == std::string::npos ? 0 : prev_sep + 2));
          } else {
            for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
              if (it->kind == ScopeFrame::kClass) {
                fn_class = it->name;
                break;
              }
            }
          }
          locks.clear();
          lambda_frames.clear();
          scopes.push_back({ScopeFrame::kBlock, ""});
          fn_scope_depth = scopes.size();
          i = body + 1;
          continue;
        }
        i = close;
        continue;
      }
      ++i;
      continue;
    }

    // ---- inside a function body ----
    if (t.kind != TokKind::Identifier) {
      ++i;
      continue;
    }

    // Lock declarations: lock_guard/unique_lock/scoped_lock [<...>] var (args)
    if (in_list(t.text, lock_decl_types())) {
      std::size_t j = i + 1;
      if (j < n && is_punct(toks[j], "<")) j = skip_template_args(toks, j);
      if (j < n && toks[j].kind == TokKind::Identifier && j + 1 < n &&
          (is_punct(toks[j + 1], "(") || is_punct(toks[j + 1], "{"))) {
        const std::string var = toks[j].text;
        const int line = toks[j].line;
        // split ctor args on top-level commas
        std::size_t b = j + 2;
        const std::size_t close =
            is_punct(toks[j + 1], "(") ? skip_parens(toks, j + 1) - 1
                                       : skip_braces(toks, j + 1) - 1;
        int depth = 0;
        std::size_t arg_begin = b;
        for (std::size_t k = b; k <= close && k < n; ++k) {
          if (is_punct(toks[k], "(") || is_punct(toks[k], "<")) ++depth;
          else if (is_punct(toks[k], ")") || is_punct(toks[k], ">")) --depth;
          if ((k == close) || (depth == 0 && is_punct(toks[k], ","))) {
            const std::size_t arg_end = (k == close) ? k : k;
            const std::string id = mutex_id(arg_begin, arg_end);
            if (!id.empty()) {
              fn->locks.push_back({id, line, held_ids()});
              locks.push_back(
                  {static_cast<int>(scopes.size()), id, var});
            }
            arg_begin = k + 1;
          }
        }
        i = close + 1;
        continue;
      }
      ++i;
      continue;
    }

    const bool member_recv = i >= 1 && (is_punct(toks[i - 1], ".") ||
                                        is_punct(toks[i - 1], "->"));

    // Explicit mutex lock/unlock.
    if (t.text == "lock" && member_recv && i + 1 < n &&
        is_punct(toks[i + 1], "(")) {
      const std::size_t recv = name_start(toks, i >= 2 ? i - 2 : 0);
      const std::string id = mutex_id(recv, i - 1);
      if (!id.empty()) {
        fn->locks.push_back({id, t.line, held_ids()});
        locks.push_back({static_cast<int>(scopes.size()), id,
                         i >= 2 && toks[i - 2].kind == TokKind::Identifier
                             ? toks[i - 2].text
                             : ""});
      }
      i += 2;
      continue;
    }
    if (t.text == "unlock" && member_recv) {
      const std::string var =
          i >= 2 && toks[i - 2].kind == TokKind::Identifier ? toks[i - 2].text
                                                            : "";
      auto it = std::find_if(locks.rbegin(), locks.rend(),
                             [&](const ActiveLock& l) { return l.var == var; });
      if (it != locks.rend()) locks.erase(std::next(it).base());
      else if (!locks.empty()) locks.pop_back();
      ++i;
      continue;
    }

    // Call sites: ident "(" or ident "<tmpl>" "(".
    std::size_t args = 0;
    if (i + 1 < n && is_punct(toks[i + 1], "(")) {
      args = i + 1;
    } else if (i + 1 < n && is_punct(toks[i + 1], "<")) {
      const std::size_t after = skip_template_args(toks, i + 1);
      if (after != i + 1 && after < n && is_punct(toks[after], "(")) args = after;
    }
    if (args != 0 && !in_list(t.text, not_a_call()) && t.text != "operator" &&
        t.text != "new") {
      const std::size_t start = member_recv ? i : name_start(toks, i);
      bool is_call = true;
      if (start >= 1) {
        const Token& prev =
            toks[start - 1].kind == TokKind::Punct &&
                    toks[start - 1].text == "::" && start >= 2
                ? toks[start - 2]  // leading "::" — treat its prev
                : toks[start - 1];
        if (prev.kind == TokKind::Identifier &&
            !in_list(prev.text, call_context()) && !member_recv) {
          is_call = false;  // "Type name(args)" declaration shape
        }
        if (prev.kind == TokKind::Punct &&
            (prev.text == ">" || prev.text == "~") && !member_recv) {
          is_call = false;  // "vector<int> name(...)" / destructor header
        }
      }
      if (is_call) {
        fn->calls.push_back(
            {member_recv ? t.text : joined_name(toks, start, i), t.line,
             held_ids()});
      }
    }
    ++i;
  }

  // Banned token shapes over the whole stream, so namespace-scope tokens,
  // class members and parameter lists are seen too.
  std::size_t b = 0;
  for (std::size_t k = 0; k < n; ++k) {
    while (b < bodies.size() && bodies[b].second < k) ++b;
    const bool in_body = b < bodies.size() && bodies[b].first < k;
    match_banned(toks, k, in_body ? static_cast<int>(b) : -1, out);
  }
  return out;
}

}  // namespace ckptfi::lint::sema
