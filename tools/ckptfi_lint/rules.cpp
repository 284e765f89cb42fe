// The token rules: path-scoped patterns over one file's token stream, each
// tied to a project invariant (docs/LINT.md records the motivating incident
// for each). The rules that need scopes, held locks or the call graph —
// det-rng-entropy, arena-kernel-heap, conc-notify-under-lock and
// conc-lock-order — live in sema/index_rules.cpp; all of them are registered
// here so --list-rules and the SARIF rule list describe the full set.
//
// Which rules apply to a file depends on where it lives (scopes.hpp):
//   - determinism rules: the deterministic modules — the code whose outputs
//     EXPERIMENTS.md numbers are built from, plus the fleet's transport and
//     processes, whose sharded rows must be byte-identical to a
//     single-process run. src/util (hosts the seeded RNG itself) and src/obs
//     (diagnostics may read wall clocks) are exempt.
//   - concurrency rules: everywhere.
//   - arena + simd lane-order rules: the kernel hot-path files, whose
//     scratch must come from the Workspace arena and whose reductions must
//     use the documented fixed lane fold (never horizontal-add intrinsics).
//   - obs conventions: bench/bench_*.cpp harnesses.
#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "analysis.hpp"
#include "lexer.hpp"
#include "lint.hpp"
#include "scopes.hpp"
#include "sema/index.hpp"

namespace ckptfi::lint {

namespace {

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool contains(std::string_view s, std::string_view needle) {
  return s.find(needle) != std::string_view::npos;
}

std::string_view basename_of(std::string_view path) {
  const auto slash = path.rfind('/');
  return slash == std::string_view::npos ? path : path.substr(slash + 1);
}

// Path scoping (deterministic modules, kernel hot paths) comes from the
// shared tables in scopes.hpp — the same data --list-scopes dumps and
// docs/LINT.md documents.

bool is_bench_harness(std::string_view path) {
  if (!starts_with(path, "bench/")) return false;
  const std::string_view base = basename_of(path);
  return starts_with(base, "bench_") && base.size() > 4 &&
         base.substr(base.size() - 4) == ".cpp";
}

bool is_ident(const Token& t, std::string_view text) {
  return t.kind == TokKind::Identifier && t.text == text;
}
bool is_punct(const Token& t, std::string_view text) {
  return t.kind == TokKind::Punct && t.text == text;
}

// ---------------------------------------------------------------- rules --

constexpr char kDetRng[] = "det-rng-entropy";
constexpr char kDetUnseededMt[] = "det-rng-unseeded-mt19937";
constexpr char kDetUnordered[] = "det-unordered-container";
constexpr char kNotifyUnderLock[] = "conc-notify-under-lock";
constexpr char kAtomicFloat[] = "conc-atomic-float";
constexpr char kArenaHeap[] = "arena-kernel-heap";
constexpr char kBenchObs[] = "obs-bench-conventions";
constexpr char kPrefixMutation[] = "det-prefix-cache-mutation";
constexpr char kSimdLaneOrder[] = "det-simd-lane-order";
constexpr char kAllowReason[] = "lint-allow-needs-reason";
constexpr char kLockOrder[] = "conc-lock-order";

/// det-rng-unseeded-mt19937: a default-constructed std::mt19937 in a
/// deterministic module. The default stream is identical for every trial —
/// which silently decorrelates nothing — and the usual "fix" is seeding from
/// random_device, which breaks replay. Seeds must come from the trial
/// stream, explicitly.
void check_unseeded_mt19937(const std::vector<Token>& toks,
                            std::vector<RawFinding>& out) {
  const std::size_t n = toks.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (!is_ident(toks[i], "mt19937") && !is_ident(toks[i], "mt19937_64"))
      continue;
    // Declarator: "mt19937[_64] name ;" or "mt19937[_64] name { }" — any
    // parenthesised or non-empty braced initialiser counts as seeded (the
    // seed's provenance is det-rng-entropy's business).
    if (i + 1 >= n || toks[i + 1].kind != TokKind::Identifier) continue;
    const std::string& var = toks[i + 1].text;
    const std::size_t after = i + 2;
    const bool plain_decl = after < n && is_punct(toks[after], ";");
    const bool empty_brace = after + 1 < n && is_punct(toks[after], "{") &&
                             is_punct(toks[after + 1], "}");
    if (plain_decl || empty_brace) {
      out.push_back({kDetUnseededMt, toks[i].line,
                     "std::" + toks[i].text + " '" + var +
                         "' is default-constructed: every trial draws the "
                         "same documented stream; seed it from "
                         "core::trial_seed(campaign, index)"});
    }
  }
}

/// det-unordered-container: hash containers have unspecified iteration
/// order, which leaks into any loop that touches one.
void check_unordered(const std::vector<Token>& toks,
                     std::vector<RawFinding>& out) {
  for (const Token& t : toks) {
    if (t.kind != TokKind::Identifier) continue;
    if (t.text == "unordered_map" || t.text == "unordered_set" ||
        t.text == "unordered_multimap" || t.text == "unordered_multiset") {
      out.push_back({kDetUnordered, t.line,
                     "std::" + t.text +
                         " iterates in unspecified order inside a "
                         "deterministic module"});
    }
  }
}

/// conc-atomic-float: atomic<float|double> accumulation is order-dependent
/// (FP addition does not commute across threads), so results depend on
/// scheduling.
void check_atomic_float(const std::vector<Token>& toks,
                        std::vector<RawFinding>& out) {
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!is_ident(toks[i], "atomic") || !is_punct(toks[i + 1], "<")) continue;
    const Token& a = toks[i + 2];
    const bool long_double = is_ident(a, "long") && i + 3 < toks.size() &&
                             is_ident(toks[i + 3], "double");
    if (is_ident(a, "float") || is_ident(a, "double") || long_double) {
      out.push_back({kAtomicFloat, toks[i].line,
                     "std::atomic<" + std::string(long_double ? "long double"
                                                              : a.text) +
                         ">: cross-thread FP accumulation is "
                         "scheduling-order dependent"});
    }
  }
}

/// det-prefix-cache-mutation: PrefixCache entries are shared immutable
/// snapshots — one cached upstream forward serves every trial in a layer
/// group, possibly concurrently. Writing through one (const_cast, or binding
/// get_or_build's result to a mutable reference) poisons every later trial
/// that hits the same key: results silently stop matching the full-recompute
/// path and the prefix-on ≡ prefix-off ctest contract breaks. Only checked
/// in files that actually touch the cache types; the cache's own
/// implementation (src/core/prefix_cache.cpp) legitimately builds entries
/// in place before publishing them.
void check_prefix_cache_mutation(const std::vector<Token>& toks,
                                 std::vector<RawFinding>& out) {
  bool touches_cache = false;
  for (const Token& t : toks) {
    if (t.kind == TokKind::Identifier &&
        (t.text == "PrefixCache" || t.text == "PrefixEntryData" ||
         t.text == "get_or_build")) {
      touches_cache = true;
      break;
    }
  }
  if (!touches_cache) return;

  const std::size_t n = toks.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::Identifier) continue;
    if (t.text == "const_cast") {
      out.push_back({kPrefixMutation, t.line,
                     "const_cast in a prefix-cache consumer: cached entries "
                     "are shared across trials and must stay immutable"});
      continue;
    }
    // "auto & name = ... get_or_build (": a mutable binding to the shared
    // entry. `const auto&` and by-value copies are fine.
    if (t.text == "auto" && i + 3 < n && is_punct(toks[i + 1], "&") &&
        toks[i + 2].kind == TokKind::Identifier &&
        is_punct(toks[i + 3], "=") &&
        !(i >= 1 && is_ident(toks[i - 1], "const"))) {
      const std::size_t limit = std::min(n, i + 16);
      for (std::size_t j = i + 4; j < limit; ++j) {
        if (is_punct(toks[j], ";")) break;
        if (is_ident(toks[j], "get_or_build")) {
          out.push_back(
              {kPrefixMutation, t.line,
               "mutable reference '" + toks[i + 2].text +
                   "' binds a shared prefix-cache entry; take const auto&"});
          break;
        }
      }
    }
  }
}

/// det-simd-lane-order: across-lane horizontal-reduce intrinsics in the
/// kernel hot paths. _mm256_hadd_pd and friends fold adjacent lanes in an
/// ISA-defined order that differs from the documented lane tree
/// ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)), so a kernel using them would pass
/// ulp-tolerance tests yet silently break the simd tier's scalar ≡ vector
/// bitwise contract (docs/KERNELS.md) — the exact drift the one-time golden
/// re-pin was priced for. Lane accumulators must be stored out and folded
/// with explicit scalar adds.
void check_simd_lane_order(const std::vector<Token>& toks,
                           std::vector<RawFinding>& out) {
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::Identifier || !is_punct(toks[i + 1], "(")) continue;
    const std::string_view name = t.text;
    const bool x86_hadd = starts_with(name, "_mm") && contains(name, "_hadd_");
    const bool avx512_reduce = starts_with(name, "_mm512_reduce_add_");
    const bool neon_across = starts_with(name, "vaddv") ||
                             starts_with(name, "vpadd");
    if (x86_hadd || avx512_reduce || neon_across) {
      out.push_back({kSimdLaneOrder, t.line,
                     "'" + t.text +
                         "' folds vector lanes in ISA-defined order; keep "
                         "the documented fixed lane tree fold so scalar and "
                         "vector stay bitwise-identical"});
    }
  }
}

/// obs-bench-conventions: every bench harness stamps a run_start event (so
/// metrics/trace artifacts record what produced them) and supports
/// --json-out snapshots.
void check_bench_conventions(const std::vector<Token>& toks,
                             std::vector<RawFinding>& out) {
  bool stamps_run_start = false;
  bool supports_json_out = false;
  for (const Token& t : toks) {
    if (t.kind == TokKind::Identifier &&
        (t.text == "print_banner" || t.text == "emit_run_start" ||
         t.text == "run_main")) {
      // The shared helpers (bench/common.hpp, bench/micro_common.hpp) both
      // stamp run_start on the bench's behalf.
      stamps_run_start = true;
    }
    if (t.kind == TokKind::String) {
      if (contains(t.text, "run_start")) stamps_run_start = true;
      if (contains(t.text, "json-out") || t.text == "bench/common.hpp" ||
          t.text == "bench/micro_common.hpp")
        supports_json_out = true;
    }
  }
  if (!stamps_run_start) {
    out.push_back({kBenchObs, 1,
                   "bench never stamps a run_start event; call "
                   "bench::print_banner or obs::emit_event(\"run_start\", ...) "
                   "so artifacts record their producer"});
  }
  if (!supports_json_out) {
    out.push_back({kBenchObs, 1,
                   "bench does not support --json-out metrics snapshots; "
                   "parse it (bench/common.hpp does this for you)"});
  }
}

}  // namespace

const std::vector<RuleInfo>& rules() {
  static const std::vector<RuleInfo> kRules = {
      {kDetRng,
       "No process-state entropy (rand, std::random_device, time(), wall "
       "clock) in deterministic modules, directly or through helpers",
       "draw from util/rng.hpp (splitmix64/xoshiro) seeded via "
       "core::trial_seed(campaign, index); a helper that never feeds row "
       "bytes belongs behind the obs:: observation-only boundary"},
      {kDetUnseededMt,
       "No default-constructed std::mt19937/mt19937_64 in deterministic "
       "modules",
       "seed explicitly from the trial stream: "
       "std::mt19937 gen(core::trial_seed(campaign, index))"},
      {kDetUnordered,
       "No std::unordered_{map,set} in deterministic modules",
       "use std::map/std::set (ordered iteration) or a sorted vector"},
      {kNotifyUnderLock,
       "No condition_variable notify while a scope lock is live",
       "close or unlock the lock scope before notifying (see "
       "ThreadPool::parallel_for for the house pattern)"},
      {kAtomicFloat,
       "No std::atomic<float|double>",
       "accumulate per-thread partials and reduce in a fixed (ascending) "
       "order, or use an integer atomic"},
      {kArenaHeap,
       "No heap allocation in kernel hot paths outside the Workspace arena, "
       "directly or through helpers",
       "take scratch from Workspace::tls() under a Workspace::Scope, in "
       "helpers too, or pass the caller's arena span down (docs/KERNELS.md)"},
      {kBenchObs,
       "Bench harnesses stamp run_start and support --json-out",
       "route options through bench::BenchOptions::parse and call "
       "bench::print_banner"},
      {kPrefixMutation,
       "No mutation of shared PrefixCache entries (const_cast or mutable "
       "reference bindings of get_or_build results)",
       "treat cached prefixes as immutable snapshots: hold them as "
       "std::shared_ptr<const PrefixEntryData> / const auto&"},
      {kSimdLaneOrder,
       "No across-lane horizontal-reduce intrinsics (_mm*_hadd_*, "
       "_mm512_reduce_add_*, vaddv*/vpadd*) in kernel hot paths",
       "store the lane accumulators and fold them with the documented "
       "fixed tree: ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)) (docs/KERNELS.md)"},
      {kAllowReason,
       "Every ckptfi-lint suppression names registered rules and carries a "
       "reason",
       "write '// ckptfi-lint: allow(<rule>) <why this is safe here>' as the "
       "comment's opening text"},
      {kLockOrder,
       "No two call chains acquire the same pair of mutexes in opposite "
       "orders (interprocedural ABBA deadlock)",
       "pick one acquisition order per mutex pair and make every chain "
       "follow it, or collapse to std::scoped_lock(a, b) at a single site"},
  };
  return kRules;
}

const RuleInfo* rule_info(const std::string& id) {
  for (const RuleInfo& r : rules()) {
    if (r.id == id) return &r;
  }
  return nullptr;
}

FileArtifact analyze_file(const std::string& rel_path,
                          std::string_view content) {
  const LexedFile lexed = lex(content);
  FileArtifact art;
  std::vector<RawFinding>& out = art.findings;
  const std::vector<Token>& toks = lexed.tokens;
  if (in_deterministic_module(rel_path)) {
    check_unseeded_mt19937(toks, out);
    check_unordered(toks, out);
    // The cache implementation builds entries in place before publishing
    // them; everywhere else the entries are read-only.
    if (rel_path != "src/core/prefix_cache.cpp")
      check_prefix_cache_mutation(toks, out);
  }
  check_atomic_float(toks, out);
  if (is_kernel_hot_path(rel_path)) check_simd_lane_order(toks, out);
  if (is_bench_harness(rel_path)) check_bench_conventions(toks, out);

  // A malformed allow() is itself a finding — deliberately unsuppressable
  // (the engine never matches kAllowReason against directives). So is one
  // naming an unregistered id: a retired or misspelled rule would otherwise
  // stop suppressing without a word.
  for (const Suppression& s : lexed.suppressions) {
    if (s.rules.empty() || s.reason.empty()) {
      out.push_back({kAllowReason, s.line,
                     "suppression must name a rule and carry a written "
                     "reason"});
    }
    for (const std::string& id : s.rules) {
      if (rule_info(id) == nullptr) {
        out.push_back({kAllowReason, s.line,
                       "allow() names '" + id +
                           "', which is not a registered rule (see "
                           "--list-rules)"});
      }
    }
  }
  art.suppressions = lexed.suppressions;
  art.index = sema::build_index(rel_path, lexed);
  return art;
}

}  // namespace ckptfi::lint
