// Rule implementations. Every rule is a token-stream pattern tied to a
// project invariant; docs/LINT.md records the motivating incident for each.
//
// Which rules apply to a file depends on where it lives:
//   - determinism rules: the deterministic modules
//     src/{tensor,nn,core,hdf5,solver,data,models} — the code whose outputs
//     EXPERIMENTS.md numbers are built from — plus the fleet's transport and
//     processes (src/net, tools/ckptfi_fleetd, tools/ckptfi_worker): the
//     fleet's whole value is that sharded rows are byte-identical to a
//     single-process run, so entropy there is as load-bearing as in a
//     kernel. (steady_clock is fine — lease deadlines are wall-clock-free
//     reporting, not row content; system_clock and friends are not.)
//     src/util is exempt (it hosts the seeded RNG itself) and src/obs is
//     exempt (diagnostics may read wall clocks).
//   - concurrency rules: everywhere.
//   - arena + simd lane-order rules: the kernel hot-path files
//     src/tensor/{ops,ops_simd,kernels}.cpp, whose scratch must
//     come from the Workspace arena and whose reductions must use the
//     documented fixed lane fold (never horizontal-add intrinsics).
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

/// Index just past the matching '>' of a template argument list whose '<'
/// sits at `open`. Returns `open` unchanged if no balanced close is found
/// within a sane distance (then it was a comparison, not a template).
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
// Tier B (interprocedural, sema/rules_b.cpp) — registered here so
// --list-rules and the SARIF driver describe the full rule set.
constexpr char kTransEntropy[] = "det-transitive-entropy";
constexpr char kTransHeap[] = "arena-transitive-heap";
constexpr char kLockOrder[] = "conc-lock-order";

/// det-rng-entropy: process-state entropy sources in deterministic modules.
void check_rng_entropy(const std::vector<Token>& toks,
                       std::vector<RawFinding>& out) {
  // Flagged on any mention: these names have no deterministic use.
  static const std::vector<std::string_view> kAlways = {
      "random_device", "system_clock", "gettimeofday", "drand48",
      "lrand48",       "rand_r",       "srand",        "srand48"};
  // Flagged only as calls: the bare words are common identifiers.
  static const std::vector<std::string_view> kCalls = {"rand", "time",
                                                       "clock"};
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::Identifier) continue;
    const std::string& t = toks[i].text;
    const bool always =
        std::find(kAlways.begin(), kAlways.end(), t) != kAlways.end();
    const bool call =
        !always &&
        std::find(kCalls.begin(), kCalls.end(), t) != kCalls.end() &&
        i + 1 < toks.size() && is_punct(toks[i + 1], "(") &&
        // a member call like foo.time(...) is not the libc function
        (i == 0 || (!is_punct(toks[i - 1], ".") && !is_punct(toks[i - 1], "->")));
    if (always || call) {
      out.push_back({kDetRng, toks[i].line,
                     "'" + t +
                         "' draws entropy/time from process state; trial "
                         "results would stop being a pure function of "
                         "(--seed, trial index)"});
    }
  }
}

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

/// conc-notify-under-lock: condition_variable::notify_* while a
/// lock_guard/unique_lock declared in an enclosing scope is still live. The
/// woken thread immediately blocks on the still-held mutex — and if the
/// notifier's lock protects state the waiter re-checks, the exact PR 3
/// parallel_for shape, the handshake can outlive the caller's stack.
/// Lambda bodies reset the live-lock set: their body runs later, not under
/// the locks that happen to be live at the capture site.
void check_notify_under_lock(const std::vector<Token>& toks,
                             std::vector<RawFinding>& out) {
  const std::size_t n = toks.size();

  // Pass 1: mark '{' tokens that open a lambda body: "]" [params] [specs] "{".
  std::vector<char> lambda_brace(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (!is_punct(toks[i], "]")) continue;
    std::size_t j = i + 1;
    if (j < n && is_punct(toks[j], "(")) j = skip_parens(toks, j);
    // Walk over trailing-return/specifier tokens; bail on anything that
    // cannot appear between a lambda's parameter list and its body.
    std::size_t guard = 0;
    while (j < n && guard++ < 24) {
      const Token& t = toks[j];
      if (is_punct(t, "{")) {
        lambda_brace[j] = 1;
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

  struct ActiveLock {
    int depth;
    int line;
    std::string var;
  };
  struct LambdaFrame {
    int entry_depth;
    std::vector<ActiveLock> saved;
  };
  std::vector<ActiveLock> locks;
  std::vector<LambdaFrame> frames;
  int depth = 0;

  for (std::size_t i = 0; i < n; ++i) {
    const Token& t = toks[i];
    if (is_punct(t, "{")) {
      if (lambda_brace[i]) {
        frames.push_back({depth, std::move(locks)});
        locks.clear();
      }
      ++depth;
      continue;
    }
    if (is_punct(t, "}")) {
      --depth;
      while (!locks.empty() && locks.back().depth > depth) locks.pop_back();
      if (!frames.empty() && frames.back().entry_depth == depth) {
        locks = std::move(frames.back().saved);
        frames.pop_back();
      }
      continue;
    }
    if (t.kind != TokKind::Identifier) continue;

    if (t.text == "lock_guard" || t.text == "unique_lock" ||
        t.text == "scoped_lock") {
      std::size_t j = i + 1;
      if (j < n && is_punct(toks[j], "<")) j = skip_template_args(toks, j);
      if (j < n && toks[j].kind == TokKind::Identifier && j + 1 < n &&
          (is_punct(toks[j + 1], "(") || is_punct(toks[j + 1], "{"))) {
        locks.push_back({depth, toks[j].line, toks[j].text});
      }
      continue;
    }
    if (t.text == "unlock" && i >= 1 &&
        (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->"))) {
      // lk.unlock() releases; drop the lock matching the receiver name, or
      // the innermost one when the receiver is not a plain identifier.
      std::string var =
          i >= 2 && toks[i - 2].kind == TokKind::Identifier ? toks[i - 2].text
                                                            : "";
      auto it = std::find_if(locks.rbegin(), locks.rend(),
                             [&](const ActiveLock& l) { return l.var == var; });
      if (it != locks.rend()) {
        locks.erase(std::next(it).base());
      } else if (!locks.empty()) {
        locks.pop_back();
      }
      continue;
    }
    if ((t.text == "notify_one" || t.text == "notify_all") && i + 1 < n &&
        is_punct(toks[i + 1], "(") && !locks.empty()) {
      out.push_back(
          {kNotifyUnderLock, t.line,
           t.text + "() while '" + locks.back().var + "' (line " +
               std::to_string(locks.back().line) +
               ") still holds its mutex; the waiter wakes just to block"});
    }
  }
}

/// arena-kernel-heap: heap traffic in the kernel hot-path files. Scratch
/// must come from Workspace::tls() (per-thread bump arena, zero steady-state
/// allocations); Tensor::resize on *outputs* is the documented contract and
/// is not flagged.
void check_kernel_heap(const std::vector<Token>& toks,
                       std::vector<RawFinding>& out) {
  static const std::vector<std::string_view> kAllocCalls = {
      "malloc", "calloc",      "realloc",    "free",
      "aligned_alloc", "make_unique", "make_shared"};
  static const std::vector<std::string_view> kGrowthCalls = {
      "push_back", "emplace_back", "reserve", "assign", "insert", "emplace"};
  const std::size_t n = toks.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::Identifier) continue;
    if (t.text == "new") {
      out.push_back({kArenaHeap, t.line,
                     "operator new in a kernel hot path allocates per call"});
      continue;
    }
    const bool member_call = i >= 1 && (is_punct(toks[i - 1], ".") ||
                                        is_punct(toks[i - 1], "->"));
    if (std::find(kAllocCalls.begin(), kAllocCalls.end(), t.text) !=
            kAllocCalls.end() &&
        i + 1 < n &&
        (is_punct(toks[i + 1], "(") || is_punct(toks[i + 1], "<")) &&
        !member_call) {
      out.push_back({kArenaHeap, t.line,
                     "'" + t.text + "' heap call in a kernel hot path"});
      continue;
    }
    if (member_call && i + 1 < n && is_punct(toks[i + 1], "(") &&
        std::find(kGrowthCalls.begin(), kGrowthCalls.end(), t.text) !=
            kGrowthCalls.end()) {
      out.push_back({kArenaHeap, t.line,
                     "container '" + t.text +
                         "' may reallocate inside a kernel hot path"});
      continue;
    }
    if (t.text == "vector" && i + 1 < n && is_punct(toks[i + 1], "<")) {
      const std::size_t after = skip_template_args(toks, i + 1);
      if (after != i + 1 && after < n &&
          toks[after].kind == TokKind::Identifier && after + 1 < n &&
          (is_punct(toks[after + 1], ";") || is_punct(toks[after + 1], "=") ||
           is_punct(toks[after + 1], "(") ||
           is_punct(toks[after + 1], "{"))) {
        out.push_back({kArenaHeap, t.line,
                       "std::vector value '" + toks[after].text +
                           "' owns heap storage in a kernel hot path"});
      }
      continue;
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
       "clock) in deterministic modules",
       "draw from util/rng.hpp (splitmix64/xoshiro) seeded via "
       "core::trial_seed(campaign, index)"},
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
       "No heap allocation in kernel hot paths outside the Workspace arena",
       "take scratch from Workspace::tls() under a Workspace::Scope "
       "(docs/KERNELS.md)"},
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
       "Every ckptfi-lint suppression names a rule and carries a reason",
       "write '// ckptfi-lint: allow(<rule>) <why this is safe here>'"},
      {kTransEntropy,
       "No deterministic-module function transitively reaches an "
       "entropy/time source through helpers (interprocedural)",
       "route the value through the seeded trial stream, or move the helper "
       "behind the obs:: observation-only boundary if it never feeds row "
       "bytes"},
      {kTransHeap,
       "No kernel hot-path function transitively reaches heap allocation "
       "through helpers (interprocedural)",
       "take scratch from Workspace::tls() in the helper too, or pass the "
       "caller's arena span down (docs/KERNELS.md)"},
      {kLockOrder,
       "No two call chains acquire the same pair of mutexes in opposite "
       "orders (interprocedural ABBA deadlock)",
       "pick one acquisition order per mutex pair and make every chain "
       "follow it, or collapse to std::scoped_lock(a, b) at a single site"},
  };
  return kRules;
}

void tier_a_rules(const std::string& rel_path, const LexedFile& lexed,
                  std::vector<RawFinding>& out) {
  if (in_deterministic_module(rel_path)) {
    check_rng_entropy(lexed.tokens, out);
    check_unseeded_mt19937(lexed.tokens, out);
    check_unordered(lexed.tokens, out);
    // The cache implementation builds entries in place before publishing
    // them; everywhere else the entries are read-only.
    if (rel_path != "src/core/prefix_cache.cpp")
      check_prefix_cache_mutation(lexed.tokens, out);
  }
  check_notify_under_lock(lexed.tokens, out);
  check_atomic_float(lexed.tokens, out);
  if (is_kernel_hot_path(rel_path)) {
    check_kernel_heap(lexed.tokens, out);
    check_simd_lane_order(lexed.tokens, out);
  }
  if (is_bench_harness(rel_path)) check_bench_conventions(lexed.tokens, out);

  // A malformed allow() is itself a finding — deliberately unsuppressable
  // (the engine never matches kAllowReason against directives).
  for (const Suppression& s : lexed.suppressions) {
    if (s.rules.empty() || s.reason.empty()) {
      out.push_back({kAllowReason, s.line,
                     "suppression must name a rule and carry a written "
                     "reason"});
    }
  }
}

FileArtifact analyze_file(const std::string& rel_path,
                          std::string_view content) {
  const LexedFile lexed = lex(content);
  FileArtifact art;
  tier_a_rules(rel_path, lexed, art.findings);
  art.suppressions = lexed.suppressions;
  art.index = sema::build_index(rel_path, lexed);
  return art;
}

void check_file(const std::string& rel_path, std::string_view content,
                Report& report) {
  apply_artifact(rel_path, analyze_file(rel_path, content), report);
}

}  // namespace ckptfi::lint
