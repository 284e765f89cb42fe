// The index rules: every rule that needs scopes, held locks or the call
// graph reads them from the per-file sema index (sema/index.hpp), so each
// property has one implementation.
//
//   det-rng-entropy         — an entropy/time token in a deterministic module
//                             (a direct hit, no chain), or a call from one
//                             into a helper outside the policed modules that
//                             transitively reaches such a token.
//   arena-kernel-heap       — the same two shapes for heap allocation in the
//                             kernel hot-path files.
//   conc-notify-under-lock  — a notify_one/notify_all call site with a lock
//                             still held.
//   conc-lock-order         — two call chains acquire the same pair of
//                             mutexes in opposite orders (ABBA deadlock).
//
// A transitive finding is reported at the boundary — the call site in the
// policed file whose callee is transitively dirty — so a deep chain produces
// one finding where the fix (or the reasoned allow) belongs, and the full
// chain rides along as SARIF codeFlows evidence. A direct hit is a chain of
// length zero: the finding sits on the banned token itself.
#include <algorithm>
#include <map>
#include <set>

#include "analysis.hpp"
#include "scopes.hpp"
#include "sema/graph.hpp"

namespace ckptfi::lint {

namespace {

using sema::CallSite;
using sema::DirectHit;
using sema::FileIndex;
using sema::LockSite;
using sema::Program;
using sema::ProgramFn;

constexpr char kDetRng[] = "det-rng-entropy";
constexpr char kArenaHeap[] = "arena-kernel-heap";
constexpr char kNotifyUnderLock[] = "conc-notify-under-lock";
constexpr char kLockOrder[] = "conc-lock-order";

/// Where a function's taint comes from: a banned token in its own body, or
/// a call edge into an already-tainted function. Witness entries are written
/// first-wins during a BFS from the sources, so following them always
/// terminates at a DirectHit.
struct Witness {
  const DirectHit* hit = nullptr;   ///< set for source functions
  const CallSite* via = nullptr;    ///< else: the edge toward the sink
  int next = -1;                    ///< callee fn index for `via`
};

std::string last_component(const std::string& qualified) {
  const auto sep = qualified.rfind("::");
  return sep == std::string::npos ? qualified : qualified.substr(sep + 2);
}

/// Reverse-BFS taint from `sources` through functions satisfying
/// `in_region`, recording a witness chain per tainted function.
std::map<int, Witness> propagate(const Program& prog,
                                 const std::vector<int>& sources,
                                 const std::vector<char>& in_region,
                                 const std::vector<const DirectHit*>& hit_of) {
  std::map<int, Witness> taint;
  std::vector<int> queue;
  for (int s : sources) {
    taint[s] = {hit_of[s], nullptr, -1};
    queue.push_back(s);
  }
  const auto& callers = prog.callers();
  for (std::size_t q = 0; q < queue.size(); ++q) {
    const int g = queue[q];
    for (const auto& [f, call] : callers[g]) {
      if (!in_region[f] || taint.count(f)) continue;
      taint[f] = {nullptr, call, g};
      queue.push_back(f);
    }
  }
  return taint;
}

/// Unfold a witness chain from `start` down to its banned token.
std::vector<ChainStep> unfold(const Program& prog,
                              const std::map<int, Witness>& taint,
                              int start) {
  std::vector<ChainStep> steps;
  int cur = start;
  for (int guard = 0; guard < 64; ++guard) {
    const auto it = taint.find(cur);
    if (it == taint.end()) break;
    const ProgramFn& fn = prog.fns()[cur];
    if (it->second.hit) {
      steps.push_back({fn.file->file, it->second.hit->line,
                       "'" + fn.def->qualified_name + "' uses '" +
                           it->second.hit->what + "'"});
      break;
    }
    const ProgramFn& next = prog.fns()[it->second.next];
    steps.push_back({fn.file->file, it->second.via->line,
                     "'" + fn.def->qualified_name + "' calls '" +
                         last_component(next.def->qualified_name) + "'"});
    cur = it->second.next;
  }
  return steps;
}

/// One banned-token property: which files it polices, which helpers its
/// walk does not step into, and which index hits are its sinks.
struct TaintRule {
  const char* rule;
  const char* effect;     ///< what a direct hit does
  const char* sink_kind;  ///< what a transitive chain ends in
  const char* why;        ///< why it matters, closing every message
  bool (*policed)(std::string_view path);
  bool (*barrier)(std::string_view qualified_name);
  std::vector<DirectHit> FileIndex::*hits;
};

/// A banned token anywhere in a policed file is a direct finding at its own
/// line; a call from a policed function into a tainted helper outside the
/// policed files is a transitive finding carrying the chain to the token.
void taint_rule(const std::vector<FileArtifact>& arts, const Program& prog,
                const TaintRule& r, std::vector<Finding>& out) {
  for (const FileArtifact& art : arts) {
    if (!r.policed(art.index.file)) continue;
    for (const DirectHit& h : art.index.*r.hits) {
      Finding fd;
      fd.rule = r.rule;
      fd.file = art.index.file;
      fd.line = h.line;
      fd.message = "'" + h.what + "' " + r.effect + "; " + r.why;
      out.push_back(std::move(fd));
    }
  }

  const auto& fns = prog.fns();
  const std::size_t n = fns.size();
  std::vector<char> in_region(n, 0);
  std::vector<const DirectHit*> hit_of(n, nullptr);
  std::vector<int> sources;
  for (std::size_t i = 0; i < n; ++i) {
    const ProgramFn& f = fns[i];
    if (r.policed(f.file->file) || r.barrier(f.def->qualified_name)) continue;
    in_region[i] = 1;
    const int local = static_cast<int>(f.def - f.file->functions.data());
    for (const DirectHit& h : f.file->*r.hits) {
      if (h.fn != local) continue;
      hit_of[i] = &h;
      sources.push_back(static_cast<int>(i));
      break;
    }
  }
  if (sources.empty()) return;
  const std::map<int, Witness> taint = propagate(prog, sources, in_region, hit_of);

  // One finding per call site: a name resolving to several tainted
  // overloads is one problem at one line, not several.
  std::set<std::pair<int, int>> seen;  // (entry fn, call line)
  for (std::size_t i = 0; i < n; ++i) {
    const ProgramFn& f = fns[i];
    if (!r.policed(f.file->file)) continue;
    for (const CallSite& c : f.def->calls) {
      for (int callee : prog.resolve(static_cast<int>(i), c)) {
        if (!taint.count(callee)) continue;
        if (!seen.insert({static_cast<int>(i), c.line}).second) continue;
        std::vector<ChainStep> chain;
        chain.push_back({f.file->file, c.line,
                         "'" + f.def->qualified_name + "' calls '" +
                             last_component(fns[callee].def->qualified_name) +
                             "'"});
        std::vector<ChainStep> rest = unfold(prog, taint, callee);
        chain.insert(chain.end(), rest.begin(), rest.end());
        const ChainStep& sink = chain.back();
        Finding fd;
        fd.rule = r.rule;
        fd.file = f.file->file;
        fd.line = c.line;
        fd.message = "'" + f.def->qualified_name + "' transitively reaches " +
                     r.sink_kind + " (" + sink.file + ":" +
                     std::to_string(sink.line) + ") via '" +
                     last_component(fns[callee].def->qualified_name) + "'; " +
                     r.why;
        fd.chain = std::move(chain);
        out.push_back(std::move(fd));
      }
    }
  }
}

const TaintRule kEntropyRule = {
    kDetRng, "draws entropy/time from process state", "an entropy/time source",
    "trial results would stop being a pure function of (--seed, trial index)",
    &in_deterministic_module, &is_entropy_barrier, &FileIndex::entropy_hits};

const TaintRule kHeapRule = {
    kArenaHeap, "allocates in a kernel hot path", "heap allocation",
    "kernel scratch must come from the Workspace arena",
    &is_kernel_hot_path, &is_heap_barrier, &FileIndex::heap_hits};

// ------------------------------------------------------- notify under lock --

/// The woken thread immediately blocks on the still-held mutex — and if the
/// notifier's lock protects state the waiter re-checks, the old
/// parallel_for completion race, the handshake can outlive the caller's
/// stack. The index resets held locks inside lambda bodies and on unlock().
void notify_rule(const std::vector<FileArtifact>& arts,
                 std::vector<Finding>& out) {
  for (const FileArtifact& art : arts) {
    for (const sema::FunctionDef& fn : art.index.functions) {
      for (const CallSite& c : fn.calls) {
        if ((c.name != "notify_one" && c.name != "notify_all") ||
            c.held_locks.empty())
          continue;
        Finding fd;
        fd.rule = kNotifyUnderLock;
        fd.file = art.index.file;
        fd.line = c.line;
        fd.message = c.name + "() while '" + c.held_locks.back() +
                     "' is still held; the waiter wakes just to block";
        out.push_back(std::move(fd));
      }
    }
  }
}

// ------------------------------------------------------------ lock order --

struct AcqWitness {
  const LockSite* site = nullptr;  ///< acquired locally here
  const CallSite* via = nullptr;   ///< else reached through this call
  int next = -1;
};

struct PairEvidence {
  std::vector<ChainStep> chain;
  std::string file;
  int line = 1;
};

void lock_order_rule(const Program& prog, std::vector<Finding>& out) {
  const auto& fns = prog.fns();
  const std::size_t n = fns.size();

  // Transitive lock-acquisition summaries, to fixpoint. Witnesses are
  // first-write-wins, so each references an entry that existed strictly
  // earlier — following them terminates.
  std::vector<std::map<std::string, AcqWitness>> acq(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (const LockSite& s : fns[i].def->locks) {
      acq[i].emplace(s.mutex_id, AcqWitness{&s, nullptr, -1});
    }
  }
  bool changed = true;
  int rounds = 0;
  while (changed && rounds++ < 64) {
    changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      for (const CallSite& c : fns[i].def->calls) {
        for (int g : prog.resolve(static_cast<int>(i), c)) {
          for (const auto& entry : acq[g]) {
            if (acq[i].emplace(entry.first, AcqWitness{nullptr, &c, g}).second)
              changed = true;
          }
        }
      }
    }
  }

  auto unfold_acq = [&](int fn, const std::string& m) {
    std::vector<ChainStep> steps;
    int cur = fn;
    for (int guard = 0; guard < 64; ++guard) {
      const auto it = acq[cur].find(m);
      if (it == acq[cur].end()) break;
      const ProgramFn& f = fns[cur];
      if (it->second.site) {
        steps.push_back({f.file->file, it->second.site->line,
                         "'" + f.def->qualified_name + "' acquires '" + m +
                             "'"});
        break;
      }
      const ProgramFn& next = fns[it->second.next];
      steps.push_back({f.file->file, it->second.via->line,
                       "'" + f.def->qualified_name + "' calls '" +
                           last_component(next.def->qualified_name) + "'"});
      cur = it->second.next;
    }
    return steps;
  };

  // Ordered pairs "held `a`, then acquired `b`", each with its best (first
  // found, functions in deterministic order) evidence chain.
  std::map<std::pair<std::string, std::string>, PairEvidence> pairs;
  for (std::size_t i = 0; i < n; ++i) {
    const ProgramFn& f = fns[i];
    for (const LockSite& s : f.def->locks) {
      for (const std::string& h : s.held_before) {
        if (h == s.mutex_id) continue;
        const auto key = std::make_pair(h, s.mutex_id);
        if (pairs.count(key)) continue;
        PairEvidence ev;
        ev.file = f.file->file;
        ev.line = s.line;
        ev.chain.push_back({f.file->file, s.line,
                            "'" + f.def->qualified_name + "' acquires '" +
                                s.mutex_id + "' while holding '" + h + "'"});
        pairs.emplace(key, std::move(ev));
      }
    }
    for (const CallSite& c : f.def->calls) {
      if (c.held_locks.empty()) continue;
      for (int g : prog.resolve(static_cast<int>(i), c)) {
        for (const auto& entry : acq[g]) {
          const std::string& m = entry.first;
          for (const std::string& h : c.held_locks) {
            if (h == m) continue;
            const auto key = std::make_pair(h, m);
            if (pairs.count(key)) continue;
            PairEvidence ev;
            ev.file = f.file->file;
            ev.line = c.line;
            ev.chain.push_back(
                {f.file->file, c.line,
                 "'" + f.def->qualified_name + "' calls '" +
                     last_component(fns[g].def->qualified_name) +
                     "' while holding '" + h + "'"});
            std::vector<ChainStep> rest = unfold_acq(g, m);
            ev.chain.insert(ev.chain.end(), rest.begin(), rest.end());
            pairs.emplace(key, std::move(ev));
          }
        }
      }
    }
  }

  for (const auto& [key, ev] : pairs) {
    const auto& [a, b] = key;
    if (a >= b) continue;  // report each unordered pair once, from (a,b)
    const auto inverse = pairs.find(std::make_pair(b, a));
    if (inverse == pairs.end()) continue;
    Finding fd;
    fd.rule = kLockOrder;
    fd.file = ev.file;
    fd.line = ev.line;
    fd.message = "lock-order inversion: this chain acquires '" + a +
                 "' then '" + b + "', but " + inverse->second.file + ":" +
                 std::to_string(inverse->second.line) + " acquires '" + b +
                 "' then '" + a +
                 "'; concurrent callers can deadlock (ABBA)";
    fd.chain = ev.chain;
    fd.counter_chain = inverse->second.chain;
    out.push_back(std::move(fd));
  }
}

}  // namespace

std::vector<Finding> index_rules(const std::vector<FileArtifact>& artifacts) {
  std::vector<sema::FileIndex> indexes;
  indexes.reserve(artifacts.size());
  for (const FileArtifact& a : artifacts) indexes.push_back(a.index);
  const Program prog(indexes);

  std::vector<Finding> out;
  taint_rule(artifacts, prog, kEntropyRule, out);
  taint_rule(artifacts, prog, kHeapRule, out);
  notify_rule(artifacts, out);
  lock_order_rule(prog, out);
  return out;
}

}  // namespace ckptfi::lint
