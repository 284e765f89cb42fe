// The whole-program view the index rules reason over: every FileIndex
// flattened into a function table, a name-resolution index, and the include
// closure that scopes unqualified-call resolution to declarations a file can
// actually see. Resolution is deliberately conservative:
//
//   1. a call qualified as written ("util::helper") matches definitions
//      whose qualified name ends with those components;
//   2. an unqualified call in a member function prefers siblings in the
//      same enclosing scope;
//   3. otherwise candidates must be include-visible: defined in the calling
//      file, in its transitive quoted-include closure, or in the .cpp
//      paired (by stem) with a visible header;
//   4. a lone global definition of the name is accepted as a last resort —
//      a unique match cannot be the wrong one;
//   5. anything still ambiguous resolves to nothing. A missed edge is a
//      false negative for one chain; a junk edge on a common name ("run",
//      "size") would drown the report in false chains.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "sema/index.hpp"

namespace ckptfi::lint::sema {

struct ProgramFn {
  const FileIndex* file = nullptr;
  const FunctionDef* def = nullptr;
  std::string scope;  ///< qualified_name minus its last component
  std::string last;   ///< last component of qualified_name
};

class Program {
 public:
  explicit Program(const std::vector<FileIndex>& files);

  const std::vector<ProgramFn>& fns() const { return fns_; }

  /// Resolve a call site to candidate callee fn indexes (sorted, possibly
  /// empty). `caller` is an index into fns().
  std::vector<int> resolve(int caller, const CallSite& call) const;

  /// Reverse adjacency: for each fn, the (caller fn, call-site) pairs whose
  /// resolution includes it. Built lazily on first use.
  const std::vector<std::vector<std::pair<int, const CallSite*>>>& callers() const;

 private:
  bool visible_from(const FileIndex* from, const FileIndex* def_file) const;

  std::vector<ProgramFn> fns_;
  std::map<std::string, std::vector<int>> by_last_;
  std::map<std::string, int> file_idx_;
  std::vector<std::vector<int>> stem_peers_;  ///< files sharing each file's stem
  std::vector<std::vector<char>> closure_;    ///< [file][file] reachability
  mutable std::vector<std::vector<std::pair<int, const CallSite*>>> callers_;
  mutable bool callers_built_ = false;
};

}  // namespace ckptfi::lint::sema
