// The per-file declaration index: the semantic facts the index rules need,
// extracted from the token stream in one pass. No AST and no libclang — the
// indexer recognises just enough C++ declaration shape (namespace/class
// scopes, out-of-line qualified names, ctor init lists, lambda bodies) to
// attribute every call site, lock acquisition, and banned-token hit to the
// function whose body contains it.
//
// It is the one place the linter tracks scopes, held locks and the banned
// entropy/heap token shapes; a FileIndex is a pure function of
// (rel_path, file content).
#pragma once

#include <string>
#include <vector>

#include "lexer.hpp"

namespace ckptfi::lint::sema {

/// A call site inside a function body, with the lock context it runs under.
struct CallSite {
  std::string name;  ///< as written: "helper", "util::helper", "obj.method"→"method"
  int line = 1;
  std::vector<std::string> held_locks;  ///< canonical mutex ids live at the call
};

/// One lock acquisition (lock_guard/unique_lock/scoped_lock ctor or .lock()).
struct LockSite {
  std::string mutex_id;  ///< canonical id, e.g. "ThreadPool::mu_"
  int line = 1;
  std::vector<std::string> held_before;  ///< ids already held when acquiring
};

/// A banned-token occurrence anywhere in the file: a direct finding when the
/// file is policed, else a taint source for the function that contains it.
struct DirectHit {
  std::string what;  ///< e.g. "random_device", "push_back", "std::vector"
  int line = 1;
  int fn = -1;       ///< FileIndex::functions index of the enclosing body;
                     ///< -1 at file scope (namespace/class members, params)
};

struct FunctionDef {
  std::string qualified_name;  ///< scope-stack + written name, "::"-joined
  int line = 1;                ///< line of the definition header
  std::vector<CallSite> calls;
  std::vector<LockSite> locks;
};

struct FileIndex {
  std::string file;                   ///< scan-root-relative, '/'-separated
  std::vector<std::string> includes;  ///< quoted #include texts, as written
  std::vector<FunctionDef> functions;
  std::vector<DirectHit> entropy_hits;  ///< det-rng-entropy token shapes
  std::vector<DirectHit> heap_hits;     ///< arena-kernel-heap token shapes
};

FileIndex build_index(const std::string& rel_path, const LexedFile& lexed);

}  // namespace ckptfi::lint::sema
