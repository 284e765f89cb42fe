// ckptfi-lint: determinism & concurrency static analysis for the ckptfi tree.
//
// The paper's methodology needs bitwise-deterministic baselines: a corrupted
// run is only meaningful against a reproducible error-free run. The source
// conventions that buy that determinism (per-trial splitmix64 seed streams,
// ascending-k reduction order, notify-outside-lock, arena-only kernel
// scratch) are enforced here as named rules — see docs/LINT.md for each
// rule's motivating incident.
//
// Findings carry a rule id, file:line and a fix hint; output is human text
// plus SARIF 2.1.0 JSON. Comments that open with
// `ckptfi-lint: allow(<rule>) <reason>` suppress findings and are counted; a
// suppression without a written reason, or naming an unregistered rule, is
// itself a finding. Non-zero process exit on any unsuppressed
// finding makes the tool a CI gate.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace ckptfi::lint {

struct RuleInfo {
  std::string id;
  std::string summary;  ///< one-line description (SARIF shortDescription)
  std::string hint;     ///< how to fix, appended to every finding
};

/// The registered rule set, in stable id order.
const std::vector<RuleInfo>& rules();

/// One hop of an interprocedural evidence chain: the call site, callee
/// definition, or banned token that carries a transitive finding.
struct ChainStep {
  std::string file;  ///< scan-root-relative
  int line = 1;
  std::string note;  ///< human text, e.g. "gemm_rows calls scratch_helper"
};

struct Finding {
  std::string rule;
  std::string file;  ///< scan-root-relative, '/'-separated
  int line = 1;
  std::string message;
  bool suppressed = false;
  std::string suppress_reason;
  /// The call chain from the flagged function to the banned sink, emitted
  /// as SARIF codeFlows/relatedLocations. Empty for a direct hit (a chain of
  /// length zero: the finding is the banned token itself) and for findings
  /// that need no chain.
  std::vector<ChainStep> chain;
  /// Second thread flow for conc-lock-order: the inverse-order chain the
  /// primary chain deadlocks against.
  std::vector<ChainStep> counter_chain;
};

/// One allow() directive encountered while scanning, whether or not any
/// finding matched it — the report lists them all so reviewers see every
/// hole punched in the gate.
struct SuppressionRecord {
  std::string file;
  int line = 1;
  std::string rules;   ///< comma-joined rule ids from allow(...)
  std::string reason;
  bool used = false;   ///< matched at least one finding
};

struct Options {
  std::string root = ".";           ///< paths below resolve relative to this
  std::vector<std::string> paths;   ///< default: src bench examples tests tools
  /// Skip tests/lint/fixtures (intentional violations used by the rule
  /// self-tests). The fixture tests disable this and point root at the
  /// fixture trees instead.
  bool default_excludes = true;
  /// When set, findings/suppressions are only *reported* for these
  /// root-relative files (`--since`/`--changed-only`). The whole tree is
  /// still indexed — interprocedural chains may pass through unchanged
  /// files.
  bool only_report_listed = false;
  std::vector<std::string> only_report;
};

struct Report {
  std::vector<Finding> findings;  ///< sorted by (file,line,rule,message)
  std::vector<SuppressionRecord> suppressions;  ///< sorted by (file,line)
  std::size_t files_scanned = 0;

  std::size_t unsuppressed() const;
  std::size_t suppressed() const;
  Json sarif() const;
  std::string text() const;
};

/// Lint every C++ file under opt.paths (resolved against opt.root).
Report run(const Options& opt);

/// Lint a single file's contents through the same path as run(), index
/// rules included (their call graph is then this one file). `rel_path`
/// decides which rules apply (deterministic module, kernel hot path, bench
/// harness — see scopes.hpp). Findings and directives are appended.
void check_file(const std::string& rel_path, std::string_view content,
                Report& report);

}  // namespace ckptfi::lint
