// Internal seam between the engine, the token rules (rules.cpp) and the index
// rules (sema/index_rules.cpp). A FileArtifact is a pure function of one
// file's path and contents; the index rules then read every artifact at once.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "lexer.hpp"
#include "lint.hpp"
#include "sema/index.hpp"

namespace ckptfi::lint {

/// A token-rule finding before suppression matching.
struct RawFinding {
  std::string rule;
  int line = 1;
  std::string message;
};

/// Everything the engine needs from one file: token-rule findings, the
/// suppression directives, and the sema index.
struct FileArtifact {
  std::vector<RawFinding> findings;
  std::vector<Suppression> suppressions;
  sema::FileIndex index;
};

/// The registered rule with this id, or nullptr.
const RuleInfo* rule_info(const std::string& id);

/// Lex + token rules + sema index, in one pass over the content.
FileArtifact analyze_file(const std::string& rel_path,
                          std::string_view content);

/// The index rules over every artifact's index. Returned findings carry
/// evidence chains (empty for direct hits); suppression is not yet applied.
std::vector<Finding> index_rules(const std::vector<FileArtifact>& artifacts);

}  // namespace ckptfi::lint
