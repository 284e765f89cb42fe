// Self-tests for ckptfi-lint: every rule must fire on its bad fixture, stay
// quiet on the conforming counterpart, and honour reasoned suppressions. The
// bad tree's full SARIF report is diffed against a golden file so a rule
// regression (missed finding, drifted message, broken location) shows up as
// a readable JSON diff. Regenerate the golden after an intentional change:
//
//   ckptfi_lint --root=tests/lint/fixtures/bad --no-default-excludes
//       --json=tests/lint/expected_sarif.json   (one command line)
#include "lint.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>

#include "scopes.hpp"

namespace ckptfi::lint {
namespace {

std::string fixture_root(const std::string& tree) {
  return std::string(CKPTFI_LINT_FIXTURE_DIR) + "/" + tree;
}

Report run_tree(const std::string& tree) {
  Options opt;
  opt.root = fixture_root(tree);
  opt.default_excludes = false;  // the fixtures ARE the scan target here
  return run(opt);
}

TEST(LintRules, RegistryHasUniqueIdsAndHints) {
  std::set<std::string> ids;
  for (const RuleInfo& r : rules()) {
    EXPECT_TRUE(ids.insert(r.id).second) << "duplicate rule id " << r.id;
    EXPECT_FALSE(r.summary.empty()) << r.id;
    EXPECT_FALSE(r.hint.empty()) << r.id;
  }
  EXPECT_EQ(ids.size(), 11u);
  // The index rules are registered too (so --list-rules and the SARIF
  // rule list describe them); each property has exactly one id.
  EXPECT_TRUE(ids.count("det-rng-entropy"));
  EXPECT_TRUE(ids.count("arena-kernel-heap"));
  EXPECT_TRUE(ids.count("conc-notify-under-lock"));
  EXPECT_TRUE(ids.count("conc-lock-order"));
  EXPECT_FALSE(ids.count("det-transitive-entropy"));
  EXPECT_FALSE(ids.count("arena-transitive-heap"));
}

TEST(LintFixtures, EveryRuleFiresOnTheBadTree) {
  const Report report = run_tree("bad");
  std::set<std::string> fired;
  for (const Finding& f : report.findings) {
    EXPECT_FALSE(f.suppressed) << f.file << ":" << f.line;
    fired.insert(f.rule);
  }
  for (const RuleInfo& r : rules()) {
    EXPECT_TRUE(fired.count(r.id)) << "rule never fired: " << r.id;
  }
  EXPECT_EQ(report.unsuppressed(), report.findings.size());
  EXPECT_GT(report.unsuppressed(), 0u);
}

TEST(LintFixtures, OkTreeIsClean) {
  const Report report = run_tree("ok");
  for (const Finding& f : report.findings) {
    ADD_FAILURE() << "false positive: " << f.file << ":" << f.line << " ["
                  << f.rule << "] " << f.message;
  }
  EXPECT_EQ(report.files_scanned, 16u);  // one clean twin per checker family
}

TEST(LintFixtures, ReasonedSuppressionNeutralisesAndUnusedIsNoted) {
  const Report report = run_tree("suppressed");
  ASSERT_EQ(report.findings.size(), 7u);
  std::set<std::string> suppressed_rules;
  for (const Finding& f : report.findings) {
    EXPECT_TRUE(f.suppressed) << f.file << ":" << f.line;
    EXPECT_FALSE(f.suppress_reason.empty());
    suppressed_rules.insert(f.rule);
  }
  EXPECT_TRUE(suppressed_rules.count("det-rng-entropy"));
  EXPECT_TRUE(suppressed_rules.count("det-rng-unseeded-mt19937"));
  EXPECT_TRUE(suppressed_rules.count("det-prefix-cache-mutation"));
  EXPECT_TRUE(suppressed_rules.count("det-simd-lane-order"));
  // Transitive findings honour the same allow() mechanics at their
  // boundary call site.
  EXPECT_TRUE(suppressed_rules.count("arena-kernel-heap"));
  EXPECT_TRUE(suppressed_rules.count("conc-lock-order"));
  EXPECT_EQ(report.unsuppressed(), 0u);

  ASSERT_EQ(report.suppressions.size(), 8u);
  std::size_t used = 0;
  for (const SuppressionRecord& s : report.suppressions) used += s.used ? 1 : 0;
  EXPECT_EQ(used, 7u);  // one directive stays unused, reported as a note
}

/// The first `rule` finding with (`chained`) or without an evidence chain.
const Finding* find_rule(const Report& report, const std::string& rule,
                         bool chained = true) {
  for (const Finding& f : report.findings) {
    if (f.rule == rule && f.chain.empty() != chained) return &f;
  }
  return nullptr;
}

TEST(LintTierB, FindingsCarryCrossFileChains) {
  const Report report = run_tree("bad");

  // A banned token in a policed file is a direct hit: a chain of length 0.
  const Finding* direct = find_rule(report, "det-rng-entropy", false);
  ASSERT_NE(direct, nullptr);
  EXPECT_EQ(direct->file, "src/core/entropy.cpp");

  const Finding* entropy = find_rule(report, "det-rng-entropy");
  ASSERT_NE(entropy, nullptr);
  EXPECT_EQ(entropy->file, "src/core/seed_mixer.cpp");
  ASSERT_GE(entropy->chain.size(), 3u);  // call → helper call → banned token
  EXPECT_EQ(entropy->chain.front().file, entropy->file);
  EXPECT_EQ(entropy->chain.back().file, "src/util/mix_helper.hpp");
  EXPECT_NE(entropy->chain.back().note.find("random_device"),
            std::string::npos);

  const Finding* heap = find_rule(report, "arena-kernel-heap");
  ASSERT_NE(heap, nullptr);
  EXPECT_EQ(heap->file, "src/tensor/kernels.cpp");
  ASSERT_GE(heap->chain.size(), 2u);
  EXPECT_EQ(heap->chain.back().file, "src/tensor/scratch_helper.hpp");

  const Finding* lock = find_rule(report, "conc-lock-order");
  ASSERT_NE(lock, nullptr);
  ASSERT_FALSE(lock->chain.empty());
  ASSERT_FALSE(lock->counter_chain.empty());
  // The two chains witness opposite orders from two different files.
  EXPECT_EQ(lock->chain.front().file, "src/core/pipeline_a.cpp");
  EXPECT_EQ(lock->counter_chain.front().file, "src/core/pipeline_b.cpp");
}

TEST(LintTierB, SarifEncodesCodeFlowsAndRelatedLocations) {
  const Report report = run_tree("bad");
  const Json sarif = report.sarif();
  const Json& results = sarif.at("runs").at(0).at("results");
  ASSERT_EQ(results.size(), report.findings.size());

  bool saw_entropy = false;
  bool saw_lock = false;
  for (std::size_t r = 0; r < results.size(); ++r) {
    const Json& res = results.at(r);
    const Finding* f = &report.findings[r];
    const std::string rule = res.at("ruleId").as_string();
    ASSERT_EQ(rule, f->rule);
    // Direct hits carry no chain, so no code flow either.
    EXPECT_EQ(res.contains("codeFlows"), !f->chain.empty()) << rule;
    if (rule == "det-rng-entropy" && !f->chain.empty()) {
      saw_entropy = true;
      const Json& flows =
          res.at("codeFlows").at(0).at("threadFlows");
      ASSERT_EQ(flows.size(), 1u);
      const Json& locs = flows.at(0).at("locations");
      ASSERT_EQ(locs.size(), f->chain.size());
      // Every step resolves to a physical location matching the chain.
      for (std::size_t i = 0; i < locs.size(); ++i) {
        const Json& phys = locs.at(i).at("location").at("physicalLocation");
        EXPECT_EQ(phys.at("artifactLocation").at("uri").as_string(),
                  f->chain[i].file);
        EXPECT_EQ(phys.at("region").at("startLine").as_int(),
                  f->chain[i].line);
      }
      EXPECT_EQ(res.at("relatedLocations").size(), f->chain.size());
    }
    if (rule == "conc-lock-order") {
      saw_lock = true;
      // ABBA evidence is two thread flows: the chain and its inverse.
      const Json& flows = res.at("codeFlows").at(0).at("threadFlows");
      EXPECT_EQ(flows.size(), 2u);
    }
  }
  EXPECT_TRUE(saw_entropy);
  EXPECT_TRUE(saw_lock);
}

TEST(LintScopes, DumpListsEveryTableAndMatchesDocs) {
  const std::string dump = scopes_dump();
  // Spot checks that the dump is the constexpr tables, not a paraphrase.
  EXPECT_NE(dump.find("deterministic-module: src/tensor/"), std::string::npos);
  EXPECT_NE(dump.find("deterministic-exempt: src/util/"), std::string::npos);
  EXPECT_NE(dump.find("kernel-hot-path: src/tensor/ops_simd.cpp"),
            std::string::npos);
  EXPECT_NE(dump.find("entropy-barrier: obs::"), std::string::npos);
  EXPECT_NE(dump.find("heap-barrier: Workspace::"), std::string::npos);

  std::ifstream in(CKPTFI_LINT_DOC_PATH);
  ASSERT_TRUE(in) << "missing " << CKPTFI_LINT_DOC_PATH;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string doc = buf.str();

  // Every table entry must appear verbatim in docs/LINT.md — adding a module
  // without documenting it fails here, not in review.
  std::istringstream lines(dump);
  std::string line;
  while (std::getline(lines, line)) {
    const auto sep = line.find(": ");
    ASSERT_NE(sep, std::string::npos) << line;
    const std::string entry = line.substr(sep + 2);
    EXPECT_NE(doc.find(entry), std::string::npos)
        << "scope entry not documented in docs/LINT.md: " << entry;
  }

  // ...and every file the doc lists as a kernel hot path is in the table,
  // so a file dropped from the table cannot linger in the doc.
  const auto para = doc.find("**Kernel hot paths**");
  ASSERT_NE(para, std::string::npos);
  const std::string hot = doc.substr(para, doc.find("\n\n", para) - para);
  for (auto open = hot.find('`'); open != std::string::npos;) {
    const auto close = hot.find('`', open + 1);
    ASSERT_NE(close, std::string::npos);
    const std::string path = hot.substr(open + 1, close - open - 1);
    if (path.rfind("src/", 0) == 0) {
      EXPECT_TRUE(is_kernel_hot_path(path))
          << "docs/LINT.md lists a kernel hot path the table lacks: " << path;
    }
    open = hot.find('`', close + 1);
  }
}

TEST(LintScopes, PredicatesReadTheTables) {
  EXPECT_TRUE(in_deterministic_module("src/nn/layers.cpp"));
  EXPECT_FALSE(in_deterministic_module("src/util/rng.cpp"));
  EXPECT_TRUE(in_deterministic_exempt("src/util/rng.cpp"));
  EXPECT_TRUE(is_kernel_hot_path("src/tensor/kernels.cpp"));
  EXPECT_FALSE(is_kernel_hot_path("src/tensor/tensor.cpp"));
  EXPECT_TRUE(is_entropy_barrier("ckptfi::obs::emit_event"));
  EXPECT_TRUE(is_heap_barrier("ckptfi::Workspace::tls"));
  EXPECT_FALSE(is_heap_barrier("ckptfi::simd::matmul"));
}

TEST(LintChangedOnly, ReportsOnlyListedFilesButKeepsWholeTreeIndex) {
  Options opt;
  opt.root = fixture_root("bad");
  opt.default_excludes = false;
  opt.only_report_listed = true;
  opt.only_report = {"src/core/seed_mixer.cpp"};
  const Report report = run(opt);

  // The whole tree was still scanned (interprocedural chains need it)...
  EXPECT_EQ(report.files_scanned, 18u);
  // ...but findings are reported only for the listed file — and the
  // transitive finding survives even though its evidence lives in an
  // unlisted helper.
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].rule, "det-rng-entropy");
  EXPECT_EQ(report.findings[0].file, "src/core/seed_mixer.cpp");
  EXPECT_EQ(report.findings[0].chain.back().file, "src/util/mix_helper.hpp");
}

TEST(LintFixtures, BadTreeSarifMatchesGolden) {
  std::ifstream in(CKPTFI_LINT_EXPECTED_SARIF);
  ASSERT_TRUE(in) << "missing golden file " << CKPTFI_LINT_EXPECTED_SARIF;
  std::ostringstream buf;
  buf << in.rdbuf();
  const Json expected = Json::parse(buf.str());

  const Json actual = run_tree("bad").sarif();
  EXPECT_EQ(actual.dump(2), expected.dump(2));
}

TEST(LintCheckFile, SuppressionCoversOwnLineAndLineBelow) {
  const std::string two_below =
      "// ckptfi-lint: allow(det-rng-entropy) too far away\n"
      "\n"
      "int x = rand();\n";
  Report report;
  check_file("src/core/gap.cpp", two_below, report);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_FALSE(report.findings[0].suppressed) << "directive must not reach "
                                                 "past the next line";
}

TEST(LintCheckFile, ProseMentionOfTheToolIsNotADirective) {
  // Doc comments reference the tool by name, and quote the syntax; a
  // comment is a directive only when it opens with the marker + allow(.
  const std::string prose =
      "// Self-tests for ckptfi-lint: every rule must fire.\n"
      "// Suppress with `// ckptfi-lint: allow(<rule>) <reason>` above it.\n"
      "/* see ckptfi-lint: allow(det-rng-entropy) in docs/LINT.md */\n"
      "int x = 0;\n";
  Report report;
  check_file("src/core/prose.cpp", prose, report);
  EXPECT_TRUE(report.findings.empty());
  EXPECT_TRUE(report.suppressions.empty());
}

TEST(LintCheckFile, UnregisteredRuleIdIsAFinding) {
  // A directive naming a retired or misspelled id would otherwise stop
  // suppressing without a word; it is a finding, and suppresses nothing.
  const std::string retired =
      "int seed() {\n"
      "  // ckptfi-lint: allow(det-transitive-entropy) retired id\n"
      "  return rand();\n"
      "}\n";
  Report report;
  check_file("src/core/retired.cpp", retired, report);
  ASSERT_EQ(report.findings.size(), 2u);
  EXPECT_EQ(report.findings[0].rule, "lint-allow-needs-reason");
  EXPECT_EQ(report.findings[0].line, 2);
  EXPECT_EQ(report.findings[1].rule, "det-rng-entropy");
  EXPECT_EQ(report.unsuppressed(), 2u);

  // One unknown id among registered ones is still a finding; the
  // registered id keeps suppressing.
  const std::string mixed =
      "int seed() {\n"
      "  // ckptfi-lint: allow(det-rng-entropy, det-rng-entrop) typo\n"
      "  return rand();\n"
      "}\n";
  Report typo;
  check_file("src/core/typo.cpp", mixed, typo);
  ASSERT_EQ(typo.findings.size(), 2u);
  EXPECT_EQ(typo.unsuppressed(), 1u);
  EXPECT_EQ(typo.findings[0].rule, "lint-allow-needs-reason");
  EXPECT_NE(typo.findings[0].message.find("det-rng-entrop'"),
            std::string::npos);
}

TEST(LintCheckFile, RulesAreScopedByPath) {
  // Heap scratch is only a finding inside the kernel hot-path files.
  const std::string heap = "void f() { int* p = new int[4]; delete[] p; }\n";
  Report hot, cold;
  check_file("src/tensor/ops.cpp", heap, hot);
  check_file("src/core/other.cpp", heap, cold);
  EXPECT_EQ(hot.findings.size(), 1u);
  EXPECT_TRUE(cold.findings.empty());

  // Horizontal-reduce intrinsics are likewise only findings in the kernel
  // hot paths — a diagnostic tool elsewhere may sum lanes however it likes.
  const std::string hadd = "double f(__m256d a) { return g(_mm256_hadd_pd(a, a)); }\n";
  Report simd_hot, simd_cold;
  check_file("src/tensor/ops_simd.cpp", hadd, simd_hot);
  check_file("src/obs/probe.cpp", hadd, simd_cold);
  EXPECT_EQ(simd_hot.findings.size(), 1u);
  EXPECT_TRUE(simd_cold.findings.empty());

  // Entropy is only policed in deterministic modules (src/util hosts the
  // RNG itself and may legitimately mention these names).
  const std::string entropy = "int seed() { return rand(); }\n";
  Report det, util;
  check_file("src/core/seed.cpp", entropy, det);
  check_file("src/util/rng.cpp", entropy, util);
  EXPECT_EQ(det.findings.size(), 1u);
  EXPECT_TRUE(util.findings.empty());

  // The fleet's transport and processes are deterministic modules too: a
  // re-issued shard must replay bitwise, so entropy is policed there. The
  // lint tool's own sources are not (they never touch row bytes).
  for (const char* path : {"src/net/frame.cpp", "tools/ckptfi_fleetd/x.cpp",
                           "tools/ckptfi_worker/x.cpp"}) {
    Report fleet;
    check_file(path, entropy, fleet);
    EXPECT_EQ(fleet.findings.size(), 1u) << path;
  }
  Report lint_self;
  check_file("tools/ckptfi_lint/rules.cpp", entropy, lint_self);
  EXPECT_TRUE(lint_self.findings.empty());
}

}  // namespace
}  // namespace ckptfi::lint
