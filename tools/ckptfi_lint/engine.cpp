// File discovery, report assembly, and the two output encoders (human text
// and SARIF 2.1.0). The scan is deterministic: files are visited in sorted
// root-relative order and findings sorted by location, rule and message, so
// two runs over the same tree produce byte-identical reports — the same
// property the linter exists to protect.
//
// run() and check_file() share one path from per-file artifacts (lex + token
// rules + sema index, rules.cpp) to a report: the index rules
// (sema/index_rules.cpp) read every artifact's index, and every finding is
// matched against the allow() directives of the file it lands in.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "analysis.hpp"
#include "lint.hpp"

namespace ckptfi::lint {

namespace fs = std::filesystem;

namespace {

bool lintable_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".cxx" || ext == ".hpp" ||
         ext == ".hh" || ext == ".h" || ext == ".inl";
}

/// Match a finding at `line` against a file's directives: a directive covers
/// its own line and the line directly below (end-of-line or line-above
/// placement), must name the rule, and must carry a written reason. Returns
/// the directive index or npos.
std::size_t match_suppression(const std::vector<Suppression>& sups,
                              const std::string& rule, int line) {
  for (std::size_t i = 0; i < sups.size(); ++i) {
    const Suppression& s = sups[i];
    const bool covers = s.line == line || s.line == line - 1;
    const bool names_rule =
        std::find(s.rules.begin(), s.rules.end(), rule) != s.rules.end();
    if (covers && names_rule && !s.reason.empty()) return i;
  }
  return static_cast<std::size_t>(-1);
}

Json location_json(const std::string& file, int line) {
  Json region = Json::object();
  region["startLine"] = line;
  Json artifact = Json::object();
  artifact["uri"] = file;
  Json phys = Json::object();
  phys["artifactLocation"] = std::move(artifact);
  phys["region"] = std::move(region);
  Json loc = Json::object();
  loc["physicalLocation"] = std::move(phys);
  return loc;
}

Json thread_flow_json(const std::vector<ChainStep>& chain) {
  Json locs = Json::array();
  for (const ChainStep& step : chain) {
    Json loc = location_json(step.file, step.line);
    Json msg = Json::object();
    msg["text"] = step.note;
    loc["message"] = std::move(msg);
    Json tf_loc = Json::object();
    tf_loc["location"] = std::move(loc);
    locs.push_back(std::move(tf_loc));
  }
  Json tf = Json::object();
  tf["locations"] = std::move(locs);
  return tf;
}

/// The one path from per-file artifacts to report entries: token-rule and
/// index-rule findings alike are matched against the allow() directives of
/// the file they land in, and every directive becomes a SuppressionRecord.
void add_artifacts(const std::vector<FileArtifact>& arts, Report& report) {
  std::vector<Finding> found = index_rules(arts);
  // file -> (its artifact, index of its first record in report.suppressions)
  std::map<std::string, std::pair<const FileArtifact*, std::size_t>> by_file;
  for (const FileArtifact& art : arts) {
    const std::string& file = art.index.file;
    by_file[file] = {&art, report.suppressions.size()};
    for (const Suppression& s : art.suppressions) {
      SuppressionRecord rec;
      rec.file = file;
      rec.line = s.line;
      for (std::size_t i = 0; i < s.rules.size(); ++i) {
        if (i) rec.rules += ",";
        rec.rules += s.rules[i];
      }
      rec.reason = s.reason;
      report.suppressions.push_back(std::move(rec));
    }
    for (const RawFinding& f : art.findings) {
      Finding fd;
      fd.rule = f.rule;
      fd.file = file;
      fd.line = f.line;
      fd.message = f.message;
      found.push_back(std::move(fd));
    }
  }
  for (Finding& fd : found) {
    // lint-allow-needs-reason is deliberately unsuppressable: a directive
    // cannot vouch for itself.
    const auto& [art, first_record] = by_file.at(fd.file);
    const std::size_t di =
        fd.rule == "lint-allow-needs-reason"
            ? static_cast<std::size_t>(-1)
            : match_suppression(art->suppressions, fd.rule, fd.line);
    if (di != static_cast<std::size_t>(-1)) {
      fd.suppressed = true;
      fd.suppress_reason = art->suppressions[di].reason;
      report.suppressions[first_record + di].used = true;
    }
    report.findings.push_back(std::move(fd));
  }
  report.files_scanned += arts.size();

  std::sort(report.findings.begin(), report.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  std::sort(report.suppressions.begin(), report.suppressions.end(),
            [](const SuppressionRecord& a, const SuppressionRecord& b) {
              return std::tie(a.file, a.line) < std::tie(b.file, b.line);
            });
}

}  // namespace

std::size_t Report::unsuppressed() const {
  std::size_t n = 0;
  for (const Finding& f : findings) n += f.suppressed ? 0 : 1;
  return n;
}

std::size_t Report::suppressed() const {
  return findings.size() - unsuppressed();
}

void check_file(const std::string& rel_path, std::string_view content,
                Report& report) {
  add_artifacts({analyze_file(rel_path, content)}, report);
}

Report run(const Options& opt) {
  Report report;
  std::vector<std::string> paths = opt.paths;
  if (paths.empty()) paths = {"src", "bench", "examples", "tests", "tools"};

  std::vector<std::pair<std::string, fs::path>> files;  // (rel, absolute)
  const fs::path root = fs::path(opt.root);
  for (const std::string& p : paths) {
    const fs::path base = root / p;
    std::error_code ec;
    if (fs::is_regular_file(base, ec)) {
      files.emplace_back(fs::relative(base, root, ec).generic_string(), base);
      continue;
    }
    if (!fs::is_directory(base, ec)) continue;
    for (fs::recursive_directory_iterator it(base, ec), end; it != end;
         it.increment(ec)) {
      if (ec) break;
      if (!it->is_regular_file(ec) || !lintable_extension(it->path()))
        continue;
      std::string rel = fs::relative(it->path(), root, ec).generic_string();
      if (opt.default_excludes &&
          rel.find("tests/lint/fixtures") != std::string::npos)
        continue;
      files.emplace_back(std::move(rel), it->path());
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  // Every file's artifact is kept: the index rules read the whole tree.
  std::vector<FileArtifact> artifacts;
  artifacts.reserve(files.size());
  for (const auto& [rel, abs] : files) {
    std::ifstream in(abs, std::ios::binary);
    if (!in) continue;
    std::ostringstream buf;
    buf << in.rdbuf();
    artifacts.push_back(analyze_file(rel, buf.str()));
  }
  add_artifacts(artifacts, report);

  // --since/--changed-only: the whole tree was indexed (chains may pass
  // through unchanged files) but only the listed files are *reported*.
  if (opt.only_report_listed) {
    const std::set<std::string> keep(opt.only_report.begin(),
                                     opt.only_report.end());
    auto drop = [&](const std::string& file) { return !keep.count(file); };
    report.findings.erase(
        std::remove_if(report.findings.begin(), report.findings.end(),
                       [&](const Finding& f) { return drop(f.file); }),
        report.findings.end());
    report.suppressions.erase(
        std::remove_if(report.suppressions.begin(), report.suppressions.end(),
                       [&](const SuppressionRecord& s) {
                         return drop(s.file);
                       }),
        report.suppressions.end());
  }
  return report;
}

std::string Report::text() const {
  std::ostringstream out;
  for (const Finding& f : findings) {
    if (f.suppressed) continue;
    out << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message
        << "\n";
    if (const RuleInfo* info = rule_info(f.rule)) {
      out << "    hint: " << info->hint << "\n";
    }
    for (const ChainStep& step : f.chain) {
      out << "    chain: " << step.file << ":" << step.line << " — "
          << step.note << "\n";
    }
    for (const ChainStep& step : f.counter_chain) {
      out << "    inverse: " << step.file << ":" << step.line << " — "
          << step.note << "\n";
    }
  }
  for (const Finding& f : findings) {
    if (!f.suppressed) continue;
    out << "suppressed: " << f.file << ":" << f.line << " [" << f.rule
        << "] — " << f.suppress_reason << "\n";
  }
  for (const SuppressionRecord& s : suppressions) {
    if (!s.used) {
      out << "note: unused suppression at " << s.file << ":" << s.line
          << " allow(" << s.rules << ")\n";
    }
  }
  out << "ckptfi-lint: " << files_scanned << " file(s), "
      << findings.size() << " finding(s), " << unsuppressed()
      << " unsuppressed, " << suppressed() << " suppressed ("
      << suppressions.size() << " allow directive(s))\n";
  return out.str();
}

Json Report::sarif() const {
  Json driver = Json::object();
  driver["name"] = "ckptfi-lint";
  driver["informationUri"] = "docs/LINT.md";
  Json rule_list = Json::array();
  for (const RuleInfo& r : rules()) {
    Json jr = Json::object();
    jr["id"] = r.id;
    Json sd = Json::object();
    sd["text"] = r.summary;
    jr["shortDescription"] = std::move(sd);
    Json help = Json::object();
    help["text"] = r.hint;
    jr["help"] = std::move(help);
    rule_list.push_back(std::move(jr));
  }
  driver["rules"] = std::move(rule_list);

  Json results = Json::array();
  for (const Finding& f : findings) {
    Json res = Json::object();
    res["ruleId"] = f.rule;
    res["level"] = "error";
    Json msg = Json::object();
    msg["text"] = f.message;
    res["message"] = std::move(msg);
    Json locs = Json::array();
    locs.push_back(location_json(f.file, f.line));
    res["locations"] = std::move(locs);
    if (!f.chain.empty()) {
      // Chain evidence (and, for lock-order inversions, the inverse chain
      // as a second thread flow — the two threads that deadlock against
      // each other).
      Json flows = Json::array();
      flows.push_back(thread_flow_json(f.chain));
      if (!f.counter_chain.empty())
        flows.push_back(thread_flow_json(f.counter_chain));
      Json cf = Json::object();
      cf["threadFlows"] = std::move(flows);
      Json cfs = Json::array();
      cfs.push_back(std::move(cf));
      res["codeFlows"] = std::move(cfs);

      Json related = Json::array();
      for (const ChainStep& step : f.chain) {
        Json loc = location_json(step.file, step.line);
        Json m = Json::object();
        m["text"] = step.note;
        loc["message"] = std::move(m);
        related.push_back(std::move(loc));
      }
      for (const ChainStep& step : f.counter_chain) {
        Json loc = location_json(step.file, step.line);
        Json m = Json::object();
        m["text"] = step.note;
        loc["message"] = std::move(m);
        related.push_back(std::move(loc));
      }
      res["relatedLocations"] = std::move(related);
    }
    if (f.suppressed) {
      Json sup = Json::object();
      sup["kind"] = "inSource";
      sup["justification"] = f.suppress_reason;
      Json sups = Json::array();
      sups.push_back(std::move(sup));
      res["suppressions"] = std::move(sups);
    }
    results.push_back(std::move(res));
  }

  Json tool = Json::object();
  tool["driver"] = std::move(driver);
  Json props = Json::object();
  props["filesScanned"] = files_scanned;
  props["unsuppressed"] = unsuppressed();
  props["suppressed"] = suppressed();
  Json run_obj = Json::object();
  run_obj["tool"] = std::move(tool);
  run_obj["results"] = std::move(results);
  run_obj["properties"] = std::move(props);
  Json runs = Json::array();
  runs.push_back(std::move(run_obj));

  Json doc = Json::object();
  doc["version"] = "2.1.0";
  doc["$schema"] =
      "https://json.schemastore.org/sarif-2.1.0.json";
  doc["runs"] = std::move(runs);
  return doc;
}

}  // namespace ckptfi::lint
