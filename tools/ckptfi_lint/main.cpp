// ckptfi_lint CLI — the CI gate.
//
//   ckptfi_lint [--root=DIR] [--json=PATH] [--no-default-excludes]
//               [--since=REV] [--changed-only] [--list-rules]
//               [--list-scopes] [paths...]
//
// Paths default to `src bench examples tests tools`, resolved against
// --root (default: the current directory). Exit status: 0 when every finding
// is suppressed with a written reason, 1 when unsuppressed findings remain,
// 2 on usage errors.
//
// `--since=REV` reports findings only for files `git diff --name-only REV`
// lists — the whole tree is still indexed so that interprocedural chains
// through unchanged files stay visible. `--changed-only` is `--since=HEAD`.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "lint.hpp"
#include "scopes.hpp"

namespace {

/// Root-relative files `git diff --name-only <rev>` reports under `root`.
/// Returns false when git itself fails (not a repo, unknown rev).
bool git_changed_files(const std::string& root, const std::string& rev,
                       std::vector<std::string>& out) {
  const std::string cmd = "git -C '" + root + "' diff --name-only '" + rev +
                          "' -- 2>/dev/null";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (!pipe) return false;
  char line[4096];
  while (std::fgets(line, sizeof(line), pipe)) {
    std::string s(line);
    while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) s.pop_back();
    if (!s.empty()) out.push_back(std::move(s));
  }
  return pclose(pipe) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  ckptfi::lint::Options opt;
  std::string json_out;
  std::string since;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") {
      for (const auto& r : ckptfi::lint::rules()) {
        std::printf("%-28s %s\n", r.id.c_str(), r.summary.c_str());
      }
      return 0;
    }
    if (arg == "--list-scopes") {
      std::fputs(ckptfi::lint::scopes_dump().c_str(), stdout);
      return 0;
    }
    if (arg == "--no-default-excludes") {
      opt.default_excludes = false;
      continue;
    }
    if (arg.rfind("--since=", 0) == 0) {
      since = arg.substr(8);
      continue;
    }
    if (arg == "--changed-only") {
      since = "HEAD";
      continue;
    }
    if (arg.rfind("--root=", 0) == 0) {
      opt.root = arg.substr(7);
      continue;
    }
    if (arg.rfind("--json=", 0) == 0) {
      json_out = arg.substr(7);
      continue;
    }
    if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr,
                   "usage: ckptfi_lint [--root=DIR] [--json=PATH] "
                   "[--no-default-excludes] [--since=REV] "
                   "[--changed-only] [--list-rules] [--list-scopes] "
                   "[paths...]\n");
      return 2;
    }
    opt.paths.push_back(arg);
  }
  if (!since.empty()) {
    opt.only_report_listed = true;
    if (!git_changed_files(opt.root, since, opt.only_report)) {
      std::fprintf(stderr, "ckptfi_lint: git diff --name-only '%s' failed\n",
                   since.c_str());
      return 2;
    }
  }

  const ckptfi::lint::Report report = ckptfi::lint::run(opt);
  std::fputs(report.text().c_str(), stdout);

  if (!json_out.empty()) {
    std::ofstream out(json_out, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "ckptfi_lint: cannot write '%s'\n",
                   json_out.c_str());
      return 2;
    }
    out << report.sarif().dump(2) << "\n";
  }
  return report.unsuppressed() == 0 ? 0 : 1;
}
