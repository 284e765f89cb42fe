// ckptfi-report CLI: aggregate --trials-out JSONL campaign artifacts into
// sensitivity tables and a propagation-depth breakdown.
//
// usage: ckptfi_report [--json=PATH] [--cell=SUBSTRING] [--metrics=PATH]
//     trials.jsonl [...]
//
//   --json=PATH       also write the full analysis as JSON to PATH
//   --cell=SUBSTRING  only analyze rows whose "cell" contains SUBSTRING
//   --metrics=PATH    read a bench --json-out metrics snapshot and report
//                     its prefix-reuse telemetry (prefix.hits/misses/
//                     segments_skipped, bytes cached) and
//                     its kernel-compute telemetry (kernels.* timing
//                     histograms, active backend tier / simd ISA / GEMM
//                     precision from the run_start event)
//
// Positional arguments (and --in=PATH, equivalently) name JSONL files as
// written by any campaign bench's --trials-out; multiple files concatenate,
// so a sharded campaign can be analyzed in one call.
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "report.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--json=PATH] [--cell=SUBSTRING] "
               "[--metrics=PATH] trials.jsonl [more.jsonl ...]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> inputs;
  std::string json_out;
  std::string cell_filter;
  std::string metrics_in;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      inputs.push_back(arg);
      continue;
    }
    const auto eq = arg.find('=');
    if (eq == std::string::npos) return usage(argv[0]);
    const std::string key = arg.substr(2, eq - 2);
    const std::string val = arg.substr(eq + 1);
    if (key == "in") {
      inputs.push_back(val);
    } else if (key == "json") {
      json_out = val;
    } else if (key == "cell") {
      cell_filter = val;
    } else if (key == "metrics") {
      metrics_in = val;
    } else {
      std::fprintf(stderr, "unknown option --%s\n", key.c_str());
      return usage(argv[0]);
    }
  }
  if (inputs.empty()) return usage(argv[0]);

  try {
    std::vector<ckptfi::Json> rows;
    for (const std::string& path : inputs) {
      for (auto& row : ckptfi::report::load_jsonl(path)) {
        if (!cell_filter.empty()) {
          const std::string cell =
              row.contains("cell") ? row.at("cell").as_string() : "";
          if (cell.find(cell_filter) == std::string::npos) continue;
        }
        rows.push_back(std::move(row));
      }
    }
    const ckptfi::report::Analysis analysis = ckptfi::report::analyze(rows);
    std::fputs(ckptfi::report::render_text(analysis).c_str(), stdout);
    ckptfi::Json prefix = ckptfi::Json::object();
    ckptfi::Json kernels = ckptfi::Json::object();
    if (!metrics_in.empty()) {
      std::ifstream min(metrics_in);
      if (!min) {
        std::fprintf(stderr, "ckptfi-report: cannot read '%s'\n",
                     metrics_in.c_str());
        return 1;
      }
      std::ostringstream buf;
      buf << min.rdbuf();
      const ckptfi::Json snapshot = ckptfi::Json::parse(buf.str());
      prefix = ckptfi::report::prefix_metrics(snapshot);
      const std::string section = ckptfi::report::render_prefix_metrics(prefix);
      std::fputs(section.empty()
                     ? "no prefix-reuse activity in the metrics snapshot\n"
                     : section.c_str(),
                 stdout);
      kernels = ckptfi::report::kernel_metrics(snapshot);
      const std::string ksection =
          ckptfi::report::render_kernel_metrics(kernels);
      if (!ksection.empty()) std::fputs(ksection.c_str(), stdout);
    }
    if (!json_out.empty()) {
      std::ofstream out(json_out, std::ios::trunc);
      if (!out) {
        std::fprintf(stderr, "ckptfi-report: cannot write '%s'\n",
                     json_out.c_str());
        return 1;
      }
      ckptfi::Json j = analysis.to_json();
      if (!metrics_in.empty()) {
        j["prefix_reuse"] = std::move(prefix);
        j["kernels"] = std::move(kernels);
      }
      out << j.dump(2) << "\n";
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  return 0;
}
