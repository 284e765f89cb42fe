// `ckptfi_perf --compare`: two sets of runs, metric by metric, against the
// regression bounds the benchmark fixes in BENCHMARK.json.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "perf.hpp"
#include "util/common.hpp"

namespace ckptfi::perf {

namespace {

struct Quartiles {
  double q1 = 0.0, median = 0.0, q3 = 0.0;
};

// Python's statistics.quantiles(v, n=4), the "exclusive" method — the one
// the acceptance spread is computed with. A single value is its own three
// quartiles.
Quartiles quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  if (v.size() < 2) {
    const double x = v.empty() ? 0.0 : v.front();
    return {x, x, x};
  }
  // statistics.quantiles(v, n=4, method="exclusive")
  const std::size_t m = v.size() + 1;
  double q[3];
  for (std::size_t i = 1; i <= 3; ++i) {
    const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, v.size() - 1);
    // Negative when the clamp raised j, as in Python's integer arithmetic.
    const double delta =
        static_cast<double>(i * m) - static_cast<double>(j * 4);
    q[i - 1] = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  }
  return {q[0], q[1], q[2]};
}

Json load_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot read '" + path + "'");
  std::stringstream buf;
  buf << in.rdbuf();
  return Json::parse(buf.str());
}

// workload -> metric -> values, from "FILE" (every set) or "FILE@N".
using Side = std::map<std::string, std::map<std::string, std::vector<double>>>;

Side load_side(const std::string& spec) {
  const auto at = spec.rfind('@');
  const std::string path = at == std::string::npos ? spec : spec.substr(0, at);
  const Json doc = load_json(path);
  const std::vector<Json>& sets = doc.at("sets").items();
  std::size_t first = 0;
  std::size_t last = sets.size();
  if (at != std::string::npos) {
    first = std::stoul(spec.substr(at + 1));
    if (first >= sets.size()) throw Error("'" + spec + "': no such set");
    last = first + 1;
  }
  Side side;
  for (std::size_t s = first; s < last; ++s) {
    for (const auto& [workload, runs] : sets[s].members()) {
      for (const Json& run : runs.items()) {
        for (const auto& [metric, m] : run.at("metrics").members()) {
          side[workload][metric].push_back(m.at("value").as_double());
        }
      }
    }
  }
  return side;
}

double rel_spread(const Quartiles& q) {
  return q.median != 0.0 ? (q.q3 - q.q1) / std::fabs(q.median) : 0.0;
}

}  // namespace

int compare(const std::string& a, const std::string& b,
            const std::string& bounds_path) {
  const Json bench = load_json(bounds_path);
  const Side A = load_side(a);
  const Side B = load_side(b);
  std::printf("A = %s, B = %s, bounds from %s\n", a.c_str(), b.c_str(),
              bounds_path.c_str());
  std::size_t worse = 0;
  for (const Json& w : bench.at("workloads").items()) {
    const std::string& name = w.at("name").as_string();
    if (A.count(name) == 0 || B.count(name) == 0) continue;
    std::printf("\n%s\n%-18s %-26s %-26s %8s %6s  %s\n", name.c_str(),
                "metric", "A median [q1, q3]", "B median [q1, q3]", "change",
                "bound", "verdict");
    for (const Json& m : bench.at("end_to_end").items()) {
      const std::string& metric = m.at("name").as_string();
      const auto va = A.at(name).find(metric);
      const auto vb = B.at(name).find(metric);
      if (va == A.at(name).end() || vb == B.at(name).end()) continue;
      const Quartiles qa = quartiles(va->second);
      const Quartiles qb = quartiles(vb->second);
      const bool lower = m.at("better").as_string() == "lower";
      const double bound = m.at("bound").as_double();
      // Positive = B is worse than A, as a share of A's median.
      const double change =
          qa.median != 0.0 ? (qb.median - qa.median) / std::fabs(qa.median) *
                                 (lower ? 1.0 : -1.0)
                           : 0.0;
      const auto [a_min, a_max] =
          std::minmax_element(va->second.begin(), va->second.end());
      const auto [b_min, b_max] =
          std::minmax_element(vb->second.begin(), vb->second.end());
      const bool every_b_better = lower ? *b_max < *a_min : *b_min > *a_max;
      // A spread wider than the bound cannot resolve a change of that size.
      const char* verdict = "within bound";
      if (std::max(rel_spread(qa), rel_spread(qb)) > bound) {
        verdict = every_b_better ? "better" : "unresolved";
      } else if (change > bound) {
        verdict = "worse";
        ++worse;
      } else if (-change > rel_spread(qa)) {
        verdict = "better";
      }
      std::printf(
          "%-18s %9.4g [%6.4g, %6.4g] %9.4g [%6.4g, %6.4g] %+7.1f%% %5.0f%%  "
          "%s\n",
          metric.c_str(), qa.median, qa.q1, qa.q3, qb.median, qb.q1, qb.q3,
          100.0 * change, 100.0 * bound, verdict);
    }
  }
  return worse == 0 ? 0 : 1;
}

}  // namespace ckptfi::perf
