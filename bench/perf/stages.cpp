// Per-stage self time of campaign trials, from the program's span trace.
#include <algorithm>
#include <cstdio>
#include <map>

#include "perf.hpp"

namespace ckptfi::perf {

void append_trace_events(const Json& trace, std::int64_t tid_base,
                         std::vector<SpanEvent>& out) {
  for (const Json& e : trace.at("traceEvents").items()) {
    SpanEvent ev;
    ev.name = e.at("name").as_string();
    ev.ts_us = e.at("ts").as_int();
    ev.dur_us = e.at("dur").as_int();
    ev.tid = tid_base + e.at("tid").as_int();
    out.push_back(std::move(ev));
  }
}

double StageTable::share(const std::string& name) const {
  for (const Row& r : rows) {
    if (r.name == name && trial_wall_s > 0.0) return r.self_s / trial_wall_s;
  }
  return 0.0;
}

StageTable stage_table(const std::vector<SpanEvent>& events) {
  // Per thread, in start order with enclosing spans first, a stack of open
  // spans gives each span its parent; a span's self time is its duration
  // minus its direct children's.
  std::vector<std::size_t> order(events.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const SpanEvent& x = events[a];
    const SpanEvent& y = events[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.ts_us != y.ts_us) return x.ts_us < y.ts_us;
    return x.dur_us > y.dur_us;
  });
  std::vector<std::int64_t> child_us(events.size(), 0);
  std::vector<char> in_trial(events.size(), 0);
  std::vector<std::size_t> open;
  StageTable t;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::size_t i = order[k];
    const SpanEvent& e = events[i];
    if (k > 0 && events[order[k - 1]].tid != e.tid) open.clear();
    while (!open.empty() && e.ts_us >= events[open.back()].ts_us +
                                           events[open.back()].dur_us) {
      open.pop_back();
    }
    if (!open.empty()) {
      child_us[open.back()] += e.dur_us;
      in_trial[i] = in_trial[open.back()];
    }
    if (e.name == "campaign.trial" && in_trial[i] == 0) {
      in_trial[i] = 1;
      t.trial_wall_s += 1e-6 * static_cast<double>(e.dur_us);
      t.trial_s.push_back(1e-6 * static_cast<double>(e.dur_us));
      ++t.trials;
    }
    open.push_back(i);
  }

  std::map<std::string, double> self;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (in_trial[i] == 0) continue;
    const double s =
        1e-6 * static_cast<double>(std::max<std::int64_t>(
                   0, events[i].dur_us - child_us[i]));
    // Trial time no narrower span claims.
    const bool bare = events[i].name == "campaign.trial" ||
                      events[i].name == "bench.run_trial";
    self[bare ? "unattributed" : events[i].name] += s;
  }
  for (const auto& [name, s] : self) t.rows.push_back({name, s});
  std::sort(t.rows.begin(), t.rows.end(),
            [](const StageTable::Row& a, const StageTable::Row& b) {
              return a.self_s > b.self_s;
            });
  return t;
}

void print_stage_table(const StageTable& t) {
  std::printf("\nwhere trial time goes (self time, %zu traced trials, %.3f s)\n",
              t.trials, t.trial_wall_s);
  std::printf("%-34s %12s %8s\n", "span", "self s", "share");
  double total = 0.0;
  for (const StageTable::Row& r : t.rows) {
    const double share = t.share(r.name);
    total += share;
    std::printf("%-34s %12.4f %7.2f%%\n", r.name.c_str(), r.self_s,
                100.0 * share);
  }
  std::printf("%-34s %12s %7.2f%%\n", "total", "", 100.0 * total);
}

}  // namespace ckptfi::perf
