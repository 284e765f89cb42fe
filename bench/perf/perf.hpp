// ckptfi_perf: the campaign performance benchmark (bench/perf/README.md).
//
// Four canonical campaigns run through the library's public entry points
// (core::Campaign, core::TrialScheduler, core::TrialLogWriter, fleet::Fleetd,
// fleet::run_worker). A run measures end-to-end metrics with every obs
// facility off; `--trace 1` adds a traced half that turns the program's own
// registry and spans on and reports per-layer numbers.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "util/json.hpp"

namespace ckptfi::perf {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One canonical campaign. `campaign.trainings` is the trials per cell of
/// one pass; every pass re-runs the same trials, so every pass commits the
/// same artifact bytes.
struct Workload {
  std::string name;
  core::CampaignOptions campaign;
  bool fleet = false;
};

extern const char* const kWorkloadNames[4];

/// Throws Error on an unknown name. `tiny` shrinks the campaign for the
/// smoke test.
Workload make_workload(const std::string& name, std::uint64_t seed, bool tiny);

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::size_t jobs = 0;  ///< trials in flight; 0 = min(4, nproc)
  std::string workdir = ".";
  /// Test hook: flip one byte of the first reference row before comparing,
  /// so the smoke test can prove the gate catches a mismatch.
  bool corrupt_reference = false;
};

/// Run one workload in the calling process (which must not have started a
/// thread yet: the fleet forks its workers). Prints the human report on
/// stdout and returns {"correct", "attempted", "failed", "metrics"}.
Json run_workload(const RunConfig& cfg);

/// One completed span, from the program's TraceRecorder or the harness.
struct SpanEvent {
  std::string name;
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;
  std::int64_t tid = 0;  ///< unique across the processes merged
};

/// Events of a TraceRecorder::to_json() document; `tid_base` keeps the
/// threads of different processes apart.
void append_trace_events(const Json& trace, std::int64_t tid_base,
                         std::vector<SpanEvent>& out);

/// Self time (span duration minus the time its child spans cover) summed by
/// span name over every span nested in a "campaign.trial" span. The trial
/// spans' own self time, and that of the harness's span around
/// Campaign::run_trial, is reported as "unattributed", so the shares add up
/// to the total trial wall time.
struct StageTable {
  struct Row {
    std::string name;
    double self_s = 0.0;
  };
  std::vector<Row> rows;  ///< descending self time, "unattributed" included
  double trial_wall_s = 0.0;
  std::size_t trials = 0;
  std::vector<double> trial_s;  ///< each trial span's duration

  double share(const std::string& name) const;
};

StageTable stage_table(const std::vector<SpanEvent>& events);
void print_stage_table(const StageTable& t);

/// `--compare A B`: per workload and end-to-end metric, both sides' median
/// and quartiles and a verdict against the bounds in `bounds_path`. A side is
/// a BENCH file, or `FILE@N` for its N-th set of runs. Returns the exit code.
int compare(const std::string& a, const std::string& b,
            const std::string& bounds_path);

}  // namespace ckptfi::perf
