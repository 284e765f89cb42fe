// Workloads, passes, the correctness gate and the metrics of one run.
//
// A run: set up the campaign, then run passes — each pass is the whole
// canonical campaign, cell by cell through core::TrialScheduler, its rows
// streamed in artifact order into a core::TrialLogWriter and committed —
// until the passes have measured --seconds. Every pass re-runs the same
// trials, so every untraced pass must commit the same bytes.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <thread>

#include "core/scheduler.hpp"
#include "core/trial_log.hpp"
#include "fleetd.hpp"
#include "obs/obs.hpp"
#include "perf.hpp"
#include "tensor/kernels.hpp"
#include "util/common.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "worker.hpp"

namespace ckptfi::perf {

namespace fs = std::filesystem;

const char* const kWorkloadNames[4] = {"train_grid", "predict_deep",
                                       "predict_full", "fleet_grid"};

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool tiny) {
  Workload w;
  w.name = name;
  core::CampaignOptions& o = w.campaign;
  o.seed = seed;
  o.total_epochs = 2;
  o.restart_epoch = 1;
  o.resume_epochs = 1;
  if (name == "train_grid" || name == "fleet_grid") {
    // Table IV: 3 frameworks x 3 models x 4 flip rates, 6 trials a cell,
    // each resuming one epoch of training from a corrupted checkpoint.
    o.bench = "table4";
    o.trainings = tiny ? 1 : 6;
    o.train_images = tiny ? 8 : 64;
    o.test_images = tiny ? 8 : 32;
    o.width = tiny ? 2 : 4;
    w.fleet = name == "fleet_grid";
    return w;
  }
  if (name == "predict_deep" || name == "predict_full") {
    // Fig 4 in predict mode on chainer/alexnet: 1000 flips into one layer,
    // then inference over the test set. fc8 enters the network at its last
    // segment (prefix cache hit); conv1 enters at segment 0 (full forward).
    o.bench = "fig4";
    o.mode = "predict";
    o.layers = {name == "predict_deep" ? "fc8" : "conv1"};
    o.trainings = tiny ? 8 : (name == "predict_deep" ? 1000 : 128);
    o.train_images = tiny ? 16 : 64;
    o.test_images = tiny ? 32 : 256;
    o.width = tiny ? 2 : 8;
    return w;
  }
  throw Error("unknown workload '" + name +
              "' (train_grid, predict_deep, predict_full, fleet_grid)");
}

namespace {

// Set-ups repeat at least kSetupReps times and until kSetupBudgetS seconds
// of them are measured, so a cheap set-up gets a median of more samples.
constexpr std::size_t kSetupReps = 3;
constexpr std::size_t kSetupMaxReps = 15;
constexpr double kSetupBudgetS = 1.5;
constexpr std::size_t kGateSamples = 8;
constexpr int kFleetWorkers = 2;
constexpr std::size_t kFleetShardTrials = 6;

double tv_s(const timeval& t) {
  return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
}

double self_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return tv_s(ru.ru_utime) + tv_s(ru.ru_stime);
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double median(const std::vector<double>& v) {
  return v.empty() ? 0.0 : quantile(v, 0.5);
}

double percentile(const std::vector<double>& v, double q) {
  return v.empty() ? 0.0 : quantile(v, q);
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// A harness span: times its scope and, while tracing is on, records it in
// the program's TraceRecorder so the program's own spans nest under it.
class BenchSpan {
 public:
  explicit BenchSpan(const char* name) : name_(name), start_(Clock::now()) {}
  ~BenchSpan() {
    if (!stopped_) stop();
  }
  BenchSpan(const BenchSpan&) = delete;
  BenchSpan& operator=(const BenchSpan&) = delete;

  double stop() {
    const auto end = Clock::now();
    stopped_ = true;
    if (obs::tracing_enabled()) {
      obs::TraceRecorder::global().record_complete(name_, "bench", start_, end);
    }
    return seconds_between(start_, end);
  }

 private:
  const char* name_;
  Clock::time_point start_;
  bool stopped_ = false;
};

// Streams one cell's rows into the artifact in trial order as they finish: a
// row waits only for the rows before it, never for the whole cell.
class OrderedRows {
 public:
  OrderedRows(core::TrialLogWriter& out, std::size_t n)
      : out_(out), rows_(n), done_(n, 0) {}

  /// `line` is empty for a trial that threw; its row is left out.
  void put(std::size_t i, std::optional<std::string> line) {
    std::lock_guard lock(mu_);
    rows_[i] = std::move(line);
    done_[i] = 1;
    while (next_ < rows_.size() && done_[next_] != 0) {
      if (rows_[next_]) out_.write_line(*rows_[next_]);
      rows_[next_].reset();
      ++next_;
    }
  }

 private:
  core::TrialLogWriter& out_;
  std::mutex mu_;  // guards rows_, done_, next_ and writes to out_
  std::vector<std::optional<std::string>> rows_;
  std::vector<char> done_;
  std::size_t next_ = 0;
};

struct Pass {
  std::size_t trials = 0;  ///< attempted
  double wall_s = 0.0;     ///< first trial (or coordinator start) to commit
  double cpu_s = 0.0;      ///< this process plus the pass's worker processes
  // In-process passes.
  std::vector<double> trial_s;  ///< run_trial + row dump, per trial
  std::vector<double> dump_s;
  double busy_s = 0.0;   ///< sum of trial-body times, ordered writes included
  double write_s = 0.0;  ///< ordered writes + flushes + commit
  // Fleet passes.
  double start_s = 0.0;  ///< coordinator start + worker spawn
  double worker_cpu_s = 0.0;
  double worker_rss_mb = 0.0;  ///< sum over the pass's workers
  std::size_t worker_failures = 0;
  fleet::FleetdStats stats;
};

Pass run_pass(core::Campaign& c, std::size_t jobs, const std::string& path) {
  Pass p;
  const double cpu0 = self_cpu_s();
  const auto t0 = Clock::now();
  core::TrialLogWriter out;
  out.open(path);
  std::mutex mu;  // guards p's per-trial vectors and sums
  bool reported = false;
  for (const core::CampaignCell& cell : c.cells()) {
    OrderedRows rows(out, cell.trials);
    core::TrialScheduler::Config sc;
    sc.jobs = jobs;
    sc.campaign_seed = c.cell_seed(cell.name);
    core::TrialScheduler(sc).run_range(
        0, cell.trials, [&](const core::TrialContext& trial) {
          const auto start = Clock::now();
          std::optional<std::string> line;
          double dump = 0.0;
          try {
            BenchSpan run("bench.run_trial");
            const Json row = c.run_trial(cell.name, trial);
            run.stop();
            BenchSpan dumping("trial_log.dump");
            line = row.dump();
            dump = dumping.stop();
          } catch (const std::exception& e) {
            std::lock_guard lock(mu);
            if (!reported) {
              reported = true;
              std::fprintf(stderr, "ckptfi_perf: %s trial %zu threw: %s\n",
                           cell.name.c_str(), trial.index, e.what());
            }
          }
          const double latency = seconds_between(start, Clock::now());
          BenchSpan writing("trial_log.write");
          rows.put(trial.index, std::move(line));
          const double write = writing.stop();
          std::lock_guard lock(mu);
          p.trial_s.push_back(latency);
          p.dump_s.push_back(dump);
          p.busy_s += latency + write;
          p.write_s += write;
        });
    BenchSpan flushing("trial_log.write");
    out.flush();
    p.write_s += flushing.stop();
    p.trials += cell.trials;
  }
  BenchSpan committing("trial_log.write");
  out.commit();
  p.write_s += committing.stop();
  p.wall_s = seconds_between(t0, Clock::now());
  p.cpu_s = self_cpu_s() - cpu0;
  return p;
}

// Body of a forked fleet worker. Runs in a copy of the coordinator process
// taken before any thread started; its global pool does not exist yet, so
// CKPTFI_THREADS sizes it.
int worker_main(std::uint16_t port, std::size_t jobs,
                const std::string& trace_path) {
  setenv("CKPTFI_THREADS", std::to_string(jobs).c_str(), 1);
  obs::TraceRecorder::global().clear();
  obs::Registry::global().reset_values();
  fleet::WorkerOptions wo;
  wo.port = port;
  wo.jobs = jobs;
  const int rc = fleet::run_worker(wo);
  if (rc != 0 || trace_path.empty()) return rc;
  try {
    Json doc = Json::object();
    doc["registry"] = obs::Registry::global().to_json();
    doc["trace"] = obs::TraceRecorder::global().to_json();
    std::ofstream out(trace_path, std::ios::trunc);
    out << doc.dump() << "\n";
    return out ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ckptfi_perf worker: %s\n", e.what());
    return 1;
  }
}

// The worker processes of one fleet pass: reaped with their resource usage
// on the normal path, killed and reaped if the pass throws.
class Workers {
 public:
  Workers() = default;
  ~Workers() {
    for (const pid_t pid : pids_) {
      kill(pid, SIGKILL);
      waitpid(pid, nullptr, 0);
    }
  }
  Workers(const Workers&) = delete;
  Workers& operator=(const Workers&) = delete;

  void add(pid_t pid) { pids_.push_back(pid); }

  void reap(Pass& p) {
    for (const pid_t pid : pids_) {
      int status = 0;
      rusage ru{};
      if (wait4(pid, &status, 0, &ru) != pid) {
        ++p.worker_failures;
        continue;
      }
      p.worker_cpu_s += tv_s(ru.ru_utime) + tv_s(ru.ru_stime);
      p.worker_rss_mb += static_cast<double>(ru.ru_maxrss) / 1024.0;
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) ++p.worker_failures;
    }
    pids_.clear();
  }

 private:
  std::vector<pid_t> pids_;
};

std::string worker_trace_path(const std::string& dir, int i) {
  return (fs::path(dir) / ("fleet_worker" + std::to_string(i) + ".json"))
      .string();
}

// One fleet campaign: an in-process coordinator, kFleetWorkers forked
// workers over loopback. `trace_dir` non-empty = workers save their registry
// and trace there.
Pass run_fleet_pass(const Json& manifest, std::size_t trials,
                    std::size_t jobs, const std::string& path,
                    const std::string& trace_dir) {
  Pass p;
  p.trials = trials;
  const std::size_t worker_jobs = std::max<std::size_t>(1, jobs / 2);
  const double cpu0 = self_cpu_s();
  std::fflush(nullptr);
  const auto t0 = Clock::now();
  fleet::FleetdOptions fo;
  fo.manifest = manifest;
  fo.trials_out = path;
  fo.shard_trials = kFleetShardTrials;
  fleet::Fleetd fleetd(fo);
  fleetd.start();
  Workers workers;
  for (int i = 0; i < kFleetWorkers; ++i) {
    const pid_t pid = fork();
    if (pid < 0) throw Error("fork failed");
    if (pid == 0) {
      const std::string trace =
          trace_dir.empty() ? "" : worker_trace_path(trace_dir, i);
      _exit(worker_main(fleetd.port(), worker_jobs, trace));
    }
    workers.add(pid);
  }
  p.start_s = seconds_between(t0, Clock::now());
  p.stats = fleetd.run();
  workers.reap(p);
  p.wall_s = seconds_between(t0, Clock::now());
  p.cpu_s = self_cpu_s() - cpu0 + p.worker_cpu_s;
  return p;
}

struct Setup {
  std::unique_ptr<core::Campaign> campaign;
  double total_s = 0.0;    ///< Campaign::make + every prepare_cell
  double prepare_s = 0.0;  ///< the prepare_cell part
};

Setup set_up(const core::CampaignOptions& o) {
  Setup s;
  const auto t0 = Clock::now();
  s.campaign = core::Campaign::make(o);
  const auto t1 = Clock::now();
  for (const core::CampaignCell& cell : s.campaign->cells()) {
    s.campaign->prepare_cell(cell.name);
  }
  const auto t2 = Clock::now();
  s.total_s = seconds_between(t0, t2);
  s.prepare_s = seconds_between(t1, t2);
  return s;
}

// What a pass's committed artifact holds, slot by slot (slot = cell position
// x trials per cell + trial index).
struct Scan {
  std::size_t bad = 0;  ///< missing, stray, malformed or failing a check
  std::uint32_t crc = 0;
  std::uint64_t bytes = 0;
  std::vector<std::uint32_t> line_crc;
  std::vector<char> seen;
  std::vector<std::string> sampled;  ///< lines at the sample slots
};

// Reads "cell" and "trial", the first two keys every campaign row starts
// with.
bool parse_key(const std::string& line, std::string& cell, std::size_t& trial) {
  static const std::string kCell = "{\"cell\":\"";
  static const std::string kTrial = "\",\"trial\":";
  if (line.compare(0, kCell.size(), kCell) != 0) return false;
  const auto end = line.find(kTrial, kCell.size());
  if (end == std::string::npos) return false;
  cell = line.substr(kCell.size(), end - kCell.size());
  std::size_t pos = end + kTrial.size();
  if (pos >= line.size() || line[pos] < '0' || line[pos] > '9') return false;
  trial = 0;
  while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9') {
    trial = trial * 10 + static_cast<std::size_t>(line[pos] - '0');
    ++pos;
  }
  return pos < line.size() && line[pos] == ',';
}

// Checks every row of a committed artifact: present once, in artifact
// order, stamped with the campaign fingerprint; and, for Table IV, the top
// of the paper's N-EV staircase: at least 90% of the trainings hit with
// 1000 flips collapse (a few VGG16/ResNet50 ones survive on some seeds).
// The whole-file crc costs a second pass over the bytes, so it is computed
// only on request.
Scan scan_artifact(const std::string& path, const core::Campaign& c,
                   const std::vector<std::size_t>& samples, bool file_crc) {
  const std::vector<core::CampaignCell>& cells = c.cells();
  const std::size_t per_cell = cells.front().trials;
  const std::size_t slots = cells.size() * per_cell;
  const std::string fp_suffix =
      ",\"fp\":\"" + c.options().fingerprint_hex() + "\"}";
  const bool table4 = c.options().bench == "table4";
  std::map<std::string, std::size_t> cell_pos;
  for (std::size_t i = 0; i < cells.size(); ++i) cell_pos[cells[i].name] = i;

  Scan s;
  s.line_crc.assign(slots, 0);
  s.seen.assign(slots, 0);
  s.sampled.assign(samples.size(), "");
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot read artifact '" + path + "'");
  std::string line;
  std::string cell;
  std::size_t trial = 0;
  std::size_t next_slot = 0;  // slots must appear in ascending order
  std::size_t line_no = 0;
  std::size_t top_rows = 0;  // rows of the 1000-flip cells
  std::size_t top_collapsed = 0;
  const auto reject = [&](const char* why) {
    if (++s.bad <= 5) {
      std::fprintf(stderr, "ckptfi_perf: %s line %zu: %s\n", path.c_str(),
                   line_no, why);
    }
  };
  while (std::getline(in, line)) {
    ++line_no;
    s.bytes += line.size() + 1;
    if (file_crc) {
      line.push_back('\n');
      s.crc = crc32(line.data(), line.size(), s.crc);
      line.pop_back();
    }
    const bool keyed = parse_key(line, cell, trial);
    const auto pos = keyed ? cell_pos.find(cell) : cell_pos.end();
    if (pos == cell_pos.end() || trial >= per_cell) {
      reject("not a row of this campaign");
      continue;
    }
    const std::size_t slot = pos->second * per_cell + trial;
    if (slot < next_slot) {
      reject("duplicate or out of artifact order");
      continue;
    }
    next_slot = slot + 1;
    s.seen[slot] = 1;
    s.line_crc[slot] = crc32(line.data(), line.size());
    if (!ends_with(line, fp_suffix)) {
      reject("campaign fingerprint missing or wrong");
    } else if (table4 && ends_with(cell, "/1000")) {
      ++top_rows;
      try {
        if (Json::parse(line).at("collapsed").as_bool()) ++top_collapsed;
      } catch (const std::exception&) {
        reject("row is not valid JSON");
      }
    }
    for (std::size_t k = 0; k < samples.size(); ++k) {
      if (samples[k] == slot) s.sampled[k] = line;
    }
  }
  s.bad += static_cast<std::size_t>(
      std::count(s.seen.begin(), s.seen.end(), 0));
  const std::size_t needed = (9 * top_rows + 9) / 10;
  if (top_collapsed < needed) {
    std::fprintf(stderr,
                 "ckptfi_perf: %s: %zu of %zu trainings collapsed at 1000 "
                 "flips, fewer than 90%%\n",
                 path.c_str(), top_collapsed, top_rows);
    s.bad += needed - top_collapsed;
  }
  return s;
}

// Slots present in both scans whose lines differ.
std::size_t differing_rows(const Scan& a, const Scan& b) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < a.line_crc.size(); ++i) {
    if (a.seen[i] != 0 && b.seen[i] != 0 && a.line_crc[i] != b.line_crc[i]) ++n;
  }
  return n;
}

std::vector<std::size_t> pick_samples(std::size_t slots, std::uint64_t seed) {
  Rng rng(seed ^ 0x70657266ull);  // "perf"
  std::vector<std::size_t> out;
  while (out.size() < std::min(kGateSamples, slots)) {
    const auto s = static_cast<std::size_t>(rng.uniform_u64(slots));
    if (std::find(out.begin(), out.end(), s) == out.end()) out.push_back(s);
  }
  return out;
}

// Re-runs the sampled trials on the reference path — a freshly set-up
// campaign, one trial in flight, prefix reuse off — and compares each row
// with the artifact's byte for byte. Returns the number that differ.
std::size_t gate(core::Campaign& ref, const std::vector<std::size_t>& samples,
                 const std::vector<std::string>& lines, bool corrupt) {
  const std::size_t per_cell = ref.cells().front().trials;
  std::size_t mismatches = 0;
  for (std::size_t k = 0; k < samples.size(); ++k) {
    const core::CampaignCell& cell = ref.cells()[samples[k] / per_cell];
    const std::size_t index = samples[k] % per_cell;
    std::string got;
    try {
      core::TrialScheduler::Config sc;
      sc.jobs = 1;
      sc.campaign_seed = ref.cell_seed(cell.name);
      core::TrialScheduler(sc).run_range(
          index, index + 1, [&](const core::TrialContext& trial) {
            got = ref.run_trial(cell.name, trial).dump();
          });
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ckptfi_perf: reference %s trial %zu threw: %s\n",
                   cell.name.c_str(), index, e.what());
    }
    if (corrupt && k == 0 && !got.empty()) got[got.size() / 2] ^= 0x01;
    if (got.empty() || got != lines[k]) {
      ++mismatches;
      std::fprintf(stderr,
                   "ckptfi_perf: %s trial %zu differs from the reference "
                   "path\n",
                   cell.name.c_str(), index);
    }
  }
  return mismatches;
}

// Registry snapshots of one or more processes, summed: counters and
// histogram counts and sums add; a histogram's p50 becomes the count-weighted
// mean of the processes' p50s (the snapshots carry no buckets).
struct Registries {
  struct Hist {
    double count = 0.0, sum = 0.0, p50_weighted = 0.0;
  };
  std::map<std::string, double> counters;
  std::map<std::string, Hist> hists;

  void add(const Json& snap) {
    for (const auto& [name, v] : snap.at("counters").members()) {
      counters[name] += v.as_double();
    }
    for (const auto& [name, h] : snap.at("histograms").members()) {
      Hist& dst = hists[name];
      const double n = h.at("count").as_double();
      dst.count += n;
      dst.sum += h.at("sum").as_double();
      dst.p50_weighted += n * h.at("p50").as_double();
    }
  }
  double counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  }
  double sum(const std::string& name) const {
    const auto it = hists.find(name);
    return it == hists.end() ? 0.0 : it->second.sum;
  }
  double p50(const std::string& name) const {
    const auto it = hists.find(name);
    return it == hists.end() || it->second.count == 0.0
               ? 0.0
               : it->second.p50_weighted / it->second.count;
  }
  double ratio(const std::string& num, const std::string& other) const {
    const double a = counter(num);
    const double b = counter(other);
    return a + b > 0.0 ? a / (a + b) : 0.0;
  }
};

class Metrics {
 public:
  void add(const char* name, const char* unit, double value, std::size_t n) {
    rows_.push_back({name, unit, value, n});
  }

  void print(const char* title) const {
    std::printf("\n%s\n%-34s %16s  %-9s %s\n", title, "metric", "value",
                "unit", "n");
    for (const Row& r : rows_) {
      std::printf("%-34s %16.6g  %-9s %zu\n", r.name, r.value, r.unit, r.n);
    }
  }

  Json to_json() const {
    Json j = Json::object();
    for (const Row& r : rows_) {
      Json m = Json::object();
      m["value"] = r.value;
      m["unit"] = r.unit;
      j[r.name] = std::move(m);
    }
    return j;
  }

 private:
  struct Row {
    const char* name;
    const char* unit;
    double value;
    std::size_t n;
  };
  std::vector<Row> rows_;
};

struct Phase {
  std::vector<Pass> passes;
  std::size_t trials = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double busy_s = 0.0;

  double trials_per_s() const { return wall_s > 0.0 ? trials / wall_s : 0.0; }
  void add(Pass p) {
    trials += p.trials;
    wall_s += p.wall_s;
    cpu_s += p.cpu_s;
    busy_s += p.busy_s;
    passes.push_back(std::move(p));
  }
  template <typename F>
  std::vector<double> each(F f) const {
    std::vector<double> v;
    for (const Pass& p : passes) v.push_back(f(p));
    return v;
  }
};

}  // namespace

Json run_workload(const RunConfig& cfg) {
  const std::size_t jobs =
      cfg.jobs != 0 ? cfg.jobs
                    : std::clamp<std::size_t>(
                          std::thread::hardware_concurrency(), 1, 4);
  // The global pool is built on first use, so this sizes both the trial
  // fan-out and the kernels' parallel_for in this process.
  setenv("CKPTFI_THREADS", std::to_string(jobs).c_str(), 1);
  const Workload w = make_workload(cfg.workload, cfg.seed, cfg.tiny);
  fs::create_directories(cfg.workdir);
  const std::string artifact =
      (fs::path(cfg.workdir) / (w.name + ".jsonl")).string();

  // The campaign's shape (cells, fingerprint) for checking artifacts; the
  // fleet's manifest is built from it.
  const std::unique_ptr<core::Campaign> shape = core::Campaign::make(w.campaign);
  const std::size_t slots = shape->cells().size() * w.campaign.trainings;
  const Json manifest = core::campaign_manifest(*shape);
  const std::vector<std::size_t> samples = pick_samples(slots, cfg.seed);

  std::vector<double> setup_total;
  std::vector<double> setup_prepare;
  std::unique_ptr<core::Campaign> campaign;
  std::unique_ptr<core::Campaign> ref;
  // One set-up of the campaign; the reference copy for the gate has prefix
  // reuse off.
  const auto set_up_rep = [&](bool reference) {
    core::CampaignOptions o = w.campaign;
    if (reference) o.prefix_reuse = false;
    Setup s = set_up(o);
    setup_total.push_back(s.total_s);
    setup_prepare.push_back(s.prepare_s);
    return std::move(s.campaign);
  };
  // The fleet's coordinator process must not start a thread before its last
  // fork, so its set-ups all come after the passes.
  if (!w.fleet) campaign = set_up_rep(false);

  std::size_t failed = 0;
  std::optional<Scan> ref_scan;
  Registries registries;  // traced passes only
  std::vector<SpanEvent> events;
  std::int64_t worker_traces = 0;
  const auto collect_worker_traces = [&] {
    for (int i = 0; i < kFleetWorkers; ++i) {
      std::ifstream in(worker_trace_path(cfg.workdir, i));
      const std::string text((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
      const Json doc = Json::parse(text);
      registries.add(doc.at("registry"));
      append_trace_events(doc.at("trace"), 1000 * ++worker_traces, events);
    }
  };
  const auto run_phase = [&](bool traced) {
    Phase ph;
    if (traced) {
      obs::set_metrics_enabled(true);
      obs::set_tracing_enabled(true);
      obs::Registry::global().reset_values();
      obs::TraceRecorder::global().clear();
    }
    do {
      Pass p = w.fleet ? run_fleet_pass(manifest, slots, jobs, artifact,
                                        traced ? cfg.workdir : "")
                       : run_pass(*campaign, jobs, artifact);
      failed += p.worker_failures;
      if (traced && w.fleet && p.worker_failures == 0) collect_worker_traces();
      Scan s = scan_artifact(artifact, *shape, samples,
                             !traced && !ref_scan);
      failed += s.bad;
      // Traced rows carry wall_ms/rng_draw provenance, so only untraced
      // passes are held to byte identity.
      if (!traced) {
        if (ref_scan) {
          failed += differing_rows(*ref_scan, s);
        } else {
          ref_scan = std::move(s);
        }
      }
      ph.add(std::move(p));
    } while (ph.wall_s < cfg.seconds);
    if (traced) {
      obs::set_metrics_enabled(false);
      obs::set_tracing_enabled(false);
    }
    return ph;
  };

  std::printf("== ckptfi_perf %s  seed %llu  jobs %zu  kernels %s/%s/%s ==\n",
              w.name.c_str(), static_cast<unsigned long long>(cfg.seed), jobs,
              kernel_backend_name(), simd_isa_name(), gemm_precision_name());
  std::printf("campaign %s %s: %zu cells x %zu trials, fingerprint %s%s\n",
              w.campaign.bench.c_str(), w.campaign.mode.c_str(),
              shape->cells().size(), w.campaign.trainings,
              w.campaign.fingerprint_hex().c_str(),
              w.fleet ? ", sharded over 2 forked workers" : "");
  std::fflush(stdout);

  // Traced half first, so it sees the campaign's one-time lazy work (the
  // prefix build) the way a campaign does.
  Phase traced;
  if (cfg.trace) {
    traced = run_phase(true);
    registries.add(obs::Registry::global().to_json());
    append_trace_events(obs::TraceRecorder::global().to_json(), 0, events);
    obs::TraceRecorder::global().save(
        (fs::path(cfg.workdir) / (w.name + ".trace.json")).string());
  }
  const Phase untraced = run_phase(false);
  const double coordinator_rss_mb = self_peak_rss_mb();

  campaign.reset();
  ref = set_up_rep(true);
  while (setup_total.size() < kSetupReps ||
         (setup_total.size() < kSetupMaxReps &&
          std::accumulate(setup_total.begin(), setup_total.end(), 0.0) <
              kSetupBudgetS)) {
    set_up_rep(false);
  }

  failed += gate(*ref, samples, ref_scan->sampled, cfg.corrupt_reference);

  // The fleet's artifact must be the in-process campaign's, byte for byte;
  // that in-process pass is also the base of the fleet's CPU overhead.
  double inprocess_cpu_per_trial = 0.0;
  if (w.fleet && cfg.trace) {
    const std::string solo =
        (fs::path(cfg.workdir) / (w.name + ".inprocess.jsonl")).string();
    const Pass p = run_pass(*ref, jobs, solo);
    const Scan s = scan_artifact(solo, *shape, samples, true);
    const std::size_t diff =
        s.crc == ref_scan->crc
            ? 0
            : std::max<std::size_t>(1, differing_rows(*ref_scan, s));
    failed += s.bad + diff;
    std::printf("in-process artifact crc32 %08x (%s the fleet's)\n", s.crc,
                diff == 0 ? "equals" : "differs from");
    inprocess_cpu_per_trial = p.cpu_s / static_cast<double>(p.trials);
    fs::remove(solo);
  }
  fs::remove(artifact);

  const std::size_t attempted = traced.trials + untraced.trials;
  std::printf(
      "passes: %zu untraced%s, %zu trials attempted; artifact crc32 %08x, "
      "%llu bytes\n",
      untraced.passes.size(),
      cfg.trace
          ? (" + " + std::to_string(traced.passes.size()) + " traced").c_str()
          : "",
      attempted, ref_scan->crc,
      static_cast<unsigned long long>(ref_scan->bytes));
  std::printf("check: %zu failed (rows missing or wrong, %zu sampled rows "
              "re-run on the reference path)\npass wall s:",
              failed, samples.size());
  for (const Pass& p : untraced.passes) std::printf(" %.3f", p.wall_s);
  std::printf("\n");

  // ---- end to end, from the untraced passes ------------------------------
  const auto& U = untraced;
  const double worker_setup_s = median(setup_total);
  const double start_s = median(U.each([](const Pass& p) { return p.start_s; }));
  const double pass_s = median(U.each([](const Pass& p) { return p.wall_s; }));
  Metrics e2e;
  e2e.add("trials_per_s", "trials/s", U.trials_per_s(), U.trials);
  // In-process: set-up, then one pass. The fleet's workers set up inside
  // the pass, so its campaign is the pass (coordinator start included).
  e2e.add("campaign_s", "s", w.fleet ? pass_s : worker_setup_s + pass_s,
          U.passes.size());
  // The fleet's set-up: coordinator start + worker spawn, plus the campaign
  // set-up each worker repeats.
  e2e.add("setup_s", "s", w.fleet ? start_s + worker_setup_s : worker_setup_s,
          setup_total.size());
  e2e.add("cpu_ms_per_trial", "ms", 1e3 * U.cpu_s / U.trials, U.trials);
  const std::vector<double> worker_rss =
      U.each([](const Pass& p) { return p.worker_rss_mb; });
  e2e.add("peak_rss_mb", "MB",
          coordinator_rss_mb +
              *std::max_element(worker_rss.begin(), worker_rss.end()),
          1);
  e2e.print("end to end (untraced)");

  Json result = Json::object();
  result["correct"] = failed == 0;
  result["attempted"] = attempted;
  result["failed"] = failed;
  if (!cfg.trace) {
    result["metrics"] = e2e.to_json();
    return result;
  }

  // ---- per layer: program metrics from the traced passes, harness timings
  // from the untraced ones --------------------------------------------------
  const StageTable stages = stage_table(events);
  print_stage_table(stages);
  const auto per_trial = [&](double v) {
    return traced.trials > 0 ? v / static_cast<double>(traced.trials) : 0.0;
  };
  const Registries& R = registries;
  std::vector<double> trial_s;
  std::vector<double> dump_s;
  for (const Pass& p : U.passes) {
    trial_s.insert(trial_s.end(), p.trial_s.begin(), p.trial_s.end());
    dump_s.insert(dump_s.end(), p.dump_s.begin(), p.dump_s.end());
  }
  // Fleet trials run in the workers; only their trace times them.
  if (w.fleet) trial_s = stages.trial_s;

  Metrics layer;
  layer.add("campaign.prepare_s", "s", median(setup_prepare),
            setup_prepare.size());
  layer.add("scheduler.occupancy", "ratio",
            U.busy_s / (U.wall_s * static_cast<double>(jobs)), U.trials);
  layer.add("trial.p50_ms", "ms", 1e3 * percentile(trial_s, 0.50),
            trial_s.size());
  layer.add("trial.p95_ms", "ms", 1e3 * percentile(trial_s, 0.95),
            trial_s.size());
  layer.add("experiment.resume_ms", "ms",
            1e3 * R.p50("experiment.resume_time"), traced.trials);
  layer.add("experiment.predict_ms", "ms",
            1e3 * R.p50("experiment.predict_time"), traced.trials);
  layer.add("experiment.ckpt_cache_hit_ratio", "ratio",
            R.ratio("experiment.ckpt_cache_hits",
                    "experiment.ckpt_cache_misses"),
            traced.trials);
  layer.add("trainer.batch_ms", "ms", 1e3 * R.p50("trainer.batch_time"),
            static_cast<std::size_t>(R.counter("trainer.batches_done")));
  layer.add("trainer.eval_ms", "ms", 1e3 * R.p50("trainer.eval_time"),
            traced.trials);
  layer.add("kernels.gemm_s_per_trial", "s",
            per_trial(R.sum("kernels.gemm_time")), traced.trials);
  layer.add("kernels.im2col_s_per_trial", "s",
            per_trial(R.sum("kernels.im2col_time")), traced.trials);
  layer.add("corrupter.corrupt_ms", "ms",
            1e3 * R.p50("corrupter.corrupt_time"), traced.trials);
  const double attempts = R.counter("corrupter.flips_attempted");
  layer.add("corrupter.applied_ratio", "ratio",
            attempts > 0.0 ? R.counter("corrupter.flips_applied") / attempts
                           : 0.0,
            traced.trials);
  layer.add("prefix.hit_ratio", "ratio",
            R.ratio("prefix.hits", "prefix.misses"), traced.trials);
  layer.add("prefix.segments_skipped_per_trial", "count",
            per_trial(R.counter("prefix.segments_skipped")), traced.trials);
  layer.add("prefix.build_s", "s", R.sum("experiment.prefix_build_time"),
            traced.trials);
  layer.add("mh5.lazy_faults_per_trial", "count",
            per_trial(R.counter("mh5.lazy_faults")), traced.trials);
  layer.add("mh5.bytes_faulted_in_per_trial", "B",
            per_trial(R.counter("mh5.bytes_faulted_in")), traced.trials);
  layer.add("mh5.deserialize_ms", "ms", 1e3 * R.p50("mh5.deserialize_time"),
            traced.trials);
  layer.add("trial_log.bytes_per_trial", "B",
            static_cast<double>(ref_scan->bytes) / static_cast<double>(slots),
            slots);
  layer.add("trial_log.dump_ms", "ms", 1e3 * percentile(dump_s, 0.5),
            dump_s.size());
  layer.add("trial_log.write_s", "s",
            median(U.each([](const Pass& p) { return p.write_s; })),
            U.passes.size());
  const fleet::FleetdStats& fleet_stats = U.passes.back().stats;
  layer.add("fleet.shards_issued", "count",
            static_cast<double>(fleet_stats.shards_issued), 1);
  layer.add("fleet.rows_streamed", "count",
            static_cast<double>(fleet_stats.rows_streamed), 1);
  layer.add("fleet.worker_cpu_s", "s",
            median(U.each([](const Pass& p) { return p.worker_cpu_s; })),
            U.passes.size());
  layer.add("fleet.cpu_overhead_ratio", "ratio",
            inprocess_cpu_per_trial > 0.0
                ? (U.cpu_s / U.trials) / inprocess_cpu_per_trial
                : 0.0,
            U.trials);
  layer.add("trial.unattributed_share", "ratio", stages.share("unattributed"),
            stages.trials);
  layer.add("tracing.overhead", "ratio",
            traced.trials_per_s() > 0.0
                ? U.trials_per_s() / traced.trials_per_s() - 1.0
                : 0.0,
            traced.trials);
  layer.print("per layer");
  result["metrics"] = layer.to_json();
  return result;
}

}  // namespace ckptfi::perf
