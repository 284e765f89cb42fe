// Shared infrastructure for the paper-reproduction bench harnesses.
//
// Every campaign bench regenerates one table or figure from the paper's
// evaluation (see DESIGN.md section 4) by running a core::Campaign kind
// through run_campaign() below, so all of them share one resume, fan-out,
// --trials-out and --fleet-manifest path. Defaults are scaled down from the
// paper (Summit-scale: 250 trainings/cell, 100 epochs, full CIFAR-10) to
// single-CPU sizes; every knob is overridable:
//
//   --trainings=N      trainings per experiment cell
//   --train-images=N   synthetic CIFAR-10 training images
//   --test-images=N    synthetic CIFAR-10 test images
//   --width=N          base channel width multiplier applied to all models
//   --total-epochs=N   full training length (paper: 100)
//   --restart-epoch=N  checkpointed epoch that gets corrupted (paper: 20)
//   --resume-epochs=N  epochs trained after the corrupted restart
//   --seed=N           master seed
//   --jobs=N           trials in flight per campaign cell (fan-out via
//                      core::TrialScheduler; 1 = serial, the default — and
//                      bitwise-identical to any other value)
//   --json-out=PATH    enable the obs metrics registry and write its snapshot
//                      as JSON to PATH when the bench exits
//   --trace-out=PATH   enable span tracing and write Chrome trace JSON to
//                      PATH when the bench exits (open in chrome://tracing)
//   --trials-out=PATH  write one JSON line per trial (outcome + injection
//                      log) — the determinism artifact: identical across
//                      --jobs values by construction
//   --resume-from=PATH resume an interrupted campaign (any campaign bench)
//                      from a previous --trials-out file: trial indices
//                      already present are skipped (their rows re-emitted
//                      verbatim) and only the missing ones run. Per-trial
//                      splitmix64 seeds are pure functions of (--seed,
//                      cell, index), so a resumed file is bitwise-identical
//                      to an uninterrupted run.
//                      May name the same path as --trials-out. Torn trailing
//                      lines (a campaign killed mid-write) are skipped with
//                      a warning; rows stamped with a different campaign
//                      fingerprint (see "fp" below) are refused outright.
//   --fleet-manifest=PATH
//                      write the campaign manifest for ckptfi-fleetd to PATH
//                      and exit without running any trials (every campaign
//                      bench is fleet-capable; docs/FLEET.md).
//   --prefix-reuse=on|off
//                      fig4 --mode=predict only: each trial enters the
//                      network at its injected layer's segment with cached
//                      test-batch activations (core::PrefixCache).
//                      Bitwise-identical to a full recompute; default on.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/campaign.hpp"
#include "core/report.hpp"
#include "core/scheduler.hpp"
#include "core/trial_log.hpp"
#include "obs/obs.hpp"
#include "tensor/kernels.hpp"
#include "util/strings.hpp"

namespace ckptfi::bench {

struct BenchOptions {
  std::size_t trainings = 6;
  std::size_t train_images = 160;
  std::size_t test_images = 80;
  std::size_t width = 4;
  std::size_t total_epochs = 6;
  std::size_t restart_epoch = 2;
  std::size_t resume_epochs = 1;
  std::uint64_t seed = 42;
  std::size_t jobs = 1;   ///< campaign fan-out (trials in flight per cell)
  bool prefix_reuse = true;  ///< cached-prefix trial entry
  std::string json_out;   ///< metrics snapshot destination ("" = don't emit)
  std::string trace_out;  ///< Chrome trace destination ("" = don't record)
  std::string trials_out; ///< per-trial JSONL destination ("" = don't emit)
  std::string resume_from;  ///< prior trials JSONL to resume from ("" = none)
  std::string fleet_manifest;  ///< manifest export path ("" = run normally)

  /// Extra bench-specific --key=value string options: parse fills the bound
  /// strings and treats the keys as known.
  using Extras = std::vector<std::pair<std::string, std::string*>>;

  /// Parse --key=value args over `defaults`; unknown keys abort with a
  /// usage message. Benches whose story needs a genuinely trained baseline
  /// (accuracy-degradation experiments) pass larger defaults.
  static BenchOptions parse(int argc, char** argv, BenchOptions defaults,
                            const Extras& extras = {});
  static BenchOptions parse(int argc, char** argv) {
    return parse(argc, argv, BenchOptions{});
  }
};

/// Every bench funnels through parse(), so hooking the metrics/trace dump
/// here wires observability into all of them at once: when --json-out or
/// --trace-out is given, the matching obs facility is enabled and an atexit
/// handler writes the file after the bench's tables have printed.
namespace detail {
inline std::string g_json_out;   // set once in parse, read at exit
inline std::string g_trace_out;

inline void write_obs_outputs() {
  if (!g_json_out.empty()) {
    std::ofstream out(g_json_out, std::ios::trunc);
    if (out) {
      Json snap = obs::Registry::global().to_json();
      Json events = Json::array();
      for (auto& e : obs::EventLog::global().events()) {
        events.push_back(std::move(e));
      }
      snap["events"] = std::move(events);
      out << snap.dump(2) << "\n";
    } else {
      std::fprintf(stderr, "bench: cannot write metrics to '%s'\n",
                   g_json_out.c_str());
    }
  }
  if (!g_trace_out.empty()) {
    // save() throws on an unwritable path; an exception escaping an atexit
    // handler would terminate(), so report and carry on instead.
    try {
      obs::TraceRecorder::global().save(g_trace_out);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench: %s\n", e.what());
    }
  }
}
}  // namespace detail

inline BenchOptions BenchOptions::parse(int argc, char** argv,
                                        BenchOptions defaults,
                                        const Extras& extras) {
  BenchOptions o = defaults;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::fprintf(stderr, "usage: %s [--key=value ...]\n", argv[0]);
      std::exit(2);
    }
    const std::string key = arg.substr(2, eq - 2);
    bool is_extra = false;
    for (const auto& [ekey, slot] : extras) {
      if (key == ekey) {
        *slot = arg.substr(eq + 1);
        is_extra = true;
        break;
      }
    }
    if (is_extra) continue;
    if (key == "trials-out") {
      o.trials_out = arg.substr(eq + 1);
      continue;
    }
    if (key == "resume-from") {
      o.resume_from = arg.substr(eq + 1);
      continue;
    }
    if (key == "fleet-manifest") {
      o.fleet_manifest = arg.substr(eq + 1);
      continue;
    }
    if (key == "prefix-reuse") {
      const std::string v = arg.substr(eq + 1);
      if (v != "on" && v != "off") {
        std::fprintf(stderr,
                     "bench: --prefix-reuse wants on or off, got '%s'\n",
                     v.c_str());
        std::exit(2);
      }
      o.prefix_reuse = v == "on";
      continue;
    }
    if (key == "json-out" || key == "trace-out") {
      const std::string path = arg.substr(eq + 1);
      if (key == "json-out") {
        o.json_out = path;
        detail::g_json_out = path;
        obs::set_metrics_enabled(true);
        obs::set_events_enabled(true);  // run_start + domain events ride
                                        // along in the snapshot
      } else {
        o.trace_out = path;
        detail::g_trace_out = path;
        obs::set_tracing_enabled(true);
      }
      static bool registered = false;
      if (!registered) {
        registered = true;
        std::atexit(detail::write_obs_outputs);
      }
      continue;
    }
    // Everything below is numeric. stoull throws std::invalid_argument on
    // junk and std::out_of_range past 2^64 — either one escaping main() is
    // an abort with no hint which flag was wrong, so translate both into a
    // usage error that names the flag.
    std::size_t val = 0;
    try {
      const std::string text = arg.substr(eq + 1);
      std::size_t used = 0;
      val = static_cast<std::size_t>(std::stoull(text, &used));
      if (used != text.size()) throw std::invalid_argument(text);
    } catch (const std::exception&) {
      std::fprintf(stderr, "bench: --%s wants a number, got '%s'\n",
                   key.c_str(), arg.c_str() + eq + 1);
      std::exit(2);
    }
    if (key == "trainings") {
      o.trainings = val;
    } else if (key == "train-images") {
      o.train_images = val;
    } else if (key == "test-images") {
      o.test_images = val;
    } else if (key == "width") {
      o.width = val;
    } else if (key == "total-epochs") {
      o.total_epochs = val;
    } else if (key == "restart-epoch") {
      o.restart_epoch = val;
    } else if (key == "resume-epochs") {
      o.resume_epochs = val;
    } else if (key == "seed") {
      o.seed = val;
    } else if (key == "jobs") {
      o.jobs = val == 0 ? 1 : val;
    } else {
      std::fprintf(stderr, "unknown option --%s\n", key.c_str());
      std::exit(2);
    }
  }
  return o;
}

/// The campaign identity behind a bench invocation: the bench name plus
/// every BenchOptions field that can change a trial row's bytes. Feeds both
/// the row fingerprint ("fp") and the fleet manifest.
inline core::CampaignOptions campaign_options(
    const BenchOptions& o, const std::string& bench,
    const std::string& mode = "", const std::vector<std::string>& layers = {}) {
  core::CampaignOptions c;
  c.bench = bench;
  c.mode = mode.empty() ? "train" : mode;
  c.layers = layers;
  c.trainings = o.trainings;
  c.train_images = o.train_images;
  c.test_images = o.test_images;
  c.width = o.width;
  c.total_epochs = o.total_epochs;
  c.restart_epoch = o.restart_epoch;
  c.resume_epochs = o.resume_epochs;
  c.seed = o.seed;
  c.prefix_reuse = o.prefix_reuse;
  return c;
}

/// The bench's campaign (kind `bench`, see core::campaign_kinds()). With
/// --fleet-manifest it writes the manifest for ckptfi-fleetd instead and
/// returns nullptr: the bench exits 0 without running trials. Options the
/// campaign refuses (core::Campaign::make) exit 2 with its message.
inline std::unique_ptr<core::Campaign> open_campaign(
    const BenchOptions& o, const std::string& bench,
    const std::string& mode = "", const std::vector<std::string>& layers = {}) {
  std::unique_ptr<core::Campaign> campaign;
  try {
    campaign = core::Campaign::make(campaign_options(o, bench, mode, layers));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench: %s\n", e.what());
    std::exit(2);
  }
  if (o.fleet_manifest.empty()) return campaign;
  std::ofstream out(o.fleet_manifest, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "bench: cannot write --fleet-manifest '%s'\n",
                 o.fleet_manifest.c_str());
    std::exit(2);
  }
  out << core::campaign_manifest(*campaign).dump(2) << "\n";
  std::size_t trials = 0;
  for (const core::CampaignCell& c : campaign->cells()) trials += c.trials;
  std::printf(
      "wrote fleet manifest '%s' (campaign %s: %zu cells, %zu trials) — "
      "run it with ckptfi-fleetd + ckptfi-worker\n",
      o.fleet_manifest.c_str(),
      campaign->options().fingerprint_hex().c_str(), campaign->cells().size(),
      trials);
  return nullptr;
}

/// Run every cell of `campaign` in artifact order and hand each cell's rows
/// (trial-index order) to `on_cell(const core::CampaignCell&, const
/// std::vector<Json>&)`; rows are dropped after the callback, so memory
/// stays per-cell.
///
/// A cell's trials fan out on core::TrialScheduler (--jobs);
/// per-trial seeds are trial_seed(cell seed, index), so rows are bitwise
/// independent of scheduling. With --resume-from, trials already in the
/// prior artifact are not rerun: the callback gets the prior row and
/// --trials-out re-emits its original line verbatim, so a resumed artifact
/// is byte-identical to an uninterrupted one. Crash safety is
/// core::TrialLogReader/TrialLogWriter's (src/core/trial_log.hpp): torn
/// trailing lines in the resume file are skipped, rows stamped with another
/// campaign's fingerprint make the bench exit 2 before any output opens,
/// and --trials-out is written through `path + ".tmp"` and renamed into
/// place only after the last cell — so resuming in place
/// (--resume-from=X --trials-out=X) cannot destroy its own input.
template <class OnCell>
void run_campaign(const BenchOptions& o, core::Campaign& campaign,
                  OnCell&& on_cell) {
  core::TrialLogReader prior;
  core::TrialLogWriter out;
  try {
    if (!o.resume_from.empty()) {
      prior.load(o.resume_from, campaign.options().fingerprint_hex());
    }
    if (!o.trials_out.empty()) out.open(o.trials_out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench: %s\n", e.what());
    std::exit(2);
  }
  for (const core::CampaignCell& cell : campaign.cells()) {
    campaign.prepare_cell(cell.name);
    std::vector<Json> rows(cell.trials);
    core::TrialScheduler::Config sc;
    sc.jobs = o.jobs;
    sc.campaign_seed = campaign.cell_seed(cell.name);
    core::TrialScheduler(sc).run(
        cell.trials, [&](const core::TrialContext& trial) {
          const core::TrialLogReader::Row* hit =
              prior.find(cell.name, trial.index);
          rows[trial.index] = hit != nullptr
                                  ? hit->row
                                  : campaign.run_trial(cell.name, trial);
        });
    if (out.is_open()) {
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const core::TrialLogReader::Row* hit = prior.find(cell.name, i);
        out.write_line(hit != nullptr ? hit->line : rows[i].dump());
      }
      out.flush();
    }
    on_cell(cell, rows);
  }
  if (!out.is_open()) return;
  try {
    out.commit();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench: %s\n", e.what());
    std::exit(1);
  }
}

/// Rows whose boolean field `key` is true.
inline std::size_t count_true(const std::vector<Json>& rows,
                              const char* key) {
  std::size_t n = 0;
  for (const Json& r : rows) n += r.at(key).as_bool() ? 1 : 0;
  return n;
}

/// 100 * n / d to one decimal: the tables' percentage cell; "-" when d is
/// 0 (a campaign run with --trainings=0).
inline std::string percent(std::size_t n, std::size_t d) {
  if (d == 0) return "-";
  return format_fixed(
      100.0 * static_cast<double>(n) / static_cast<double>(d), 1);
}

/// Progress tick: one dot per finished unit of work.
inline void tick() {
  std::printf(".");
  std::fflush(stdout);
}

/// Display label of a paper-trio layer ("first (conv1)"); other layers are
/// labelled by name.
inline std::string layer_label(const std::string& layer) {
  if (layer == "conv1") return "first (conv1)";
  if (layer == "conv4") return "middle (conv4)";
  if (layer == "fc8") return "last (fc8)";
  return layer;
}

/// Header of a per-epoch accuracy table: "series", then one column per
/// resumed epoch (restart_epoch .. total_epochs - 1).
inline std::vector<std::string> epoch_header(const BenchOptions& o) {
  std::vector<std::string> hdr = {"series"};
  for (std::size_t e = o.restart_epoch; e < o.total_epochs; ++e)
    hdr.push_back("e" + std::to_string(e));
  return hdr;
}

/// `label` + one accuracy curve in percent, padded with "-" to `epochs`.
inline std::vector<std::string> curve_row(std::string label, const Json& curve,
                                          std::size_t epochs) {
  std::vector<std::string> row = {std::move(label)};
  for (const Json& a : curve.items())
    row.push_back(format_fixed(100.0 * a.as_double(), 1));
  while (row.size() < epochs + 1) row.push_back("-");
  return row;
}

/// `label` + the per-epoch mean of each row's `key` curve in percent,
/// reduced in row order; "-" where no trial reached the epoch.
inline std::vector<std::string> mean_curve_row(std::string label,
                                               const std::vector<Json>& rows,
                                               const char* key,
                                               std::size_t epochs) {
  std::vector<double> sum(epochs, 0.0);
  std::vector<std::size_t> n(epochs, 0);
  for (const Json& r : rows) {
    const std::vector<Json>& acc = r.at(key).items();
    for (std::size_t e = 0; e < acc.size() && e < epochs; ++e) {
      sum[e] += acc[e].as_double();
      n[e] += 1;
    }
  }
  std::vector<std::string> row = {std::move(label)};
  for (std::size_t e = 0; e < epochs; ++e) {
    row.push_back(n[e] != 0 ? format_fixed(100.0 * sum[e] /
                                               static_cast<double>(n[e]),
                                           1)
                            : "-");
  }
  return row;
}

/// Defaults for benches that measure accuracy degradation: models must be
/// meaningfully above chance, which needs more data/width/epochs.
inline BenchOptions trained_defaults() {
  BenchOptions o;
  o.trainings = 3;
  o.train_images = 320;
  o.test_images = 160;
  o.width = 6;
  o.total_epochs = 8;
  o.restart_epoch = 3;
  o.resume_epochs = 0;  // resume to total_epochs
  return o;
}

/// The run-start obs event, stamped with the active kernel backend so a
/// metrics/trace artifact records which compute path produced it. A bench
/// whose campaign applies its own GEMM precision once its cells run (table7)
/// names it in `gemm_precision`. print_banner calls it; a bench that prints
/// its own banner must call it itself — ckptfi-lint's obs-bench-conventions
/// rule insists on one or the other.
inline void emit_run_start(const std::string& what, const BenchOptions& o,
                           const std::string& gemm_precision =
                               gemm_precision_name()) {
  Json f = Json::object();
  f["bench"] = what;
  f["kernels.backend"] = kernel_backend_name();
  f["kernels.simd_isa"] = simd_isa_name();
  f["kernels.gemm_precision"] = gemm_precision;
  f["jobs"] = o.jobs;
  f["seed"] = std::to_string(o.seed);
  obs::emit_event("run_start", std::move(f));
}

/// Header block naming the experiment and the scale it runs at; also stamps
/// the run_start event.
inline void print_banner(const std::string& what, const BenchOptions& o,
                         const std::string& gemm_precision =
                             gemm_precision_name()) {
  std::printf("=== %s ===\n", what.c_str());
  std::printf(
      "scale: %zu trainings/cell, %zu train images, width %zu, "
      "restart epoch %zu -> resume %zu epoch(s), %zu job(s), "
      "prefix-reuse %s "
      "(paper: 250 trainings, CIFAR-10 50k, full-width models, epoch 20)\n\n",
      o.trainings, o.train_images, o.width, o.restart_epoch, o.resume_epochs,
      o.jobs, o.prefix_reuse ? "on" : "off");
  emit_run_start(what, o, gemm_precision);
}

}  // namespace ckptfi::bench
