// Figure 4: fault injection into specific layers of AlexNet (Chainer).
//
// 1000 bit-flips confined to the first (conv1), middle (conv4) and last
// (fc8) layer; accuracy trajectories vs the error-free line. The paper
// finds first-layer injection dips then recovers; middle/last barely move.
// Each layer's trial-0 row carries its injection log with model meta and
// divergence trace attached: replayable input for
// core::replay_injection_log.
//
// The trial bodies live in core::Campaign ("fig4"), run through
// bench::run_campaign like every campaign bench: --jobs, --resume-from and
// --fleet-manifest behave as documented in bench/common.hpp.
//
// Every trial resumes with numeric-health probes attached and emits a
// divergence trace against the clean probed baseline (obs/probes.hpp), so
// the --trials-out rows carry where each injection's corruption went — the
// input ckptfi_report aggregates.
//
// Two modes:
//
//   --mode=train    (default) the paper's resumed-training trajectories;
//                   every trial trains the whole network.
//   --mode=predict  inference-only trials (load corrupted checkpoint,
//                   evaluate the test set). All of a layer's trials corrupt
//                   the same layer, so they share the activations upstream
//                   of it: with --prefix-reuse=on (the default) every test
//                   batch enters the network at the injected layer's
//                   segment with its cached boundary activation
//                   (core::PrefixCache) — bitwise-identical output, and
//                   deep-layer campaigns (fc8) skip nearly all upstream
//                   compute (see EXPERIMENTS.md).
//
//   --layers=a,b,c  override the injected layer list (canonical names).
#include "bench/common.hpp"

using namespace ckptfi;
using bench::BenchOptions;

int main(int argc, char** argv) {
  std::string mode = "train";
  std::string layers_csv;
  BenchOptions opt =
      BenchOptions::parse(argc, argv, bench::trained_defaults(),
                          {{"mode", &mode}, {"layers", &layers_csv}});
  if (mode != "train" && mode != "predict") {
    std::fprintf(stderr, "bench_fig4: --mode must be train or predict\n");
    return 2;
  }
  const std::vector<std::string> layer_override = split_path(layers_csv, ',');
  const auto campaign =
      bench::open_campaign(opt, "fig4", mode, layer_override);
  if (campaign == nullptr) return 0;
  bench::print_banner("Figure 4: per-layer injection, chainer/alexnet (" +
                          mode + " mode)",
                      opt);

  // The paper's default trio gets display labels; a --layers override is
  // labelled by layer name.
  const auto label = [&](const core::CampaignCell& cell) {
    const std::string layer = cell.name.substr(cell.name.rfind('/') + 1);
    return layer_override.empty() ? bench::layer_label(layer) : layer;
  };

  if (mode == "predict") {
    core::TextTable table({"series", "mean acc", "N-EV", "trainings"});
    bench::run_campaign(
        opt, *campaign,
        [&](const core::CampaignCell& cell, const std::vector<Json>& rows) {
          double acc_sum = 0.0;
          for (const Json& r : rows) acc_sum += r.at("accuracy").as_double();
          table.add_row(
              {label(cell),
               cell.trials == 0
                   ? "-"
                   : format_fixed(100.0 * acc_sum /
                                      static_cast<double>(cell.trials),
                                  1),
               std::to_string(bench::count_true(rows, "nev")),
               std::to_string(cell.trials)});
          bench::tick();
        });
    std::printf("\n\n%s\n", table.str().c_str());
    std::printf(
        "inference-only injections: deep-layer cells reuse nearly the whole "
        "forward via cached prefixes (see prefix.* counters in --json-out).\n");
    return 0;
  }

  const std::size_t epochs = opt.total_epochs - opt.restart_epoch;
  core::TextTable table(bench::epoch_header(opt));
  // Clean probed baseline: error-free resumed trajectory plus the probe
  // timeline every corrupted trial's divergence trace is measured against.
  table.add_row(bench::curve_row(
      "error-free", campaign->clean_summary().at("trajectory"), epochs));
  bench::run_campaign(
      opt, *campaign,
      [&](const core::CampaignCell& cell, const std::vector<Json>& rows) {
        table.add_row(
            bench::mean_curve_row(label(cell), rows, "accuracy", epochs));
        bench::tick();
      });
  std::printf("\n\n%s\n", table.str().c_str());
  std::printf(
      "paper shape: only first-layer injection visibly degrades accuracy at "
      "restart, then recovers toward the error-free line; middle and last "
      "layers absorb the flips. trial 0's row carries each layer's "
      "replayable injection log\n");
  return 0;
}
