// Figure 5: equivalent injection in PyTorch and TensorFlow.
//
// Replays a Chainer/AlexNet per-layer injection sequence at the equivalent
// location of PyTorch and TensorFlow checkpoints, then resumes training.
// The paper finds the replayed flips are absorbed in both frameworks.
//
// Trial bodies: core::Campaign "fig5", run by bench::run_campaign — one
// cell per target framework, one trial per layer. The source logs are
// generated from the options alone (seed * 97), never read from disk, so
// the rows depend on nothing the fingerprint does not cover. The
// error-free lines are the campaign's clean_summary(), keyed by panel.
#include "bench/common.hpp"

using namespace ckptfi;
using bench::BenchOptions;

int main(int argc, char** argv) {
  BenchOptions opt = BenchOptions::parse(argc, argv, bench::trained_defaults());
  const auto campaign = bench::open_campaign(opt, "fig5");
  if (campaign == nullptr) return 0;
  bench::print_banner(
      "Figure 5: equivalent injection replayed in pytorch/tensorflow", opt);

  const std::size_t epochs = opt.total_epochs - opt.restart_epoch;
  const Json clean = campaign->clean_summary();
  bench::run_campaign(
      opt, *campaign,
      [&](const core::CampaignCell& cell, const std::vector<Json>& rows) {
        const std::string target = cell.name.substr(5);  // "fig5/<fw>"
        std::printf("--- panel %s (accuracy per epoch)\n", target.c_str());
        core::TextTable table(bench::epoch_header(opt));
        table.add_row(bench::curve_row(
            "error-free", clean.at(target + "/alexnet"), epochs));
        for (const Json& r : rows) {
          table.add_row(bench::curve_row(
              bench::layer_label(r.at("layer").as_string()) + " (" +
                  std::to_string(r.at("replayed").as_int()) + " flips)",
              r.at("accuracy"), epochs));
          bench::tick();
        }
        std::printf("\n%s\n", table.str().c_str());
      });
  std::printf(
      "paper shape: the same per-layer bit-flip sequences, replayed at "
      "equivalent locations, are absorbed: no degradation in either target "
      "framework.\n");
  return 0;
}
