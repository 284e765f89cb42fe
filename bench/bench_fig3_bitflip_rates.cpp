// Figure 3: accuracy-vs-epoch curves under different bit-flip rates.
//
// Three framework/model panels; in each, trainings resume from the restart
// checkpoint with {10,100,500,1000} bit-flips (exponent MSB excluded) and
// their accuracy trajectory is compared against the error-free training
// (the paper's green line). Each line averages `trainings` runs.
//
// Trial bodies: core::Campaign "fig3", run by bench::run_campaign; the
// error-free lines are its clean_summary(), keyed by panel.
#include <optional>

#include "bench/common.hpp"

using namespace ckptfi;
using bench::BenchOptions;

int main(int argc, char** argv) {
  BenchOptions opt = BenchOptions::parse(argc, argv, bench::trained_defaults());
  opt.resume_epochs = 0;  // resume to total_epochs for the full curve
  const auto campaign = bench::open_campaign(opt, "fig3");
  if (campaign == nullptr) return 0;
  bench::print_banner("Figure 3: sensitivity to different bit-flip rates",
                      opt);

  const std::size_t epochs = opt.total_epochs - opt.restart_epoch;
  const Json clean = campaign->clean_summary();
  std::string panel;
  std::optional<core::TextTable> table;
  bench::run_campaign(
      opt, *campaign,
      [&](const core::CampaignCell& cell, const std::vector<Json>& rows) {
        // <framework>/<model>/<rate>
        const std::size_t slash = cell.name.rfind('/');
        if (cell.name.compare(0, slash, panel) != 0) {
          if (table) std::printf("\n%s\n", table->str().c_str());
          panel = cell.name.substr(0, slash);
          std::printf(
              "--- panel %s (accuracy per epoch, restart at epoch %zu)\n",
              panel.c_str(), opt.restart_epoch);
          table.emplace(bench::epoch_header(opt));
          table->add_row(
              bench::curve_row("error-free", clean.at(panel), epochs));
        }
        table->add_row(bench::mean_curve_row(
            cell.name.substr(slash + 1) + " flips", rows, "curve", epochs));
        bench::tick();
      });
  std::printf("\n%s\n", table->str().c_str());
  std::printf(
      "paper shape: with the exponent MSB excluded, no rate up to 1000 "
      "flips degrades the training trajectory; curves overlap the "
      "error-free line.\n");
  return 0;
}
