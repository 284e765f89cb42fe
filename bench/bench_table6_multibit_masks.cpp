// Table VI: multi-bit masks applied to ResNet50 training across frameworks.
//
// The five masks come from the DRAM field study the paper cites
// (Bautista-Gomez et al., SC'16). Each mask is applied to 10 weights per
// training; AvgI-Acc is the average initial accuracy over the trainings that
// did not collapse, and N-EV counts the collapsed ones.
//
// Trial bodies: core::Campaign "table6", run by bench::run_campaign. The
// error-free baseline is a one-trial cell per framework.
#include <algorithm>

#include "bench/common.hpp"

using namespace ckptfi;
using bench::BenchOptions;

int main(int argc, char** argv) {
  const BenchOptions opt = BenchOptions::parse(argc, argv);
  const auto campaign = bench::open_campaign(opt, "table6");
  if (campaign == nullptr) return 0;
  bench::print_banner("Table VI: multi-bit masks on ResNet50", opt);

  core::TextTable table(
      {"bits", "mask", "framework", "AvgI-Acc", "N-EV", "trainings"});
  bench::run_campaign(
      opt, *campaign,
      [&](const core::CampaignCell& cell, const std::vector<Json>& rows) {
        const std::vector<std::string> parts = split_path(cell.name);
        std::string mask = parts[2].substr(4);  // "mask<bits>"
        const bool baseline = mask == "baseline";
        if (baseline) mask = "00000000";
        // Collapsed trainings are excluded from the average, as in the
        // paper. One resumed epoch, so final == first-epoch accuracy.
        double acc_sum = 0.0;
        std::size_t acc_count = 0;
        for (const Json& r : rows) {
          if (r.at("collapsed").as_bool()) continue;
          acc_sum += r.at("final_accuracy").as_double();
          ++acc_count;
        }
        const double avg =
            acc_count > 0 ? 100.0 * acc_sum / static_cast<double>(acc_count)
                          : 0.0;
        const auto bits = std::count(mask.begin(), mask.end(), '1');
        table.add_row({std::to_string(bits), mask, parts[0],
                       format_fixed(avg, 1),
                       std::to_string(bench::count_true(rows, "collapsed")),
                       std::to_string(cell.trials)});
        if (baseline) bench::tick();  // one tick per framework
      });
  std::printf("\n\n%s\n", table.str().c_str());
  std::printf(
      "paper shape: masks applied in mantissa/low exponent bits leave "
      "accuracy near baseline; occasional N-EV when a mask lands in high "
      "exponent bits, more often for denser masks.\n");
  return 0;
}
