// Table VIII: prediction accuracy under different float precisions and
// bit-flip rates (Chainer, trained checkpoint, inference only).
//
// Each cell averages `trainings` prediction runs, every run corrupting a
// fresh copy of the fully-trained checkpoint and evaluating a different
// slice of the test set (the paper: 10 predictions x 1000 images each).
// N-EV counts predictions whose logits went NaN/Inf/extreme, shown in
// parentheses as in the paper.
//
// Trial bodies: core::Campaign "table8", run by bench::run_campaign. The
// error-free baseline (0 flips) is a one-trial cell.
#include "bench/common.hpp"

using namespace ckptfi;
using bench::BenchOptions;

int main(int argc, char** argv) {
  BenchOptions opt = BenchOptions::parse(argc, argv, [] {
    BenchOptions d = bench::trained_defaults();
    d.trainings = 6;
    return d;
  }());
  const auto campaign = bench::open_campaign(opt, "table8");
  if (campaign == nullptr) return 0;
  bench::print_banner(
      "Table VIII: prediction under precision x bit-flip rate (chainer)",
      opt);

  core::TextTable table({"precision", "model", "bit-flips", "avg-acc(%)",
                         "N-EV", "predictions"});
  bench::run_campaign(
      opt, *campaign,
      [&](const core::CampaignCell& cell, const std::vector<Json>& rows) {
        // chainer/<model>/p<precision>/predict<rate>
        const std::vector<std::string> parts = split_path(cell.name);
        const std::string rate = parts[3].substr(7);
        double acc_sum = 0.0;
        std::size_t acc_count = 0;
        for (const Json& r : rows) {
          if (r.at("nev").as_bool()) continue;
          acc_sum += r.at("accuracy").as_double();
          ++acc_count;
        }
        table.add_row(
            {parts[2].substr(1), parts[1], rate,
             acc_count > 0 ? format_fixed(100.0 * acc_sum /
                                              static_cast<double>(acc_count),
                                          1)
                           : "-",
             std::to_string(bench::count_true(rows, "nev")),
             std::to_string(cell.trials)});
        if (rate == "1000") bench::tick();  // one per precision/model
      });
  std::printf("\n\n%s\n", table.str().c_str());
  std::printf(
      "paper shape: prediction (unlike training) degrades with flip rate, "
      "and degrades more at lower precision; ResNet is the most N-EV-prone "
      "model at high rates.\n");
  return 0;
}
