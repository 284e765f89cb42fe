// Figure 7: accuracy heat map under scaling-factor corruption
// (Chainer/ResNet50).
//
// Instead of flipping bits, weights are multiplied by a scaling factor;
// the paper's heat map sweeps factor x number-of-affected-weights and shows
// dramatic degradation (e.g. 10 weights x 4500 can halve accuracy).
//
// Trial bodies: core::Campaign "fig7", run by bench::run_campaign — one
// cell per (weights, factor) pair; the uncorrupted baseline accuracy is its
// clean_summary().
#include "bench/common.hpp"

using namespace ckptfi;
using bench::BenchOptions;

int main(int argc, char** argv) {
  BenchOptions opt = BenchOptions::parse(argc, argv, [] {
    BenchOptions d = bench::trained_defaults();
    d.trainings = 6;
    return d;
  }());
  const auto campaign = bench::open_campaign(opt, "fig7");
  if (campaign == nullptr) return 0;
  bench::print_banner("Figure 7: scaling-factor heat map, chainer/resnet50",
                      opt);

  const std::string baseline = format_fixed(
      100.0 * campaign->clean_summary().at("chainer/resnet50").as_double(), 1);
  std::printf("baseline accuracy (no corruption): %s%%\n\n", baseline.c_str());

  // Cells are fig7/<weights>x<factor>, weight-count-major: one heat-map row
  // per weight count, one column per factor.
  std::vector<std::string> header = {"weights \\ factor"};
  std::vector<std::vector<std::string>> grid;
  bench::run_campaign(
      opt, *campaign,
      [&](const core::CampaignCell& cell, const std::vector<Json>& rows) {
        const std::size_t x = cell.name.find('x');
        const std::string weights = cell.name.substr(5, x - 5);
        if (grid.empty() || grid.back().front() != weights)
          grid.push_back({weights});
        if (grid.size() == 1) header.push_back(cell.name.substr(x + 1));
        double acc_sum = 0.0;
        for (const Json& r : rows) acc_sum += r.at("accuracy").as_double();
        grid.back().push_back(
            cell.trials == 0
                ? "-"
                : format_fixed(acc_sum / static_cast<double>(cell.trials), 1));
        bench::tick();
      });
  core::TextTable table(header);
  for (std::vector<std::string>& row : grid) table.add_row(std::move(row));
  std::printf("\n\n%s\n", table.str().c_str());
  std::printf(
      "paper shape: accuracy falls monotonically with both the factor and "
      "the number of scaled weights; a handful of weights at factor 4500 "
      "already cuts accuracy drastically (vs baseline %s%%).\n",
      baseline.c_str());
  return 0;
}
