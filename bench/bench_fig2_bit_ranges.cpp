// Figure 2: which bit ranges collapse a network.
//
// The paper sweeps the corruptible bit range of the injector (1000 flips per
// training, 170 trainings per range) and finds training collapses only when
// the range includes the most significant exponent bit.
//
// Trial bodies: core::Campaign "fig2", run by bench::run_campaign.
#include "bench/common.hpp"

using namespace ckptfi;
using bench::BenchOptions;

int main(int argc, char** argv) {
  const BenchOptions opt = BenchOptions::parse(argc, argv);
  const auto campaign = bench::open_campaign(opt, "fig2");
  if (campaign == nullptr) return 0;
  bench::print_banner("Figure 2: bit ranges that collapse a network", opt);

  core::TextTable table(
      {"bit range", "includes exp MSB", "trainings", "collapsed", "%"});
  bench::run_campaign(
      opt, *campaign,
      [&](const core::CampaignCell& cell, const std::vector<Json>& rows) {
        const std::string label = cell.name.substr(5);  // "fig2/[a,b] ..."
        const int first = std::stoi(label.substr(1));
        const int last = std::stoi(label.substr(label.find(',') + 1));
        const std::size_t collapsed = bench::count_true(rows, "collapsed");
        table.add_row({label, first <= 62 && 62 <= last ? "yes" : "no",
                       std::to_string(cell.trials), std::to_string(collapsed),
                       bench::percent(collapsed, cell.trials)});
        bench::tick();
      });
  std::printf("\n\n%s\n", table.str().c_str());
  std::printf(
      "paper shape: collapse happens only when the range includes the "
      "exponent MSB (bit 62); every range sparing it survives 1000 flips.\n");
  return 0;
}
