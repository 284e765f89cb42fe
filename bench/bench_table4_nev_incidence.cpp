// Table IV: incidence of NaN and extreme values (N-EV) at 64-bit precision.
//
// For every framework x model x bit-flip rate {1,10,100,1000}, resume
// `trainings` corrupted trainings (full bit range, NaN allowed) and count
// how many collapse with N-EV. The paper's shape: incidence rises from
// <0.5% at 1 flip to ~100% at 1000 flips; VGG16 is the least affected.
//
// The trial bodies live in core::Campaign ("table4"), run through
// bench::run_campaign like every campaign bench: --jobs, --resume-from and
// --fleet-manifest behave as documented in bench/common.hpp.
#include "bench/common.hpp"

using namespace ckptfi;
using bench::BenchOptions;

int main(int argc, char** argv) {
  const BenchOptions opt = BenchOptions::parse(argc, argv);
  const auto campaign = bench::open_campaign(opt, "table4");
  if (campaign == nullptr) return 0;
  bench::print_banner("Table IV: N-EV incidence at 64-bit precision", opt);

  core::TextTable table(
      {"framework", "model", "bit-flips", "trainings", "N-EV", "%"});
  std::string last_model;
  bench::run_campaign(
      opt, *campaign,
      [&](const core::CampaignCell& cell, const std::vector<Json>& rows) {
        const std::vector<std::string> parts = split_path(cell.name);
        const std::size_t nev = bench::count_true(rows, "collapsed");
        table.add_row({parts[0], parts[1], parts[2],
                       std::to_string(cell.trials), std::to_string(nev),
                       bench::percent(nev, cell.trials)});
        const std::string fm = parts[0] + "/" + parts[1];
        if (fm != last_model) {
          last_model = fm;
          bench::tick();
        }
      });
  std::printf("\n\n%s\n", table.str().c_str());
  std::printf(
      "paper shape: ~0-0.4%% at 1 flip, rising with rate to >90%% at 1000 "
      "flips; VGG16 least affected.\n");
  return 0;
}
