// Ablation (paper Discussion VI.1): N-EV detection would make DL platforms
// "virtually unbreakable".
//
// Corrupt checkpoints with the critical bit INCLUDED (the collapse regime of
// Table IV), then resume (a) unguarded, (b) with the Zero-repair guard,
// (c) with the Clamp-repair guard. The guard should eliminate essentially
// all collapses and restore near-baseline accuracy.
//
// Trial bodies: core::Campaign "ablation_nev_guard", run by
// bench::run_campaign; the clean accuracy is its clean_summary().
#include "bench/common.hpp"

using namespace ckptfi;
using bench::BenchOptions;

int main(int argc, char** argv) {
  const BenchOptions opt = BenchOptions::parse(argc, argv, [] {
    BenchOptions d = bench::trained_defaults();
    d.trainings = 6;
    d.resume_epochs = 1;  // collapse shows in the first resumed epoch
    return d;
  }());
  const auto campaign = bench::open_campaign(opt, "ablation_nev_guard");
  if (campaign == nullptr) return 0;
  bench::print_banner(
      "Ablation: N-EV guard vs critical-bit corruption (chainer/alexnet)",
      opt);

  const std::string clean = format_fixed(
      100.0 * campaign->clean_summary().at("chainer/alexnet").as_double(), 1);
  core::TextTable table({"mode", "bit-flips", "trainings", "collapsed",
                         "avg accuracy", "clean accuracy"});
  bench::run_campaign(
      opt, *campaign,
      [&](const core::CampaignCell& cell, const std::vector<Json>& rows) {
        // ablation/<flips>/<mode>
        const std::vector<std::string> parts = split_path(cell.name);
        double acc_sum = 0.0;
        std::size_t acc_n = 0;
        for (const Json& r : rows) {
          if (r.at("collapsed").as_bool()) continue;
          acc_sum += r.at("final_accuracy").as_double();
          ++acc_n;
        }
        table.add_row(
            {parts[2], parts[1], std::to_string(cell.trials),
             std::to_string(bench::count_true(rows, "collapsed")),
             acc_n ? format_fixed(100.0 * acc_sum / static_cast<double>(acc_n),
                                  1)
                   : "-",
             clean});
        if (parts[2] == "guard: clamp") bench::tick();  // one per flip count
      });
  std::printf("\n\n%s\n", table.str().c_str());
  std::printf(
      "expected shape: unguarded trainings collapse at high rates; both "
      "guard variants remove (nearly) all collapses and keep accuracy near "
      "the clean baseline — the paper's 'virtually unbreakable' claim.\n");
  return 0;
}
