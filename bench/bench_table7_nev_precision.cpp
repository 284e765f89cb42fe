// Table VII: incidence of NaN and extreme values at 16- and 32-bit
// checkpoint precision (Chainer, all three models; the 64-bit column is
// Table IV / bench_table4).
//
// Trial bodies: core::Campaign "table7", run by bench::run_campaign.
//
// --compute-precision=fp64|fp16 selects the GEMM compute path the resumed
// trainings run under (default fp64). fp16 replays the table with the GEMM
// family computing through genuine binary16 storage panels (fp32
// accumulate, docs/KERNELS.md) — the native-compute counterpart to the
// checkpoint-precision axis the table already sweeps.
#include "bench/common.hpp"

using namespace ckptfi;
using bench::BenchOptions;

int main(int argc, char** argv) {
  std::string compute_precision = "fp64";
  const BenchOptions opt = BenchOptions::parse(
      argc, argv, BenchOptions{},
      {{"compute-precision", &compute_precision}});
  if (compute_precision != "fp64" && compute_precision != "fp16") {
    std::fprintf(stderr,
                 "bench_table7: --compute-precision must be fp64 or fp16 "
                 "(got '%s')\n",
                 compute_precision.c_str());
    return 2;
  }
  // The compute precision rides in the campaign's mode slot: it is part of
  // the fingerprint (fp64 and fp16 rows never cross-resume) and the kind's
  // prepare_cell applies it wherever the trials run, fleet workers included.
  const auto campaign =
      bench::open_campaign(opt, "table7", compute_precision);
  if (campaign == nullptr) return 0;
  bench::print_banner("Table VII: N-EV incidence at 16/32-bit precision "
                      "(chainer, " + compute_precision + " compute)",
                      opt, compute_precision);

  core::TextTable table(
      {"precision", "model", "bit-flips", "trainings", "N-EV", "%"});
  bench::run_campaign(
      opt, *campaign,
      [&](const core::CampaignCell& cell, const std::vector<Json>& rows) {
        // chainer/<model>/p<precision>/<rate>
        const std::vector<std::string> parts = split_path(cell.name);
        const std::size_t nev = bench::count_true(rows, "collapsed");
        table.add_row({parts[2].substr(1), parts[1], parts[3],
                       std::to_string(cell.trials), std::to_string(nev),
                       bench::percent(nev, cell.trials)});
        if (parts[3] == "1000") bench::tick();  // one per precision/model
      });
  std::printf("\n\n%s\n", table.str().c_str());
  std::printf(
      "paper shape: N-EV rate rises with flip count at every precision; "
      "incidence is not strictly tied to precision, with a mild reduction "
      "at 1000 flips for 16-bit vs 32-bit on ResNet/AlexNet.\n");
  return 0;
}
