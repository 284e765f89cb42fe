// Figure 6: propagation of errors through the network (TensorFlow/AlexNet).
//
// Inject 1000 bit-flips into one layer at the restart epoch, train onward,
// then compare every weight against the error-free twin at the same epoch.
// The paper reports boxplots of the non-zero weight differences per
// injected layer: first-layer injection spreads the widest, the middle
// layer absorbs, the last layer sits in between.
//
// On top of the end-of-training weight diff, each trial resumes with
// numeric-health probes attached and its divergence trace (obs/probes.hpp)
// is consumed directly: the forensics table shows *when* the corruption
// first left the injected layer (first divergent step/point), how many
// layers it reached (propagation depth), and whether/where NaNs appeared —
// the step-resolved view the weight diff alone cannot give.
//
// Trial bodies: core::Campaign "fig6", run by bench::run_campaign — one
// trial per layer. Rows carry the full boxplot stats, so a --resume-from run
// renders the tables without retraining. One memoized clean probed run
// serves the weight-diff twin, the divergence baseline and the prefix-cache
// builds; with --prefix-reuse=on each trial enters the network at its
// injected layer's segment (bitwise-identical results).
#include "bench/common.hpp"

using namespace ckptfi;
using bench::BenchOptions;

int main(int argc, char** argv) {
  BenchOptions opt = BenchOptions::parse(argc, argv, bench::trained_defaults());
  const auto campaign = bench::open_campaign(opt, "fig6");
  if (campaign == nullptr) return 0;
  bench::print_banner("Figure 6: soft error propagation, tensorflow/alexnet",
                      opt);

  core::TextTable table({"injected layer", "diff weights", "q1", "median",
                         "q3", "whisker-lo", "whisker-hi", "outliers"});
  core::TextTable forensics({"injected layer", "first div step",
                             "first div point", "depth", "points", "nan onset",
                             "inf onset"});
  const auto fixed6 = [](const Json& r, const char* key) {
    return format_fixed(r.at(key).as_double(), 6);
  };
  const auto onset_str = [](const Json& o) {
    if (o.is_null()) return std::string("-");
    return "s" + std::to_string(o.at("step").as_int()) + " " +
           o.at("layer").as_string() + "/" + o.at("phase").as_string();
  };
  bench::run_campaign(
      opt, *campaign,
      [&](const core::CampaignCell&, const std::vector<Json>& rows) {
        for (const Json& r : rows) {
          bench::tick();
          const std::string label =
              bench::layer_label(r.at("layer").as_string());
          const std::int64_t n_diffs = r.at("diff_weights").as_int();
          if (n_diffs == 0) {
            table.add_row({label, "0", "-", "-", "-", "-", "-", "-"});
          } else {
            table.add_row({label, std::to_string(n_diffs), fixed6(r, "q1"),
                           fixed6(r, "median"), fixed6(r, "q3"),
                           fixed6(r, "whisker_lo"), fixed6(r, "whisker_hi"),
                           std::to_string(r.at("n_outliers").as_int())});
          }
          const Json& div = r.at("divergence");
          if (!div.at("diverged").as_bool()) {
            forensics.add_row({label, "-", "-", "0", "0", "-", "-"});
          } else {
            forensics.add_row(
                {label, std::to_string(div.at("first_step").as_int()),
                 div.at("first_layer").as_string() + "/" +
                     div.at("first_phase").as_string(),
                 std::to_string(div.at("depth").as_int()),
                 std::to_string(div.at("points_diverged").as_int()),
                 onset_str(div.at("nan_onset")),
                 onset_str(div.at("inf_onset"))});
          }
        }
      });
  std::printf("\n\n%s\n", table.str().c_str());
  std::printf("propagation forensics (from the probe divergence traces):\n%s\n",
              forensics.str().c_str());
  std::printf(
      "paper shape: first-layer injection shows the widest difference "
      "range; the (large) middle layer absorbs flips and shows the "
      "narrowest; the last layer sits between, limited by reduced "
      "backpropagation reach. the forensics table gives the step-resolved "
      "view: depth = distinct layers whose probe stats left the clean "
      "trajectory.\n");
  return 0;
}
