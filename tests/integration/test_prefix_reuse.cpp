// Prefix-reuse parity suite (DESIGN.md "Segment graph & prefix reuse").
//
// The hard contract under test: a prefix-entered trial is bitwise-identical
// to the full recompute — TrainResults, final weights, probe timelines (and
// therefore DivergenceTrace JSON), and prediction outcomes — across all
// three framework adapters, under any --jobs fan-out. Prefix reuse is a
// pure execution-time optimisation; any observable difference is a bug.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/corrupter.hpp"
#include "core/experiment.hpp"
#include "core/scheduler.hpp"
#include "nn/layers.hpp"
#include "util/common.hpp"
#include "util/threadpool.hpp"

namespace ckptfi::core {
namespace {

ExperimentConfig tiny_config(const std::string& framework) {
  ExperimentConfig cfg;
  cfg.framework = framework;
  cfg.model = "alexnet";
  cfg.model_cfg.width = 2;
  cfg.data_cfg.num_train = 48;
  cfg.data_cfg.num_test = 24;
  cfg.batch_size = 16;
  cfg.total_epochs = 3;
  cfg.restart_epoch = 1;
  cfg.seed = 99;
  return cfg;
}

/// Restart checkpoint with 50 bit-flips confined to one layer, recorded in
/// canonical coordinates so entry_segment can place them.
mh5::File corrupt_layer(ExperimentRunner& runner, ModelContext& ctx,
                        const std::string& location, std::uint64_t seed,
                        InjectionLog* log_out = nullptr) {
  mh5::File ckpt = runner.restart_checkpoint();
  CorrupterConfig cc;
  cc.injection_attempts = 50;
  cc.corruption_mode = CorruptionMode::BitRange;
  cc.first_bit = 0;
  cc.last_bit = 61;
  cc.use_random_locations = false;
  cc.locations_to_corrupt = {location};
  cc.seed = seed;
  Corrupter corrupter(cc);
  InjectionReport rep = corrupter.corrupt(ckpt, &ctx);
  if (log_out != nullptr) *log_out = std::move(rep.log);
  return ckpt;
}

void expect_same_result(const nn::TrainResult& a, const nn::TrainResult& b) {
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t i = 0; i < a.epochs.size(); ++i) {
    EXPECT_EQ(a.epochs[i].train_loss, b.epochs[i].train_loss);
    EXPECT_EQ(a.epochs[i].train_accuracy, b.epochs[i].train_accuracy);
    EXPECT_EQ(a.epochs[i].test_accuracy, b.epochs[i].test_accuracy);
    EXPECT_EQ(a.epochs[i].nev, b.epochs[i].nev);
  }
  EXPECT_EQ(a.collapsed, b.collapsed);
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
}

void expect_same_weights(nn::Model& a, nn::Model& b) {
  const auto& pa = a.params();
  const auto& pb = b.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].name, pb[i].name);
    EXPECT_EQ(pa[i].value->vec(), pb[i].value->vec()) << pa[i].name;
  }
}

void expect_same_timeline(const obs::Probes& a, const obs::Probes& b) {
  ASSERT_TRUE(a.same_layout(b));
  ASSERT_EQ(a.num_steps(), b.num_steps());
  // diverge() is the bitwise comparator the forensics pipeline uses: a
  // stitched timeline must be indistinguishable from a fully recorded one.
  const obs::DivergenceTrace t = obs::diverge(a, b);
  EXPECT_FALSE(t.diverged);
  EXPECT_EQ(t.points_diverged, 0u);
}

/// Location of alexnet's middle conv layer per framework path scheme.
/// PyTorch keys are dotted flat names, so the group prefix form does not
/// apply there — target the weight dataset directly.
std::string conv4_location(const std::string& framework) {
  if (framework == "chainer") return "predictor/conv4";
  if (framework == "pytorch") return "state_dict/conv4.weight";
  return "model_weights/conv4";
}

class PrefixReuseParity : public ::testing::TestWithParam<std::string> {};

TEST_P(PrefixReuseParity, TrainingParityMidLayer) {
  const std::string framework = GetParam();
  ExperimentRunner runner(tiny_config(framework));
  auto ctx_model = runner.make_model();
  ModelContext ctx = runner.make_context(*ctx_model);

  InjectionLog log;
  mh5::File full_ckpt =
      corrupt_layer(runner, ctx, conv4_location(framework), 7, &log);
  mh5::File prefixed_ckpt =
      corrupt_layer(runner, ctx, conv4_location(framework), 7);

  const std::size_t seg = runner.entry_segment(log);
  ASSERT_GT(seg, 0u) << "conv4 must map to a mid-network segment";

  ExperimentRunner::ProbedResume full =
      runner.resume_training_probed(full_ckpt);
  ExperimentRunner::ProbedResume prefixed =
      runner.resume_training_probed(prefixed_ckpt, 0, seg);

  expect_same_result(full.result, prefixed.result);
  expect_same_weights(*full.model, *prefixed.model);
  expect_same_timeline(full.probes, prefixed.probes);
  // Divergence traces against the clean twin — the forensic artifact — must
  // serialize identically too.
  EXPECT_EQ(runner.divergence_vs_clean(full.probes).to_json().dump(),
            runner.divergence_vs_clean(prefixed.probes).to_json().dump());
  EXPECT_GT(runner.prefix_cache().misses(), 0u);
}

TEST_P(PrefixReuseParity, PredictionParityLastLayer) {
  const std::string framework = GetParam();
  ExperimentRunner runner(tiny_config(framework));
  auto ctx_model = runner.make_model();
  ModelContext ctx = runner.make_context(*ctx_model);
  const std::string loc =
      framework == "chainer"     ? "predictor/fc8"
      : framework == "pytorch"   ? "state_dict/fc8.weight"
                                 : "model_weights/fc8";

  InjectionLog log;
  mh5::File ckpt = corrupt_layer(runner, ctx, loc, 11, &log);
  const std::size_t seg = runner.entry_segment(log);
  ASSERT_GT(seg, 0u);

  const nn::EvalResult full = runner.predict(ckpt);
  const nn::EvalResult prefixed = runner.predict(ckpt, seg);
  EXPECT_EQ(full.accuracy, prefixed.accuracy);
  EXPECT_EQ(full.nev, prefixed.nev);
}

INSTANTIATE_TEST_SUITE_P(AllAdapters, PrefixReuseParity,
                         ::testing::Values("chainer", "pytorch",
                                           "tensorflow"));

// A fig4-style mini-campaign with prefix entry: per-trial divergence JSON
// must be byte-identical between --jobs 1 and --jobs 8 (concurrent trials
// share one cached prefix) and between prefix-on and prefix-off.
std::vector<std::string> run_campaign(ExperimentRunner& runner,
                                      ModelContext& ctx, bool prefix,
                                      std::size_t jobs, ThreadPool* pool) {
  constexpr std::size_t kTrials = 4;
  std::vector<std::string> dumps(kTrials);
  TrialScheduler::Config sc;
  sc.jobs = jobs;
  sc.campaign_seed = 2024;
  sc.pool = pool;
  TrialScheduler(sc).run(kTrials, [&](const TrialContext& trial) {
    InjectionLog log;
    mh5::File ckpt =
        corrupt_layer(runner, ctx, "predictor/conv4", trial.seed, &log);
    const std::size_t seg = prefix ? runner.entry_segment(log) : 0;
    ExperimentRunner::ProbedResume probed =
        runner.resume_training_probed(ckpt, 0, seg);
    Json row = Json::object();
    row["final_accuracy"] = probed.result.final_accuracy;
    row["collapsed"] = probed.result.collapsed;
    row["divergence"] = runner.divergence_vs_clean(probed.probes).to_json();
    dumps[trial.index] = row.dump();
  });
  return dumps;
}

TEST(PrefixReuseCampaign, JobsAndPrefixInvariant) {
  ExperimentRunner runner(tiny_config("chainer"));
  auto ctx_model = runner.make_model();
  ModelContext ctx = runner.make_context(*ctx_model);
  runner.clean_probed_run();  // warm the memo outside the fan-out

  const auto serial_off = run_campaign(runner, ctx, false, 1, nullptr);
  const auto serial_on = run_campaign(runner, ctx, true, 1, nullptr);
  ThreadPool pool(8);
  const auto fanned_on = run_campaign(runner, ctx, true, 8, &pool);

  ASSERT_EQ(serial_off.size(), serial_on.size());
  for (std::size_t i = 0; i < serial_off.size(); ++i) {
    EXPECT_EQ(serial_off[i], serial_on[i]) << "prefix changed trial " << i;
    EXPECT_EQ(serial_on[i], fanned_on[i]) << "jobs changed trial " << i;
  }
  // The trial group shared cached prefixes rather than rebuilding per trial.
  EXPECT_GE(runner.prefix_cache().hits(), 1u);
}

// Layers are prefix-UNSAFE for training by default: a layer that does not
// implement capture/restore of its forward footprint must force the full
// path, never a silently wrong prefix entry.
class OpaqueLayer : public nn::Layer {
 public:
  explicit OpaqueLayer(std::string name) : Layer(std::move(name)) {}
  Tensor forward(const Tensor& x, bool) override { return x; }
  Tensor backward(const Tensor& dy) override { return dy; }
};

TEST(PrefixSafety, DefaultUnsafeLayerRefusesTrainingPrefix) {
  auto net = std::make_unique<nn::Sequential>("net");
  net->emplace<nn::Flatten>("flatten");
  net->emplace<OpaqueLayer>("opaque");
  net->emplace<nn::Dense>("fc", 3 * 4 * 4, 10);
  nn::Model model("tiny", {3, 4, 4}, 10, std::move(net));
  model.init(1);

  // Eval prefixes only need pure forwards — the default grants that.
  EXPECT_TRUE(model.prefix_safe_upto(2, /*training=*/false));
  // Training prefixes need the captured footprint — the default refuses.
  EXPECT_TRUE(model.prefix_safe_upto(1, /*training=*/true));
  EXPECT_FALSE(model.prefix_safe_upto(2, /*training=*/true));

  nn::PrefixState state;
  EXPECT_THROW(model.capture_prefix_state(2, state), Error);
  Tensor boundary({1, 3 * 4 * 4});
  EXPECT_THROW(model.forward_from(2, boundary, /*training=*/true), Error);
  // Entering before the unsafe layer stays legal.
  EXPECT_NO_THROW(model.capture_prefix_state(1, state));
}

// The fig6 satellite: one memoized clean probed baseline must serve every
// cell of a campaign — trials hammering the memo concurrently still train
// the clean twin exactly once.
TEST(CleanProbedMemo, SingleBuildAcrossCellsAndThreads) {
  ExperimentRunner runner(tiny_config("chainer"));
  EXPECT_EQ(runner.clean_probed_builds(), 0u);
  ThreadPool pool(8);
  TrialScheduler::Config sc;
  sc.jobs = 8;
  sc.campaign_seed = 1;
  sc.pool = &pool;
  TrialScheduler(sc).run(16, [&](const TrialContext&) {
    // Both spellings of "resume to total_epochs" must share the memo slot.
    runner.clean_probed_run();
    runner.clean_probed_run(runner.config().total_epochs -
                            runner.config().restart_epoch);
  });
  EXPECT_EQ(runner.clean_probed_builds(), 1u);
}

}  // namespace
}  // namespace ckptfi::core
