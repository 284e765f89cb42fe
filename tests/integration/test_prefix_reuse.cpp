// Prefix-reuse parity suite (DESIGN.md "Segment graph & prefix reuse").
//
// The hard contract under test: a prefix-entered prediction is
// bitwise-identical to the full recompute — logits at every entry segment
// of every model, and prediction outcomes across all three framework
// adapters, under any --jobs fan-out. Prefix reuse is a pure execution-time
// optimisation; any observable difference is a bug.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/corrupter.hpp"
#include "core/experiment.hpp"
#include "core/scheduler.hpp"
#include "models/models.hpp"
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

/// Location of alexnet's middle conv layer per framework path scheme.
/// PyTorch keys are dotted flat names, so the group prefix form does not
/// apply there — target the weight dataset directly.
std::string conv4_location(const std::string& framework) {
  if (framework == "chainer") return "predictor/conv4";
  if (framework == "pytorch") return "state_dict/conv4.weight";
  return "model_weights/conv4";
}

class PrefixReuseParity : public ::testing::TestWithParam<std::string> {};

TEST_P(PrefixReuseParity, PredictionParityMidLayer) {
  const std::string framework = GetParam();
  ExperimentRunner runner(tiny_config(framework));
  auto ctx_model = runner.make_model();
  ModelContext ctx = runner.make_context(*ctx_model);

  InjectionLog log;
  mh5::File ckpt =
      corrupt_layer(runner, ctx, conv4_location(framework), 7, &log);
  const std::size_t seg = runner.entry_segment(log);
  ASSERT_GT(seg, 0u) << "conv4 must map to a mid-network segment";

  const nn::EvalResult full = runner.predict(ckpt);
  const nn::EvalResult prefixed = runner.predict(ckpt, seg);
  EXPECT_EQ(full.accuracy, prefixed.accuracy);
  EXPECT_EQ(full.nev, prefixed.nev);
  EXPECT_EQ(runner.prefix_cache().misses(), 1u);
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

// Eval forwards are pure, so entering a model at any segment with the
// boundary forward_prefix computed gives the full forward's logits bitwise —
// through BatchNorm's running statistics and Residual joins too. That is
// what lets predict enter at any segment without a safety check.
class EveryEntrySegment : public ::testing::TestWithParam<std::string> {};

TEST_P(EveryEntrySegment, ForwardFromMatchesFullForwardBitwise) {
  models::ModelConfig mc;
  mc.width = 2;
  std::unique_ptr<nn::Model> model = models::make_model(GetParam(), mc);
  model->init(5);
  Tensor x({3, 3, 32, 32});
  for (std::size_t i = 0; i < x.numel(); ++i)
    x[i] = static_cast<double>(i % 97) / 48.5 - 1.0;
  const Tensor full = model->forward(x, /*training=*/false);

  std::set<std::size_t> segments;
  for (const std::string& layer : model->layer_names())
    segments.insert(model->segment_of_layer(layer));
  ASSERT_GT(segments.size(), 2u);
  for (const std::size_t seg : segments) {
    const Tensor y = model->forward_from(seg, model->forward_prefix(seg, x));
    ASSERT_EQ(y.shape(), full.shape()) << "segment " << seg;
    EXPECT_EQ(std::memcmp(y.data(), full.data(), full.numel() * sizeof(double)),
              0)
        << "segment " << seg;
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, EveryEntrySegment,
                         ::testing::Values("alexnet", "vgg16", "resnet50"));

// A fig4-predict-style mini-campaign: per-trial rows must be byte-identical
// between --jobs 1 and --jobs 8 (concurrent trials share one cached prefix)
// and between prefix-on and prefix-off.
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
    const nn::EvalResult ev =
        runner.predict(ckpt, prefix ? runner.entry_segment(log) : 0);
    Json row = Json::object();
    row["accuracy"] = ev.accuracy;
    row["nev"] = ev.nev;
    dumps[trial.index] = row.dump();
  });
  return dumps;
}

TEST(PrefixReuseCampaign, JobsAndPrefixInvariant) {
  ExperimentRunner runner(tiny_config("chainer"));
  auto ctx_model = runner.make_model();
  ModelContext ctx = runner.make_context(*ctx_model);
  runner.restart_checkpoint();  // train the baseline outside the fan-out

  ThreadPool pool(8);
  const auto serial_off = run_campaign(runner, ctx, false, 1, nullptr);
  const auto serial_on = run_campaign(runner, ctx, true, 1, nullptr);
  const auto fanned_off = run_campaign(runner, ctx, false, 8, &pool);
  const auto fanned_on = run_campaign(runner, ctx, true, 8, &pool);

  ASSERT_EQ(serial_off.size(), serial_on.size());
  for (std::size_t i = 0; i < serial_off.size(); ++i) {
    EXPECT_EQ(serial_off[i], serial_on[i]) << "prefix changed trial " << i;
    EXPECT_EQ(serial_off[i], fanned_off[i]) << "jobs changed trial " << i;
    EXPECT_EQ(serial_on[i], fanned_on[i]) << "jobs changed trial " << i;
  }
  // The trial group shared cached prefixes rather than rebuilding per trial.
  EXPECT_GE(runner.prefix_cache().hits(), 1u);
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
