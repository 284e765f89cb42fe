// ExperimentRunner builds the models it loads checkpoints into without a
// random init: load_from_file overwrites every param or throws, so the He
// init would be dead work. These tests pin that skipping it changes nothing.
// Each runner entry point must give bitwise what the init-then-load path
// (make_model() + load_from_file) gives, for every framework, model and
// checkpoint precision. A checkpoint that cannot fill every param must still
// be rejected.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <tuple>

#include "core/experiment.hpp"
#include "data/synthetic_cifar.hpp"
#include "util/common.hpp"

namespace ckptfi::fw {
namespace {

core::ExperimentConfig config(const std::string& framework,
                              const std::string& model, int precision,
                              std::uint64_t seed) {
  core::ExperimentConfig cfg;
  cfg.framework = framework;
  cfg.model = model;
  cfg.model_cfg.width = 2;
  cfg.data_cfg.num_train = 16;
  cfg.data_cfg.num_test = 16;
  cfg.batch_size = 8;
  cfg.total_epochs = 2;
  cfg.restart_epoch = 1;
  cfg.precision_bits = precision;
  cfg.seed = seed;
  return cfg;
}

/// The init-then-load path: `runner`'s freshly initialised model, loaded.
std::unique_ptr<nn::Model> init_then_load(const core::ExperimentRunner& runner,
                                          const mh5::File& ckpt) {
  auto model = runner.make_model();
  runner.adapter().load_from_file(*model, ckpt);
  return model;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::vector<double> bits_of(const nn::EvalResult& r) {
  return {r.accuracy, r.nev ? 1.0 : 0.0};
}

std::vector<double> bits_of(const nn::TrainResult& r) {
  std::vector<double> out = {r.final_accuracy, r.collapsed ? 1.0 : 0.0};
  for (const nn::EpochStats& e : r.epochs) {
    out.insert(out.end(), {static_cast<double>(e.epoch), e.train_loss,
                           e.train_accuracy, e.test_accuracy,
                           e.nev ? 1.0 : 0.0});
  }
  return out;
}

class InitFreeLoad
    : public ::testing::TestWithParam<std::tuple<std::string, std::string,
                                                 int>> {};

TEST_P(InitFreeLoad, ParamsEqualInitThenLoad) {
  const auto& [framework, model, precision] = GetParam();
  // The checkpoint comes from a different seed, trained one step, so no
  // param (BatchNorm running stats included) equals the loader's own init.
  core::ExperimentRunner source(config(framework, model, precision, 5));
  const mh5::File ckpt = source.checkpoint_at(1);

  core::ExperimentRunner runner(config(framework, model, precision, 77));
  const auto loaded = runner.weights_of(ckpt);
  auto reference = init_then_load(runner, ckpt);
  ASSERT_EQ(loaded.size(), reference->params().size());
  for (const auto& p : reference->params()) {
    ASSERT_EQ(loaded.count(p.name), 1u) << p.name;
    EXPECT_TRUE(bitwise_equal(loaded.at(p.name), p.value->vec())) << p.name;
  }
}

std::string param_name(
    const ::testing::TestParamInfo<InitFreeLoad::ParamType>& info) {
  return std::get<0>(info.param) + "_" + std::get<1>(info.param) + "_p" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    All, InitFreeLoad,
    ::testing::Combine(::testing::Values("chainer", "pytorch", "tensorflow"),
                       ::testing::Values("alexnet", "vgg16", "resnet50",
                                         "lenet5", "resnet18"),
                       ::testing::Values(16, 32, 64)),
    param_name);

class InitFreeRun
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(InitFreeRun, PredictAndResumeEqualInitThenLoad) {
  const auto& [framework, precision] = GetParam();
  const core::ExperimentConfig cfg =
      config(framework, "alexnet", precision, 77);
  core::ExperimentRunner runner(cfg);
  const mh5::File ckpt = runner.restart_checkpoint();

  // The runner's loaders replayed by hand on an init-then-load model.
  const data::DataLoader test_loader(runner.data().test, cfg.batch_size,
                                     cfg.seed);
  const std::vector<nn::Batch> test_batches = test_loader.sequential_batches();
  const data::DataLoader train_loader(runner.data().train, cfg.batch_size,
                                      cfg.seed);

  auto predict_ref = init_then_load(runner, ckpt);
  EXPECT_TRUE(bitwise_equal(
      bits_of(runner.predict(ckpt)),
      bits_of(nn::evaluate_with_nev(*predict_ref, test_batches))));

  auto resume_ref = init_then_load(runner, ckpt);
  nn::TrainConfig tc;
  tc.epochs = cfg.total_epochs - cfg.restart_epoch;
  tc.sgd = cfg.sgd;
  nn::Trainer trainer(*resume_ref, tc);
  const nn::TrainResult want =
      trainer.fit(train_loader.provider(), test_batches, cfg.restart_epoch);
  const auto [got, got_model] = runner.resume_training_with_model(ckpt);
  EXPECT_TRUE(bitwise_equal(bits_of(got), bits_of(want)));
  for (const auto& p : resume_ref->params()) {
    EXPECT_TRUE(
        bitwise_equal(got_model->find_param(p.name)->value->vec(),
                      p.value->vec()))
        << p.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    All, InitFreeRun,
    ::testing::Combine(::testing::Values("chainer", "pytorch", "tensorflow"),
                       ::testing::Values(16, 32, 64)));

/// Message of the InvalidArgument `fn` throws ("" when it does not throw).
template <typename Fn>
std::string rejection(Fn fn) {
  try {
    fn();
  } catch (const InvalidArgument& e) {
    return e.what();
  }
  return "";
}

TEST(InitFreeLoadChecks, MissingOrResizedDatasetStillThrows) {
  for (const auto& framework : framework_names()) {
    core::ExperimentRunner runner(config(framework, "alexnet", 64, 77));
    const std::string path =
        runner.adapter().path_map(*runner.make_model()).at("conv1/W");

    mh5::File missing = runner.restart_checkpoint();
    ASSERT_TRUE(missing.remove(path));
    EXPECT_NE(rejection([&] { runner.predict(missing); })
                  .find("load_checkpoint: missing dataset"),
              std::string::npos)
        << framework;
    EXPECT_NE(rejection([&] { runner.resume_training(missing); })
                  .find("load_checkpoint: missing dataset"),
              std::string::npos)
        << framework;

    mh5::File resized = runner.restart_checkpoint();
    ASSERT_TRUE(resized.remove(path));
    resized.create_dataset(path, mh5::DType::F64, {1});
    EXPECT_NE(rejection([&] { runner.weights_of(resized); })
                  .find("load_checkpoint: size mismatch"),
              std::string::npos)
        << framework;
  }
}

}  // namespace
}  // namespace ckptfi::fw
