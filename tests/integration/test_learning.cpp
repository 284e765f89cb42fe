// End-to-end learning sanity: each of the paper's three models must move
// meaningfully above chance on the synthetic task within a few epochs. This
// is the foundation every accuracy-based experiment stands on — if a model
// cannot learn, "no degradation after corruption" would be vacuous.
#include <gtest/gtest.h>

#include "data/synthetic_cifar.hpp"
#include "models/models.hpp"
#include "nn/trainer.hpp"

namespace ckptfi {
namespace {

double train_and_eval(const std::string& model_name, std::size_t width,
                      std::size_t epochs, std::size_t num_train = 160) {
  data::SyntheticCifarConfig dc;
  dc.num_train = num_train;
  dc.num_test = 80;
  dc.seed = 4;
  const auto split = data::make_synthetic_cifar10(dc);
  data::DataLoader train_loader(split.train, 32, 9);
  data::DataLoader test_loader(split.test, 32, 9);
  const auto test_batches = test_loader.sequential_batches();

  models::ModelConfig mc;
  mc.width = width;
  auto model = models::make_model(model_name, mc);
  model->init(11);

  nn::TrainConfig tc;
  tc.epochs = epochs;
  tc.sgd.lr = 0.02;
  nn::Trainer trainer(*model, tc);
  const nn::TrainResult res =
      trainer.fit(train_loader.provider(), test_batches);
  EXPECT_FALSE(res.collapsed) << model_name;
  return res.final_accuracy;
}

// Chance is 10 %; require a clear margin. Configurations are calibrated to
// the smallest scale at which each architecture reliably takes off (the
// engine is bitwise deterministic, so each test always passes or always
// fails). ResNet50, the one batch-norm + residual model, is the slowest to
// leave chance and gets the lowest bar.
TEST(Learning, AlexNetBeatsChance) {
  EXPECT_GT(train_and_eval("alexnet", 6, 6, 256), 0.4);
}

TEST(Learning, Vgg16BeatsChance) {
  EXPECT_GT(train_and_eval("vgg16", 6, 8, 320), 0.4);
}

TEST(Learning, ResNet50BeatsChance) {
  EXPECT_GT(train_and_eval("resnet50", 4, 10, 320), 0.25);
}

}  // namespace
}  // namespace ckptfi
