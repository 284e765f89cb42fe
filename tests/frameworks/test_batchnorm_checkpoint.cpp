// BatchNorm state in checkpoints: running statistics must round-trip
// through every adapter's naming convention, and corrupting them produces a
// real failure mode (negative variance -> NaN) that N-EV detection catches.
#include <gtest/gtest.h>

#include <cmath>

#include "core/corrupter.hpp"
#include "frameworks/framework.hpp"
#include "models/models.hpp"
#include "nn/trainer.hpp"
#include "util/rng.hpp"

namespace ckptfi::fw {
namespace {

models::ModelConfig tiny() {
  models::ModelConfig cfg;
  cfg.width = 2;
  return cfg;
}

/// Run one training forward pass so running stats move off their init.
void warm_up(nn::Model& model) {
  Rng rng(3);
  Tensor x({4, 3, 32, 32});
  for (auto& v : x.vec()) v = rng.normal();
  model.forward(x, /*training=*/true);
}

TEST(BatchNormCheckpoint, RunningStatsUseFrameworkLeafNames) {
  auto model = models::make_mini_resnet50(tiny());
  model->init(1);
  warm_up(*model);

  auto chainer = make_adapter("chainer");
  const mh5::File ck_chainer = chainer->checkpoint_to_file(*model, 64, 0);
  EXPECT_TRUE(ck_chainer.exists("predictor/stem_bn/avg_mean"));
  EXPECT_TRUE(ck_chainer.exists("predictor/stem_bn/avg_var"));

  auto tf = make_adapter("tensorflow");
  const mh5::File ck_tf = tf->checkpoint_to_file(*model, 64, 0);
  EXPECT_TRUE(ck_tf.exists("model_weights/stem_bn/moving_mean"));
  EXPECT_TRUE(ck_tf.exists("model_weights/stem_bn/moving_variance"));

  auto pt = make_adapter("pytorch");
  const mh5::File ck_pt = pt->checkpoint_to_file(*model, 64, 0);
  EXPECT_TRUE(ck_pt.exists("state_dict/stem_bn.running_mean"));
  EXPECT_TRUE(ck_pt.exists("state_dict/stem_bn.running_var"));
}

TEST(BatchNormCheckpoint, RunningStatsRoundTripExactly) {
  auto model = models::make_mini_resnet50(tiny());
  model->init(2);
  warm_up(*model);
  auto adapter = make_adapter("pytorch");
  const mh5::File ckpt = adapter->checkpoint_to_file(*model, 64, 0);

  auto restored = models::make_mini_resnet50(tiny());
  restored->init(99);
  adapter->load_from_file(*restored, ckpt);
  EXPECT_EQ(restored->find_param("stem_bn/running_mean")->value->vec(),
            model->find_param("stem_bn/running_mean")->value->vec());
  EXPECT_EQ(restored->find_param("stem_bn/running_var")->value->vec(),
            model->find_param("stem_bn/running_var")->value->vec());
}

TEST(BatchNormCheckpoint, SignFlipOnVarianceCollapsesEval) {
  auto model = models::make_mini_resnet50(tiny());
  model->init(4);
  warm_up(*model);
  auto adapter = make_adapter("chainer");
  mh5::File ckpt = adapter->checkpoint_to_file(*model, 64, 0);

  // Flip the sign bit of one stem_bn running-variance entry (exactly one
  // injection — an even number of hits on the same element would cancel):
  // negative variance makes eval-mode batchnorm take sqrt of a negative.
  core::CorrupterConfig cc;
  cc.injection_attempts = 1;
  cc.corruption_mode = core::CorruptionMode::BitRange;
  cc.first_bit = 63;
  cc.last_bit = 63;
  cc.use_random_locations = false;
  cc.locations_to_corrupt = {"predictor/stem_bn/avg_var"};
  cc.seed = 5;
  core::Corrupter(cc).corrupt(ckpt);

  auto corrupted = models::make_mini_resnet50(tiny());
  adapter->load_from_file(*corrupted, ckpt);
  bool any_negative = false;
  for (double v : corrupted->find_param("stem_bn/running_var")->value->vec())
    any_negative |= (v < 0.0);
  ASSERT_TRUE(any_negative);

  Tensor x({2, 3, 32, 32}, 0.3);
  const Tensor logits = corrupted->forward(x, /*training=*/false);
  EXPECT_TRUE(logits.has_non_finite());
}

}  // namespace
}  // namespace ckptfi::fw
