#include "models/models.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "util/common.hpp"

namespace ckptfi::models {
namespace {

ModelConfig tiny() {
  ModelConfig cfg;
  cfg.width = 2;
  return cfg;
}

TEST(Models, AlexNetHasEightWeightLayers) {
  auto m = make_mini_alexnet(tiny());
  const auto layers = m->weight_layer_names();
  EXPECT_EQ(layers.size(), 8u);  // 5 conv + 3 fc, like AlexNet
  EXPECT_EQ(layers.front(), "conv1");
  EXPECT_EQ(layers.back(), "fc8");
}

TEST(Models, Vgg16HasSixteenWeightLayers) {
  auto m = make_mini_vgg16(tiny());
  const auto layers = m->weight_layer_names();
  EXPECT_EQ(layers.size(), 16u);  // 13 conv + 3 fc, like VGG16
  EXPECT_EQ(layers.front(), "conv1_1");
  EXPECT_EQ(layers[1], "conv1_2");
  EXPECT_EQ(layers.back(), "fc16");
  // Block structure: 2 + 2 + 3 + 3 + 3 convolutions.
  EXPECT_NE(std::find(layers.begin(), layers.end(), "conv3_3"), layers.end());
  EXPECT_NE(std::find(layers.begin(), layers.end(), "conv5_3"), layers.end());
  EXPECT_EQ(std::find(layers.begin(), layers.end(), "conv2_3"), layers.end());
}

TEST(Models, ResNet50HasFiftyMainWeightLayers) {
  auto m = make_mini_resnet50(tiny());
  const auto layers = m->weight_layer_names();
  // Main path: stem + 16 blocks x 3 convs + fc = 50 (the "50" in ResNet50);
  // projection shortcuts add 4 more.
  std::size_t downsample = 0;
  for (const auto& l : layers) downsample += (l.find("_down") != std::string::npos);
  EXPECT_EQ(downsample, 4u);
  EXPECT_EQ(layers.size() - downsample, 50u);
  EXPECT_EQ(layers.front(), "stem_conv");
  EXPECT_EQ(layers.back(), "fc");
}

TEST(Models, ResNetStagesHaveExpectedBlockCounts) {
  auto m = make_mini_resnet50(tiny());
  const auto layers = m->weight_layer_names();
  auto blocks_in_stage = [&](int s) {
    std::set<std::string> blocks;
    const std::string prefix = "stage" + std::to_string(s) + "_block";
    for (const auto& l : layers) {
      if (l.rfind(prefix, 0) == 0) {
        blocks.insert(l.substr(0, l.find("_conv") != std::string::npos
                                      ? l.find("_conv")
                                      : l.find("_down")));
      }
    }
    return blocks.size();
  };
  EXPECT_EQ(blocks_in_stage(1), 3u);
  EXPECT_EQ(blocks_in_stage(2), 4u);
  EXPECT_EQ(blocks_in_stage(3), 6u);
  EXPECT_EQ(blocks_in_stage(4), 3u);
}

class ModelForwardTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ModelForwardTest, ForwardProducesLogits) {
  auto m = make_model(GetParam(), tiny());
  m->init(42);
  Tensor x({2, 3, 32, 32});
  for (std::size_t i = 0; i < x.numel(); ++i)
    x[i] = 0.01 * static_cast<double>(i % 97) - 0.5;
  const Tensor y = m->forward(x, /*training=*/true);
  EXPECT_EQ(y.shape(), (Shape{2, 10}));
  EXPECT_FALSE(y.has_non_finite());
  const Tensor ye = m->forward(x, /*training=*/false);
  EXPECT_EQ(ye.shape(), (Shape{2, 10}));
}

TEST_P(ModelForwardTest, BackwardRuns) {
  auto m = make_model(GetParam(), tiny());
  m->init(43);
  Tensor x({1, 3, 32, 32});
  const Tensor y = m->forward(x, true);
  Tensor dy(y.shape(), 0.1);
  const Tensor dx = m->backward(dy);
  EXPECT_EQ(dx.shape(), x.shape());
}

TEST_P(ModelForwardTest, HasParameters) {
  auto m = make_model(GetParam(), tiny());
  EXPECT_GT(m->num_parameters(), 100u);
  EXPECT_EQ(m->num_classes(), 10u);
  EXPECT_EQ(m->input_shape(), (Shape{3, 32, 32}));
}

INSTANTIATE_TEST_SUITE_P(All, ModelForwardTest,
                         ::testing::Values("alexnet", "vgg16", "resnet50"));

TEST(Models, WidthScalesParameters) {
  ModelConfig w2 = tiny();
  ModelConfig w4 = tiny();
  w4.width = 4;
  EXPECT_GT(make_mini_alexnet(w4)->num_parameters(),
            2 * make_mini_alexnet(w2)->num_parameters());
}

TEST(Models, UnknownNameThrows) {
  for (const char* name : {"lenet", "lenet5", "resnet18"})
    EXPECT_THROW(make_model(name, tiny()), InvalidArgument) << name;
}

TEST(Models, NamesListedInPaperOrder) {
  EXPECT_EQ(model_names(),
            (std::vector<std::string>{"resnet50", "vgg16", "alexnet"}));
}

TEST(Models, ImageSizeValidation) {
  ModelConfig cfg = tiny();
  cfg.image_size = 20;  // not divisible by 8/32
  EXPECT_THROW(make_mini_alexnet(cfg), InvalidArgument);
  EXPECT_THROW(make_mini_vgg16(cfg), InvalidArgument);
}

}  // namespace
}  // namespace ckptfi::models
