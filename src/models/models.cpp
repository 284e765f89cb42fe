#include "models/models.hpp"

#include "nn/layers.hpp"
#include "util/common.hpp"

namespace ckptfi::models {
namespace {

using nn::BatchNorm2D;
using nn::Conv2D;
using nn::Dense;
using nn::Flatten;
using nn::GlobalAvgPool;
using nn::MaxPool2D;
using nn::ReLU;
using nn::Residual;
using nn::Sequential;

std::unique_ptr<Sequential> seq(const std::string& name) {
  return std::make_unique<Sequential>(name);
}

}  // namespace

std::unique_ptr<nn::Model> make_mini_alexnet(const ModelConfig& cfg) {
  require(cfg.image_size % 8 == 0, "alexnet: image_size must be /8");
  const std::size_t w = cfg.width;
  auto net = seq("alexnet");
  // Five convolutions, three pools, three fully connected layers — the
  // AlexNet shape (paper Section III-A).
  net->emplace<Conv2D>("conv1", cfg.in_channels, w, 3, 1, 1);
  net->emplace<ReLU>("relu1");
  net->emplace<MaxPool2D>("pool1", 2, 2);
  net->emplace<Conv2D>("conv2", w, 2 * w, 3, 1, 1);
  net->emplace<ReLU>("relu2");
  net->emplace<MaxPool2D>("pool2", 2, 2);
  net->emplace<Conv2D>("conv3", 2 * w, 3 * w, 3, 1, 1);
  net->emplace<ReLU>("relu3");
  net->emplace<Conv2D>("conv4", 3 * w, 3 * w, 3, 1, 1);
  net->emplace<ReLU>("relu4");
  net->emplace<Conv2D>("conv5", 3 * w, 2 * w, 3, 1, 1);
  net->emplace<ReLU>("relu5");
  net->emplace<MaxPool2D>("pool5", 2, 2);
  net->emplace<Flatten>("flatten");
  const std::size_t spatial = cfg.image_size / 8;
  net->emplace<Dense>("fc6", 2 * w * spatial * spatial, 4 * w);
  net->emplace<ReLU>("relu6");
  net->emplace<Dense>("fc7", 4 * w, 4 * w);
  net->emplace<ReLU>("relu7");
  net->emplace<Dense>("fc8", 4 * w, cfg.num_classes);
  return std::make_unique<nn::Model>(
      "alexnet", Shape{cfg.in_channels, cfg.image_size, cfg.image_size},
      cfg.num_classes, std::move(net));
}

std::unique_ptr<nn::Model> make_mini_vgg16(const ModelConfig& cfg) {
  require(cfg.image_size % 32 == 0, "vgg16: image_size must be /32");
  const std::size_t w = cfg.width;
  // 13 convolutions in blocks of (2,2,3,3,3) + 3 fully connected layers.
  const std::size_t widths[5] = {w, 2 * w, 4 * w, 8 * w, 8 * w};
  const std::size_t convs_per_block[5] = {2, 2, 3, 3, 3};
  auto net = seq("vgg16");
  std::size_t in_ch = cfg.in_channels;
  for (std::size_t blk = 0; blk < 5; ++blk) {
    for (std::size_t c = 0; c < convs_per_block[blk]; ++c) {
      const std::string name = "conv" + std::to_string(blk + 1) + "_" +
                               std::to_string(c + 1);
      net->emplace<Conv2D>(name, in_ch, widths[blk], 3, 1, 1);
      net->emplace<ReLU>("relu" + name.substr(4));
      in_ch = widths[blk];
    }
    net->emplace<MaxPool2D>("pool" + std::to_string(blk + 1), 2, 2);
  }
  net->emplace<Flatten>("flatten");
  net->emplace<Dense>("fc14", widths[4], 4 * w);
  net->emplace<ReLU>("relu14");
  net->emplace<Dense>("fc15", 4 * w, 4 * w);
  net->emplace<ReLU>("relu15");
  net->emplace<Dense>("fc16", 4 * w, cfg.num_classes);
  return std::make_unique<nn::Model>(
      "vgg16", Shape{cfg.in_channels, cfg.image_size, cfg.image_size},
      cfg.num_classes, std::move(net));
}

std::unique_ptr<nn::Model> make_mini_resnet50(const ModelConfig& cfg) {
  require(cfg.image_size % 8 == 0, "resnet50: image_size must be /8");
  const std::size_t w = cfg.width;
  // Bottleneck stages [3,4,6,3] like ResNet50; expansion 2 (vs the
  // original's 4) to keep channel counts CPU-sized.
  const std::size_t blocks_per_stage[4] = {3, 4, 6, 3};
  auto net = seq("resnet50");
  net->emplace<Conv2D>("stem_conv", cfg.in_channels, w, 3, 1, 1);
  net->emplace<BatchNorm2D>("stem_bn", w);
  net->emplace<ReLU>("stem_relu");

  std::size_t in_ch = w;
  for (std::size_t s = 0; s < 4; ++s) {
    const std::size_t mid = w << s;
    const std::size_t out = 2 * mid;
    for (std::size_t b = 0; b < blocks_per_stage[s]; ++b) {
      const std::size_t stride = (s > 0 && b == 0) ? 2 : 1;
      const std::string p =
          "stage" + std::to_string(s + 1) + "_block" + std::to_string(b + 1);
      auto main = seq(p + "_main");
      main->emplace<Conv2D>(p + "_conv1", in_ch, mid, 1, 1, 0);
      main->emplace<BatchNorm2D>(p + "_bn1", mid);
      main->emplace<ReLU>(p + "_relu1");
      main->emplace<Conv2D>(p + "_conv2", mid, mid, 3, stride, 1);
      main->emplace<BatchNorm2D>(p + "_bn2", mid);
      main->emplace<ReLU>(p + "_relu2");
      main->emplace<Conv2D>(p + "_conv3", mid, out, 1, 1, 0);
      main->emplace<BatchNorm2D>(p + "_bn3", out);

      nn::LayerPtr shortcut;
      if (in_ch != out || stride != 1) {
        auto sc = seq(p + "_short");
        sc->emplace<Conv2D>(p + "_down", in_ch, out, 1, stride, 0);
        sc->emplace<BatchNorm2D>(p + "_down_bn", out);
        shortcut = std::move(sc);
      }
      net->add(std::make_unique<Residual>(p, std::move(main),
                                          std::move(shortcut)));
      in_ch = out;
    }
  }
  net->emplace<GlobalAvgPool>("gap");
  net->emplace<Dense>("fc", in_ch, cfg.num_classes);
  return std::make_unique<nn::Model>(
      "resnet50", Shape{cfg.in_channels, cfg.image_size, cfg.image_size},
      cfg.num_classes, std::move(net));
}

std::unique_ptr<nn::Model> make_model(const std::string& name,
                                      const ModelConfig& cfg) {
  if (name == "alexnet") return make_mini_alexnet(cfg);
  if (name == "vgg16") return make_mini_vgg16(cfg);
  if (name == "resnet50") return make_mini_resnet50(cfg);
  throw InvalidArgument("make_model: unknown model '" + name + "'");
}

const std::vector<std::string>& model_names() {
  static const std::vector<std::string> names = {"resnet50", "vgg16",
                                                 "alexnet"};
  return names;
}

}  // namespace ckptfi::models
