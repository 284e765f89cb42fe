// Model zoo: the paper's three architectures at configurable width.
//
// MiniAlexNet / MiniVGG16 / MiniResNet50 keep the *shape* of the originals —
// layer counts, kernel sizes, pooling schedule, skip connections, fc heads —
// while a width multiplier scales channel counts down to CPU-trainable sizes
// (DESIGN.md, substitutions table). Canonical layer names follow each
// paper architecture's usual naming so targeted injection reads naturally:
//   MiniAlexNet : conv1..conv5, fc6, fc7, fc8           (8 weight layers)
//   MiniVGG16   : conv1_1..conv5_3, fc14, fc15, fc16    (16 weight layers)
//   MiniResNet50: stem_conv, stage<s>_block<b>_conv<i>, fc (50 weight layers)
#pragma once

#include <memory>
#include <string>

#include "nn/model.hpp"

namespace ckptfi::models {

struct ModelConfig {
  /// Base channel count; the originals' channel ratios are preserved.
  std::size_t width = 8;
  std::size_t num_classes = 10;
  std::size_t in_channels = 3;
  std::size_t image_size = 32;
};

std::unique_ptr<nn::Model> make_mini_alexnet(const ModelConfig& cfg = {});
std::unique_ptr<nn::Model> make_mini_vgg16(const ModelConfig& cfg = {});
std::unique_ptr<nn::Model> make_mini_resnet50(const ModelConfig& cfg = {});

/// Build by name: "alexnet", "vgg16", "resnet50".
std::unique_ptr<nn::Model> make_model(const std::string& name,
                                      const ModelConfig& cfg = {});

/// The three studied model names, in the paper's order.
const std::vector<std::string>& model_names();

}  // namespace ckptfi::models
