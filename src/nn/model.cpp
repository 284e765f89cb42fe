#include "nn/model.hpp"

#include <algorithm>

#include "util/common.hpp"
#include "util/strings.hpp"

namespace ckptfi::nn {

Model::Model(std::string name, Shape input_shape, std::size_t num_classes,
             std::unique_ptr<Sequential> net)
    : name_(std::move(name)),
      input_shape_(std::move(input_shape)),
      num_classes_(num_classes),
      net_(std::move(net)) {
  require(net_ != nullptr, "Model: null network");
  require(input_shape_.size() == 3, "Model: input shape must be [C,H,W]");
}

void Model::init(std::uint64_t seed) {
  Rng rng(seed);
  net_->init_params(rng);
  params_dirty_ = true;
}

void Model::refresh_params() {
  if (!params_dirty_) return;
  params_.clear();
  net_->collect_params(params_);
  params_dirty_ = false;
}

const std::vector<ParamRef>& Model::params() {
  refresh_params();
  return params_;
}

ParamRef* Model::find_param(const std::string& name) {
  refresh_params();
  for (auto& p : params_) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

std::vector<std::string> Model::layer_names() {
  refresh_params();
  std::vector<std::string> out;
  for (const auto& p : params_) {
    const auto parts = split_path(p.name);
    require(parts.size() >= 2, "Model: malformed param name " + p.name);
    std::string layer = parts[0];
    for (std::size_t i = 1; i + 1 < parts.size(); ++i) layer += "/" + parts[i];
    if (std::find(out.begin(), out.end(), layer) == out.end())
      out.push_back(layer);
  }
  return out;
}

std::vector<std::string> Model::weight_layer_names() {
  refresh_params();
  std::vector<std::string> out;
  for (const auto& p : params_) {
    const auto parts = split_path(p.name);
    if (parts.back() != "W") continue;
    std::string layer = parts[0];
    for (std::size_t i = 1; i + 1 < parts.size(); ++i) layer += "/" + parts[i];
    if (std::find(out.begin(), out.end(), layer) == out.end())
      out.push_back(layer);
  }
  return out;
}

std::size_t Model::num_parameters() {
  refresh_params();
  std::size_t n = 0;
  for (const auto& p : params_) {
    if (p.trainable) n += p.value->numel();
  }
  return n;
}

bool Model::has_non_finite_params() {
  refresh_params();
  for (const auto& p : params_) {
    if (p.value->has_non_finite()) return true;
  }
  return false;
}

std::size_t Model::segment_of_layer(const std::string& layer) {
  if (!layer_segments_built_) {
    // Collect each top-level segment's parameters separately: every canonical
    // layer prefix seen inside segment i belongs to i. Nested containers
    // (Residual branches) thus map to their containing top-level segment.
    for (std::size_t i = 0; i < net_->size(); ++i) {
      std::vector<ParamRef> params;
      net_->layer(i).collect_params(params);
      for (const auto& p : params) {
        const auto parts = split_path(p.name);
        require(parts.size() >= 2, "Model: malformed param name " + p.name);
        std::string owner = parts[0];
        for (std::size_t k = 1; k + 1 < parts.size(); ++k)
          owner += "/" + parts[k];
        layer_segments_.emplace(owner, i);
      }
    }
    layer_segments_built_ = true;
  }
  const auto it = layer_segments_.find(layer);
  return it == layer_segments_.end() ? kNoSegment : it->second;
}

Tensor Model::forward_from(std::size_t seg, const Tensor& boundary) {
  require(seg <= net_->size(), "Model::forward_from: bad segment");
  return net_->forward_span(seg, net_->size(), boundary, /*training=*/false);
}

}  // namespace ckptfi::nn
