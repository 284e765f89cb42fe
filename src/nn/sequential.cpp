#include "nn/sequential.hpp"

#include "obs/probes.hpp"
#include "tensor/ops.hpp"
#include "util/common.hpp"

namespace ckptfi::nn {

Sequential& Sequential::add(LayerPtr layer) {
  require(layer != nullptr, "Sequential::add: null layer");
  layers_.push_back(std::move(layer));
  return *this;
}

Tensor Sequential::forward(const Tensor& x, bool training) {
  return forward_span(0, layers_.size(), x, training);
}

Tensor Sequential::forward_span(std::size_t from, std::size_t to,
                                const Tensor& x, bool training) {
  require(from <= to && to <= layers_.size(),
          "Sequential::forward_span: bad range");
  Tensor h = x;
  // Numeric-health probes observe each layer's output when a trial has a
  // probe scope installed on this thread (obs/probes.hpp). Observation-only:
  // the probed and unprobed paths run the same layer calls in the same
  // order, so checkpoints stay bit-identical either way. Probes record
  // training forwards only, and every training forward runs the full span.
  obs::Probes* probes = training ? obs::Probes::current() : nullptr;
  for (std::size_t i = from; i < to; ++i) {
    h = layers_[i]->forward(h, training);
    if (probes != nullptr) {
      probes->record_stats(layers_[i]->name(), obs::ProbePhase::kForward,
                           tensor_stats(h.data(), h.numel()));
    }
  }
  return h;
}

Tensor Sequential::backward(const Tensor& dy) {
  Tensor g = dy;
  obs::Probes* probes = obs::Probes::current();
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->backward(g);
    if (probes != nullptr) {
      probes->record_stats((*it)->name(), obs::ProbePhase::kBackward,
                           tensor_stats(g.data(), g.numel()));
    }
  }
  return g;
}

void Sequential::collect_params(std::vector<ParamRef>& out) {
  for (auto& l : layers_) l->collect_params(out);
}

void Sequential::init_params(Rng& rng) {
  for (auto& l : layers_) l->init_params(rng);
}

Residual::Residual(std::string name, LayerPtr main_path, LayerPtr shortcut)
    : Layer(std::move(name)),
      main_(std::move(main_path)),
      shortcut_(std::move(shortcut)) {
  require(main_ != nullptr, "Residual: null main path");
}

Tensor Residual::forward(const Tensor& x, bool training) {
  Tensor y = main_->forward(x, training);
  Tensor projected;
  if (shortcut_) projected = shortcut_->forward(x, training);
  const Tensor& s = shortcut_ ? projected : x;
  if (y.shape() != s.shape())
    throw InvalidArgument("Residual '" + name() +
                          "': branch shape mismatch " +
                          shape_to_string(y.shape()) + " vs " +
                          shape_to_string(s.shape()));
  // y = relu(main + shortcut), fused in place; eval forwards keep no mask.
  if (training) {
    relu_mask_.reset(y.numel());
    add_relu_forward(y, s, &relu_mask_);
  } else {
    relu_mask_.clear();
    add_relu_forward(y, s, nullptr);
  }
  return y;
}

Tensor Residual::backward(const Tensor& dy) {
  if (relu_mask_.size() != dy.numel())
    throw InvalidArgument("Residual '" + name() +
                          "': backward needs a training forward");
  Tensor g = dy;
  relu_backward(g, relu_mask_);
  Tensor dx_main = main_->backward(g);
  Tensor dx_skip = shortcut_ ? shortcut_->backward(g) : g;
  dx_main += dx_skip;
  return dx_main;
}

void Residual::collect_params(std::vector<ParamRef>& out) {
  main_->collect_params(out);
  if (shortcut_) shortcut_->collect_params(out);
}

void Residual::init_params(Rng& rng) {
  main_->init_params(rng);
  if (shortcut_) shortcut_->init_params(rng);
}

}  // namespace ckptfi::nn
