// Layer containers: Sequential chains and Residual (skip-connection) blocks.
#pragma once

#include <memory>
#include <vector>

#include "nn/layer.hpp"
#include "tensor/bitmask.hpp"

namespace ckptfi::nn {

/// Runs layers in order; backward in reverse order.
class Sequential : public Layer {
 public:
  explicit Sequential(std::string name = "seq") : Layer(std::move(name)) {}

  /// Append a layer; returns a reference for chaining.
  Sequential& add(LayerPtr layer);

  /// Convenience: construct in place.
  template <typename L, typename... Args>
  Sequential& emplace(Args&&... args) {
    return add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  std::size_t size() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }
  const Layer& layer(std::size_t i) const { return *layers_.at(i); }

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& dy) override;
  void collect_params(std::vector<ParamRef>& out) override;
  void init_params(Rng& rng) override;

  // --- segment view (prefix-reuse; DESIGN.md "Segment graph") -------------
  // Top-level layers are the segments: stable 0-based indices, one boundary
  // activation between consecutive segments. forward() ≡ forward_span(0,
  // size(), ...), and a prefix-entered prediction takes [0, seg) from cache
  // then runs forward_span(seg, size(), ...).

  /// Run layers [from, to); returns the activation leaving layer to-1 (or
  /// `x` when the span is empty). Probe recording matches forward() for the
  /// layers actually run.
  Tensor forward_span(std::size_t from, std::size_t to, const Tensor& x,
                      bool training);

 private:
  std::vector<LayerPtr> layers_;
};

/// y = relu(main(x) + shortcut(x)); shortcut is identity when null. This is
/// the ResNet building block (paper Section III-A: "skip connections ...
/// input of a previous layer is added directly to the output of another").
class Residual : public Layer {
 public:
  Residual(std::string name, LayerPtr main_path, LayerPtr shortcut = nullptr);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& dy) override;
  void collect_params(std::vector<ParamRef>& out) override;
  void init_params(Rng& rng) override;

 private:
  LayerPtr main_;
  LayerPtr shortcut_;  // nullptr => identity
  BitMask relu_mask_;
};

}  // namespace ckptfi::nn
