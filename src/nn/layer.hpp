// Layer abstraction for the nn engine.
//
// Layers own their parameters and gradients and cache whatever forward state
// backward needs. Parameter names are *canonical* ("conv1_1/W") — framework
// adapters map canonical names to framework-specific checkpoint paths, which
// is what makes equivalent injection (paper Section IV-C) possible.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace ckptfi::nn {

/// A view of one named parameter: its value tensor, gradient tensor, and
/// whether the optimizer updates it (running BN stats are not trainable but
/// still checkpointed).
struct ParamRef {
  std::string name;  ///< canonical name, e.g. "conv1_1/W"
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
  bool trainable = true;
};

class Layer {
 public:
  explicit Layer(std::string name) : name_(std::move(name)) {}
  virtual ~Layer() = default;

  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  const std::string& name() const { return name_; }

  /// Compute y = f(x). `training` selects batch-vs-running statistics in
  /// BatchNorm and (if added later) dropout behaviour. An eval forward
  /// (`training == false`) is a pure function of (x, params): it reads and
  /// writes no layer state, so inference prefix reuse may enter the network
  /// at any segment (DESIGN.md "Segment graph & prefix reuse").
  virtual Tensor forward(const Tensor& x, bool training) = 0;

  /// Given dL/dy, accumulate parameter gradients and return dL/dx. Must be
  /// called after forward on the same input.
  virtual Tensor backward(const Tensor& dy) = 0;

  /// Append this layer's parameters to `out`.
  virtual void collect_params(std::vector<ParamRef>& out) { (void)out; }

  /// Initialise parameters from `rng` (He/Xavier as appropriate).
  virtual void init_params(Rng& rng) { (void)rng; }

 private:
  std::string name_;
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace ckptfi::nn
