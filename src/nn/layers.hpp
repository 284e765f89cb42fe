// Concrete layers: Conv2D, Dense, ReLU, MaxPool2D, GlobalAvgPool, Flatten,
// BatchNorm2D.
#pragma once

#include "nn/layer.hpp"
#include "tensor/ops.hpp"

namespace ckptfi::nn {

/// 2-d convolution with bias. Weight layout is canonical OIHW
/// [out_ch, in_ch, k, k]; framework adapters permute on checkpoint save.
class Conv2D : public Layer {
 public:
  Conv2D(std::string name, std::size_t in_ch, std::size_t out_ch,
         std::size_t kernel, std::size_t stride = 1, std::size_t pad = 1);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& dy) override;
  void collect_params(std::vector<ParamRef>& out) override;
  void init_params(Rng& rng) override;


  const Tensor& weight() const { return w_; }
  const ConvSpec& spec() const { return spec_; }
  std::size_t in_channels() const { return in_ch_; }
  std::size_t out_channels() const { return out_ch_; }

 private:
  std::size_t in_ch_, out_ch_;
  ConvSpec spec_;
  Tensor w_, b_, dw_, db_;
  Tensor x_cache_;
};

/// Fully connected layer: y = x W + b, W layout [in, out].
class Dense : public Layer {
 public:
  Dense(std::string name, std::size_t in_dim, std::size_t out_dim);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& dy) override;
  void collect_params(std::vector<ParamRef>& out) override;
  void init_params(Rng& rng) override;


  std::size_t in_dim() const { return in_dim_; }
  std::size_t out_dim() const { return out_dim_; }

 private:
  std::size_t in_dim_, out_dim_;
  Tensor w_, b_, dw_, db_;
  Tensor x_cache_;
};

class ReLU : public Layer {
 public:
  explicit ReLU(std::string name) : Layer(std::move(name)) {}
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& dy) override;

 private:
  BitMask mask_;
};

class MaxPool2D : public Layer {
 public:
  MaxPool2D(std::string name, std::size_t kernel, std::size_t stride,
            std::size_t pad = 0);
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& dy) override;

 private:
  ConvSpec spec_;
  Shape x_shape_;
  std::vector<std::size_t> argmax_;
};

/// [N,C,H,W] -> [N,C] spatial mean.
class GlobalAvgPool : public Layer {
 public:
  explicit GlobalAvgPool(std::string name) : Layer(std::move(name)) {}
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& dy) override;

 private:
  Shape x_shape_;
};

/// [N,...] -> [N, prod(rest)].
class Flatten : public Layer {
 public:
  explicit Flatten(std::string name) : Layer(std::move(name)) {}
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& dy) override;

 private:
  Shape x_shape_;
};

/// Per-channel batch normalisation over (N,H,W) with affine transform and
/// running statistics (running stats are checkpointed but not trainable).
class BatchNorm2D : public Layer {
 public:
  BatchNorm2D(std::string name, std::size_t channels, double momentum = 0.9,
              double eps = 1e-5);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& dy) override;
  void collect_params(std::vector<ParamRef>& out) override;
  void init_params(Rng& rng) override;


 private:
  std::size_t channels_;
  double momentum_, eps_;
  Tensor gamma_, beta_, dgamma_, dbeta_;
  Tensor running_mean_, running_var_;
  Tensor unused_grad_;  // grad slot for non-trainable params
  // forward cache
  Tensor x_hat_;
  std::vector<double> batch_mean_, batch_inv_std_;
  Shape x_shape_;
};

}  // namespace ckptfi::nn
