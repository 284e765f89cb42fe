#include "nn/layers.hpp"

#include <cmath>

#include "util/common.hpp"

namespace ckptfi::nn {

// --- Conv2D -----------------------------------------------------------------

Conv2D::Conv2D(std::string name, std::size_t in_ch, std::size_t out_ch,
               std::size_t kernel, std::size_t stride, std::size_t pad)
    : Layer(std::move(name)),
      in_ch_(in_ch),
      out_ch_(out_ch),
      spec_{kernel, stride, pad},
      w_({out_ch, in_ch, kernel, kernel}),
      b_({out_ch}),
      dw_({out_ch, in_ch, kernel, kernel}),
      db_({out_ch}) {}

void Conv2D::init_params(Rng& rng) {
  // He initialisation for ReLU networks.
  const double fan_in =
      static_cast<double>(in_ch_ * spec_.kernel * spec_.kernel);
  const double s = std::sqrt(2.0 / fan_in);
  for (auto& v : w_.vec()) v = rng.normal(0.0, s);
  b_.fill(0.0);
}

// Eval forwards keep no backward state and drop a stale one. A dropped
// cache keeps its heap block (resize to {0}), so the trainer's end-of-epoch
// evaluation does not hand the next epoch's training forward a fresh
// allocation; a model that only runs eval forwards never allocates one.

Tensor Conv2D::forward(const Tensor& x, bool training) {
  if (training) {
    x_cache_ = x;
  } else {
    x_cache_.resize({0});
  }
  Tensor y;
  conv2d_forward(x, w_, b_, spec_, y);
  return y;
}

Tensor Conv2D::backward(const Tensor& dy) {
  if (x_cache_.rank() != 4)
    throw InvalidArgument("Conv2D '" + name() +
                          "': backward needs a training forward");
  Tensor dx;
  conv2d_backward(x_cache_, w_, spec_, dy, dx, dw_, db_);
  return dx;
}

void Conv2D::collect_params(std::vector<ParamRef>& out) {
  out.push_back({name() + "/W", &w_, &dw_, true});
  out.push_back({name() + "/b", &b_, &db_, true});
}

// --- Dense -------------------------------------------------------------------

Dense::Dense(std::string name, std::size_t in_dim, std::size_t out_dim)
    : Layer(std::move(name)),
      in_dim_(in_dim),
      out_dim_(out_dim),
      w_({in_dim, out_dim}),
      b_({out_dim}),
      dw_({in_dim, out_dim}),
      db_({out_dim}) {}

void Dense::init_params(Rng& rng) {
  const double s = std::sqrt(2.0 / static_cast<double>(in_dim_));
  for (auto& v : w_.vec()) v = rng.normal(0.0, s);
  b_.fill(0.0);
}

Tensor Dense::forward(const Tensor& x, bool training) {
  if (x.rank() != 2 || x.dim(1) != in_dim_)
    throw InvalidArgument("Dense '" + name() + "': bad input shape " +
                          shape_to_string(x.shape()));
  if (training) {
    x_cache_ = x;
  } else {
    x_cache_.resize({0});
  }
  Tensor y;
  matmul(x, w_, y);
  const std::size_t n = y.dim(0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < out_dim_; ++j) y[i * out_dim_ + j] += b_[j];
  }
  return y;
}

Tensor Dense::backward(const Tensor& dy) {
  if (x_cache_.rank() != 2)
    throw InvalidArgument("Dense '" + name() +
                          "': backward needs a training forward");
  matmul_at(x_cache_, dy, dw_);
  db_.fill(0.0);
  const std::size_t n = dy.dim(0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < out_dim_; ++j) db_[j] += dy[i * out_dim_ + j];
  }
  Tensor dx;
  matmul_bt(dy, w_, dx);
  return dx;
}

void Dense::collect_params(std::vector<ParamRef>& out) {
  out.push_back({name() + "/W", &w_, &dw_, true});
  out.push_back({name() + "/b", &b_, &db_, true});
}

// --- ReLU --------------------------------------------------------------------

Tensor ReLU::forward(const Tensor& x, bool training) {
  // relu(NaN) = NaN in the frameworks we model; keep propagation alive.
  Tensor y = x;
  if (training) {
    mask_.reset(y.numel());
    relu_forward(y, &mask_);
  } else {
    mask_.clear();
    relu_forward(y, nullptr);
  }
  return y;
}

Tensor ReLU::backward(const Tensor& dy) {
  if (mask_.size() != dy.numel())
    throw InvalidArgument("ReLU '" + name() +
                          "': backward needs a training forward");
  Tensor dx = dy;
  relu_backward(dx, mask_);
  return dx;
}

// --- MaxPool2D -----------------------------------------------------------------

MaxPool2D::MaxPool2D(std::string name, std::size_t kernel, std::size_t stride,
                     std::size_t pad)
    : Layer(std::move(name)), spec_{kernel, stride, pad} {}

Tensor MaxPool2D::forward(const Tensor& x, bool training) {
  Tensor y;
  if (training) {
    x_shape_ = x.shape();
    maxpool2d_forward(x, spec_, y, &argmax_);
  } else {
    argmax_.clear();
    maxpool2d_forward(x, spec_, y, nullptr);
  }
  return y;
}

Tensor MaxPool2D::backward(const Tensor& dy) {
  if (argmax_.size() != dy.numel())
    throw InvalidArgument("MaxPool2D '" + name() +
                          "': backward needs a training forward");
  Tensor dx(x_shape_);
  maxpool2d_backward(dy, argmax_, dx);
  return dx;
}

// --- GlobalAvgPool -----------------------------------------------------------

Tensor GlobalAvgPool::forward(const Tensor& x, bool) {
  x_shape_ = x.shape();
  Tensor y;
  global_avgpool_forward(x, y);
  return y;
}

Tensor GlobalAvgPool::backward(const Tensor& dy) {
  Tensor dx;
  global_avgpool_backward(dy, x_shape_, dx);
  return dx;
}

// --- Flatten -------------------------------------------------------------------

Tensor Flatten::forward(const Tensor& x, bool) {
  x_shape_ = x.shape();
  require(x.rank() >= 2, "Flatten: rank >= 2 required");
  return x.reshaped({x.dim(0), x.numel() / x.dim(0)});
}

Tensor Flatten::backward(const Tensor& dy) { return dy.reshaped(x_shape_); }

// --- BatchNorm2D ----------------------------------------------------------------

BatchNorm2D::BatchNorm2D(std::string name, std::size_t channels,
                         double momentum, double eps)
    : Layer(std::move(name)),
      channels_(channels),
      momentum_(momentum),
      eps_(eps),
      gamma_({channels}, 1.0),
      beta_({channels}),
      dgamma_({channels}),
      dbeta_({channels}),
      running_mean_({channels}),
      running_var_({channels}, 1.0),
      unused_grad_({channels}) {}

void BatchNorm2D::init_params(Rng&) {
  gamma_.fill(1.0);
  beta_.fill(0.0);
  running_mean_.fill(0.0);
  running_var_.fill(1.0);
}

Tensor BatchNorm2D::forward(const Tensor& x, bool training) {
  if (x.rank() != 4 || x.dim(1) != channels_)
    throw InvalidArgument("BatchNorm2D '" + name() + "': bad input shape");
  const std::size_t n = x.dim(0), c = channels_, hw = x.dim(2) * x.dim(3);
  const double count = static_cast<double>(n * hw);

  Tensor y(x.shape());
  if (training) {
    x_shape_ = x.shape();
    batch_mean_.assign(c, 0.0);
    batch_inv_std_.assign(c, 0.0);
    x_hat_.resize(x.shape());
  } else {
    x_hat_.resize({0});
  }

  for (std::size_t ch = 0; ch < c; ++ch) {
    double m, var;
    if (training) {
      double s = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double* p = x.data() + (i * c + ch) * hw;
        for (std::size_t j = 0; j < hw; ++j) s += p[j];
      }
      m = s / count;
      double v = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double* p = x.data() + (i * c + ch) * hw;
        for (std::size_t j = 0; j < hw; ++j) v += (p[j] - m) * (p[j] - m);
      }
      var = v / count;
      running_mean_[ch] = momentum_ * running_mean_[ch] + (1 - momentum_) * m;
      running_var_[ch] = momentum_ * running_var_[ch] + (1 - momentum_) * var;
    } else {
      m = running_mean_[ch];
      var = running_var_[ch];
    }
    const double inv_std = 1.0 / std::sqrt(var + eps_);
    const double g = gamma_[ch], b = beta_[ch];
    if (training) {
      batch_mean_[ch] = m;
      batch_inv_std_[ch] = inv_std;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const double* p = x.data() + (i * c + ch) * hw;
      double* ph = training ? x_hat_.data() + (i * c + ch) * hw : nullptr;
      double* py = y.data() + (i * c + ch) * hw;
      for (std::size_t j = 0; j < hw; ++j) {
        const double h = (p[j] - m) * inv_std;
        if (training) ph[j] = h;
        py[j] = g * h + b;
      }
    }
  }
  return y;
}

Tensor BatchNorm2D::backward(const Tensor& dy) {
  if (x_hat_.shape() != dy.shape())
    throw InvalidArgument("BatchNorm2D '" + name() +
                          "': backward needs a training forward");
  const std::size_t n = x_shape_[0], c = channels_,
                    hw = x_shape_[2] * x_shape_[3];
  const double count = static_cast<double>(n * hw);
  Tensor dx(x_shape_);

  for (std::size_t ch = 0; ch < c; ++ch) {
    double sum_dy = 0.0, sum_dy_xhat = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double* pdy = dy.data() + (i * c + ch) * hw;
      const double* ph = x_hat_.data() + (i * c + ch) * hw;
      for (std::size_t j = 0; j < hw; ++j) {
        sum_dy += pdy[j];
        sum_dy_xhat += pdy[j] * ph[j];
      }
    }
    dgamma_[ch] = sum_dy_xhat;
    dbeta_[ch] = sum_dy;
    const double g = gamma_[ch] * batch_inv_std_[ch];
    for (std::size_t i = 0; i < n; ++i) {
      const double* pdy = dy.data() + (i * c + ch) * hw;
      const double* ph = x_hat_.data() + (i * c + ch) * hw;
      double* pdx = dx.data() + (i * c + ch) * hw;
      for (std::size_t j = 0; j < hw; ++j) {
        pdx[j] =
            g * (pdy[j] - sum_dy / count - ph[j] * sum_dy_xhat / count);
      }
    }
  }
  return dx;
}

void BatchNorm2D::collect_params(std::vector<ParamRef>& out) {
  out.push_back({name() + "/gamma", &gamma_, &dgamma_, true});
  out.push_back({name() + "/beta", &beta_, &dbeta_, true});
  out.push_back(
      {name() + "/running_mean", &running_mean_, &unused_grad_, false});
  out.push_back(
      {name() + "/running_var", &running_var_, &unused_grad_, false});
}

}  // namespace ckptfi::nn
