// Kernel dispatch plus the kernels too light to vectorize: pooling backward,
// global average pooling and softmax. The GEMM family and convolution run on
// the simd tier or, for the GEMM family under fp16 compute, on the
// mixed-precision path; ReLU and max-pool forward are selects with their own
// vector lanes — all in ops_simd.cpp.
#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "tensor/kernels.hpp"
#include "tensor/ops_detail.hpp"
#include "util/common.hpp"

namespace ckptfi {

using detail::ScopedHistTimer;

void matmul(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate) {
  ScopedHistTimer t("kernels.gemm_time");
  if (gemm_precision() == GemmPrecision::kFp16) {
    fp16::matmul(a, b, c, accumulate);
  } else {
    simd::matmul(a, b, c, accumulate);
  }
}

void matmul_at(const Tensor& a, const Tensor& b, Tensor& c) {
  ScopedHistTimer t("kernels.gemm_time");
  if (gemm_precision() == GemmPrecision::kFp16) {
    fp16::matmul_at(a, b, c);
  } else {
    simd::matmul_at(a, b, c);
  }
}

void matmul_bt(const Tensor& a, const Tensor& b, Tensor& c) {
  ScopedHistTimer t("kernels.gemm_time");
  if (gemm_precision() == GemmPrecision::kFp16) {
    fp16::matmul_bt(a, b, c);
  } else {
    simd::matmul_bt(a, b, c);
  }
}

void conv2d_forward(const Tensor& x, const Tensor& w, const Tensor& b,
                    const ConvSpec& spec, Tensor& y) {
  simd::conv2d_forward(x, w, b, spec, y);
}

void conv2d_backward(const Tensor& x, const Tensor& w, const ConvSpec& spec,
                     const Tensor& dy, Tensor& dx, Tensor& dw, Tensor& db) {
  simd::conv2d_backward(x, w, spec, dy, dx, dw, db);
}

void maxpool2d_backward(const Tensor& dy,
                        const std::vector<std::size_t>& argmax, Tensor& dx) {
  require(argmax.size() == dy.numel(), "maxpool2d_backward: argmax mismatch");
  dx.fill(0.0);
  const double* pdy = dy.data();
  double* pdx = dx.data();
  for (std::size_t i = 0; i < argmax.size(); ++i) {
    pdx[argmax[i]] += pdy[i];
  }
}

void global_avgpool_forward(const Tensor& x, Tensor& y) {
  require(x.rank() == 4, "global_avgpool: input must be [N,C,H,W]");
  const std::size_t n = x.dim(0), c = x.dim(1), hw = x.dim(2) * x.dim(3);
  y.resize({n, c});
  const double* px = x.data();
  double* py = y.data();
  for (std::size_t i = 0; i < n * c; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < hw; ++j) s += px[i * hw + j];
    py[i] = s / static_cast<double>(hw);
  }
}

void global_avgpool_backward(const Tensor& dy, const Shape& x_shape,
                             Tensor& dx) {
  require(x_shape.size() == 4, "global_avgpool_backward: bad x_shape");
  const std::size_t n = x_shape[0], c = x_shape[1],
                    hw = x_shape[2] * x_shape[3];
  require(dy.shape() == Shape{n, c}, "global_avgpool_backward: dy mismatch");
  dx.resize(x_shape);
  const double* pdy = dy.data();
  double* pdx = dx.data();
  const double inv = 1.0 / static_cast<double>(hw);
  for (std::size_t i = 0; i < n * c; ++i) {
    const double g = pdy[i] * inv;
    for (std::size_t j = 0; j < hw; ++j) pdx[i * hw + j] = g;
  }
}

void softmax_rows(const Tensor& logits, Tensor& probs) {
  require(logits.rank() == 2, "softmax_rows: rank-2 input required");
  const std::size_t n = logits.dim(0), k = logits.dim(1);
  probs.resize(logits.shape());
  const double* pl = logits.data();
  double* pp = probs.data();
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = pl + i * k;
    double mx = row[0];
    for (std::size_t j = 1; j < k; ++j) mx = std::max(mx, row[j]);
    double sum = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      const double e = std::exp(row[j] - mx);
      pp[i * k + j] = e;
      sum += e;
    }
    for (std::size_t j = 0; j < k; ++j) pp[i * k + j] /= sum;
  }
}

}  // namespace ckptfi
