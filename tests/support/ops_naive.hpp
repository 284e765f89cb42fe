// Reference kernels: the original direct-loop GEMM family and convolution,
// the equivalence oracle for the simd tier (docs/KERNELS.md). Test and
// microbenchmark code only — the library never calls them.
#pragma once

#include "tensor/ops.hpp"

namespace ckptfi::naive {

void matmul(const Tensor& a, const Tensor& b, Tensor& c,
            bool accumulate = false);
void matmul_at(const Tensor& a, const Tensor& b, Tensor& c);
void matmul_bt(const Tensor& a, const Tensor& b, Tensor& c);
void conv2d_forward(const Tensor& x, const Tensor& w, const Tensor& b,
                    const ConvSpec& spec, Tensor& y);
void conv2d_backward(const Tensor& x, const Tensor& w, const ConvSpec& spec,
                     const Tensor& dy, Tensor& dx, Tensor& dw, Tensor& db);

}  // namespace ckptfi::naive
