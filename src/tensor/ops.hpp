// Tensor kernels: GEMM, 2-d convolution, ReLU, pooling — forward and
// backward — and the probes' tensor stats.
//
// Kernels are deterministic: loop order is fixed and parallel chunking is a
// pure function of the range and worker count, so repeated runs at fixed
// CKPTFI_THREADS are bit-identical (the paper's methodology requires this to
// compare corrupted vs clean runs).
//
// The GEMM family and the conv2d kernels have one implementation, the
// vectorized lane-blocked simd tier (namespace simd, ops_simd.cpp) with
// runtime ISA dispatch. The unqualified GEMM entry points below route to the
// fp16 mixed-precision path when gemm_precision() selects it (see
// kernels.hpp) and to simd otherwise; conv2d always runs simd. Both
// namespaces are public so tests and bench_micro_kernels can pin one side
// explicitly. Contract (docs/KERNELS.md):
//
//   simd (all kernels)               scalar lanes ≡ vector ISAs bitwise
//                                    (identical lane-blocked FMA order);
//                                    ulp-level relative tolerance against
//                                    the direct-loop reference kernels the
//                                    tests keep (tests/support/ops_naive.hpp)
//   fp16 (GEMM family)               mixed precision: operands quantized to
//                                    binary16 (≡ quantize_value(v,16)),
//                                    accumulated in fp32 lanes; scalar ≡
//                                    vector bitwise
#pragma once

#include "obs/probes.hpp"
#include "tensor/bitmask.hpp"
#include "tensor/tensor.hpp"

namespace ckptfi {

/// C[m,n] = A[m,k] * B[k,n]  (+ C if accumulate).
void matmul(const Tensor& a, const Tensor& b, Tensor& c,
            bool accumulate = false);

/// C[m,n] = A[k,m]^T * B[k,n].
void matmul_at(const Tensor& a, const Tensor& b, Tensor& c);

/// C[m,k] = A[m,n] * B[k,n]^T.
void matmul_bt(const Tensor& a, const Tensor& b, Tensor& c);

/// Parameters of a conv/pool spatial mapping.
struct ConvSpec {
  std::size_t kernel = 3;
  std::size_t stride = 1;
  std::size_t pad = 1;
  /// Output extent for input extent `in`.
  std::size_t out_extent(std::size_t in) const {
    return (in + 2 * pad - kernel) / stride + 1;
  }
};

/// y[N,Co,Ho,Wo] = conv2d(x[N,Ci,H,W], w[Co,Ci,kh,kw]) + b[Co].
void conv2d_forward(const Tensor& x, const Tensor& w, const Tensor& b,
                    const ConvSpec& spec, Tensor& y);

/// Gradients of conv2d. dx/dw/db must be pre-shaped; dw and db are
/// *overwritten* (not accumulated).
void conv2d_backward(const Tensor& x, const Tensor& w, const ConvSpec& spec,
                     const Tensor& dy, Tensor& dx, Tensor& dw, Tensor& db);

/// The kernel tier: lane-blocked FMA microkernels (AVX2+FMA / NEON /
/// portable scalar lanes, runtime-dispatched on simd_isa()). The
/// fixed-width lane reduction order is the tier's own deterministic
/// contract; conv rides im2col plus the same GEMM microkernels.
namespace simd {
void matmul(const Tensor& a, const Tensor& b, Tensor& c,
            bool accumulate = false);
void matmul_at(const Tensor& a, const Tensor& b, Tensor& c);
void matmul_bt(const Tensor& a, const Tensor& b, Tensor& c);
void conv2d_forward(const Tensor& x, const Tensor& w, const Tensor& b,
                    const ConvSpec& spec, Tensor& y);
void conv2d_backward(const Tensor& x, const Tensor& w, const ConvSpec& spec,
                     const Tensor& dy, Tensor& dx, Tensor& dw, Tensor& db);
}  // namespace simd

/// Mixed-precision GEMM family (MPGemmFI's shape): operands are quantized to
/// IEEE binary16 storage panels (bitwise ≡ quantize_value(v, 16)) and
/// accumulated in fp32 with the same 8-lane structure as the simd tier.
/// Dispatched instead of simd when gemm_precision() == kFp16.
namespace fp16 {
void matmul(const Tensor& a, const Tensor& b, Tensor& c,
            bool accumulate = false);
void matmul_at(const Tensor& a, const Tensor& b, Tensor& c);
void matmul_bt(const Tensor& a, const Tensor& b, Tensor& c);
}  // namespace fp16

/// In-place ReLU through a select: y[i] stays where y[i] > 0 or y[i] is NaN
/// (payload kept) and becomes +0 elsewhere, −0 included. A non-null `mask`,
/// sized to y.numel() by the caller, gets bit i set where y[i] stayed — the
/// train-mode backward mask; eval forwards pass nullptr and keep none.
void relu_forward(Tensor& y, BitMask* mask);

/// In-place y = relu(y + s), the Residual join; same select and mask.
void add_relu_forward(Tensor& y, const Tensor& s, BitMask* mask);

/// ReLU backward in place: g[i] stays where mask bit i is set, else +0.
void relu_backward(Tensor& g, const BitMask& mask);

/// The numeric-health block of x[0..n) the probes record (obs/probes.hpp):
/// NaN, Inf and ±0 counts, max |v| over finite v, and
/// l2 = sqrt(s), where s sums v·v over the finite v in one ascending chain
/// of adds from +0. Each ISA gives these bits (docs/KERNELS.md).
obs::TensorStats tensor_stats(const double* x, std::size_t n);

/// Max pooling. The first NaN in a window's scan order wins, else its first
/// strict maximum. A non-null `argmax` (train mode) records the winning
/// input offset per output for backward; eval forwards pass nullptr.
void maxpool2d_forward(const Tensor& x, const ConvSpec& spec, Tensor& y,
                       std::vector<std::size_t>* argmax);
void maxpool2d_backward(const Tensor& dy,
                        const std::vector<std::size_t>& argmax, Tensor& dx);

/// Global average over spatial dims: x[N,C,H,W] -> y[N,C].
void global_avgpool_forward(const Tensor& x, Tensor& y);
void global_avgpool_backward(const Tensor& dy, const Shape& x_shape,
                             Tensor& dx);

/// Row-wise softmax of logits[N,K] (numerically stabilised).
void softmax_rows(const Tensor& logits, Tensor& probs);

}  // namespace ckptfi
