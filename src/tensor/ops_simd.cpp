// The kernel tier: explicitly vectorized lane-blocked FMA microkernels with
// runtime ISA dispatch (AVX2+FMA on x86-64, NEON on aarch64, portable scalar
// lanes everywhere), plus the fp16 mixed-precision GEMM path.
//
// Deterministic contract (docs/KERNELS.md). Every kernel is built from two
// accumulation shapes, and the scalar fallback replays them term-for-term
// with std::fma, so scalar ≡ avx2 ≡ neon *bitwise*:
//
//   broadcast shape (matmul, matmul_at, conv forward, conv dcol): each
//   output element is one FMA chain over ascending p — c = fma(a_p, b_p, c)
//   — vectorized across output columns, which shares the broadcast operand
//   but leaves every element's chain untouched. FMA rounds once per term
//   (IEEE correctly-rounded), identically on every ISA. The broadcast
//   operand keeps the reference loops' exact-zero skip, so 0·Inf terms stay
//   masked the way they mask them.
//
//   dot shape (matmul_bt, conv dw/db): 8 logical lanes regardless of ISA or
//   dtype — lane l accumulates the terms with index ≡ l (mod 8) in ascending
//   order (the tail folds into lanes 0..r-1 the same way), then the lanes
//   are folded in the fixed tree ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)).
//   AVX2 carries the lanes in two 4-double ymm registers (one 8-float ymm
//   for fp32), NEON in four float64x2 (two float32x4), the scalar fallback
//   in a double[8] — same lanes, same order, same fold.
//
// The fp16 path quantizes A and B to binary16 storage panels (bitwise
// identical to quantize_value(v, 16)), widens them exactly to fp32, runs the
// same lane-structured kernels with fp32 FMA, and widens the accumulators to
// double on writeback — MPGemmFI's mixed-precision GEMM shape.
//
// Parallelism: chunking over output rows / images is a pure function of
// shape and worker count, conv dw/db go through per-image partials reduced
// in ascending image order, and all scratch lives in the Workspace arena
// (fp32/u16 panels via the typed views).
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>

#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"
#include "tensor/ops_detail.hpp"
#include "tensor/workspace.hpp"
#include "util/common.hpp"
#include "util/float16.hpp"
#include "util/threadpool.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#define CKPTFI_SIMD_X86 1
#include <immintrin.h>
#elif defined(__aarch64__)
#define CKPTFI_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace ckptfi {

namespace {

using detail::ConvDims;
using detail::ScopedHistTimer;

/// k-dimension block: one B panel (kKc rows of B) stays cache-hot while the
/// whole row chunk sweeps over it. Blocks are visited in ascending order, so
/// per-element summation order is unchanged by the blocking.
constexpr std::size_t kKc = 256;

/// Below this many flops a kernel runs single-threaded: fork/join overhead
/// would dominate. A pure function of the operand shapes, so the
/// serial/parallel decision never depends on runtime state.
constexpr std::size_t kPoolMinFlops = std::size_t{1} << 18;

std::size_t gemm_flops(std::size_t m, std::size_t k, std::size_t n) {
  return 2 * m * k * n;
}

std::size_t conv_flops(const ConvDims& d) {
  return 2 * d.n * d.co * d.ho * d.wo * d.ci * d.kh * d.kw;
}

/// Run fn over [0, n): pool fan-out for heavy shapes, inline otherwise.
void run_chunks(std::size_t n, bool parallel,
                const std::function<void(std::size_t, std::size_t)>& fn) {
  if (parallel) {
    ThreadPool::global().parallel_for(n, fn);
  } else {
    fn(0, n);
  }
}

/// x image [ci,h,w] -> col [K = ci*kh*kw, P = ho*wo], row r = (ic,ky,kx) in
/// ascending order (the reference kernels' accumulation order), padding as
/// explicit zeros.
void im2col(const double* xi, const ConvDims& d, const ConvSpec& spec,
            double* col) {
  double* out = col;
  for (std::size_t ic = 0; ic < d.ci; ++ic) {
    const double* xmap = xi + ic * d.h * d.w;
    for (std::size_t ky = 0; ky < d.kh; ++ky) {
      for (std::size_t kx = 0; kx < d.kw; ++kx) {
        for (std::size_t oy = 0; oy < d.ho; ++oy) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * spec.stride + ky) -
              static_cast<std::ptrdiff_t>(spec.pad);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(d.h)) {
            for (std::size_t ox = 0; ox < d.wo; ++ox) *out++ = 0.0;
            continue;
          }
          const double* xrow = xmap + static_cast<std::size_t>(iy) * d.w;
          for (std::size_t ox = 0; ox < d.wo; ++ox) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * spec.stride + kx) -
                static_cast<std::ptrdiff_t>(spec.pad);
            *out++ = (ix < 0 || ix >= static_cast<std::ptrdiff_t>(d.w))
                         ? 0.0
                         : xrow[static_cast<std::size_t>(ix)];
          }
        }
      }
    }
  }
}

/// Scatter-accumulate col [K,P] back into one pre-zeroed dx image, visiting
/// rows in the same ascending (ic,ky,kx) order im2col wrote them.
void col2im(const double* col, const ConvDims& d, const ConvSpec& spec,
            double* dxi) {
  const double* in = col;
  for (std::size_t ic = 0; ic < d.ci; ++ic) {
    double* dxmap = dxi + ic * d.h * d.w;
    for (std::size_t ky = 0; ky < d.kh; ++ky) {
      for (std::size_t kx = 0; kx < d.kw; ++kx) {
        for (std::size_t oy = 0; oy < d.ho; ++oy) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * spec.stride + ky) -
              static_cast<std::ptrdiff_t>(spec.pad);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(d.h)) {
            in += d.wo;
            continue;
          }
          double* dxrow = dxmap + static_cast<std::size_t>(iy) * d.w;
          for (std::size_t ox = 0; ox < d.wo; ++ox) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * spec.stride + kx) -
                static_cast<std::ptrdiff_t>(spec.pad);
            const double v = *in++;
            if (ix >= 0 && ix < static_cast<std::ptrdiff_t>(d.w))
              dxrow[static_cast<std::size_t>(ix)] += v;
          }
        }
      }
    }
  }
}

/// Logical accumulator lanes per dot product — the documented reduction
/// width, independent of ISA and dtype.
constexpr std::size_t kLanes = 8;

/// The fixed lane fold: ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)).
inline double lane_fold(const double* l) {
  return ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
}

inline float lane_fold(const float* l) {
  return ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
}

// ---------------------------------------------------------------------------
// fp64 microkernels. Shared shapes:
//   gemm_rows:    C[r0..r1, n] += A[r0..r1, k] · B[k, n]      (broadcast)
//   gemm_at_rows: C[r0..r1, n] += A[k, m]^T  · B[k, n]        (broadcast)
//   gemm_bt_rows: C[r0..r1, kk] = A[r0..r1, n] · B[kk, n]^T   (8-lane dots)
//   row_sums:     dst[i] = Σ_pos src[i, pos]                  (8-lane sums)
// conv2d rides these: forward = gemm_rows over [co,K]·col[K,P] (bias-filled
// C), dw = gemm_bt_rows(dy, col), db = row_sums(dy), dcol = gemm_at_rows
// with W viewed as [co, K].
// ---------------------------------------------------------------------------

void gemm_rows_scalar(const double* pa, const double* pb, double* pc,
                      std::size_t r0, std::size_t r1, std::size_t k,
                      std::size_t n) {
  for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
    const std::size_t p1 = std::min(k, p0 + kKc);
    for (std::size_t i = r0; i < r1; ++i) {
      const double* arow = pa + i * k;
      double* crow = pc + i * n;
      for (std::size_t p = p0; p < p1; ++p) {
        const double av = arow[p];
        if (av == 0.0) continue;  // broadcast zero-skip: masks 0·Inf
        const double* brow = pb + p * n;
        for (std::size_t j = 0; j < n; ++j)
          crow[j] = std::fma(av, brow[j], crow[j]);
      }
    }
  }
}

void gemm_at_rows_scalar(const double* pa, const double* pb, double* pc,
                         std::size_t r0, std::size_t r1, std::size_t k,
                         std::size_t m, std::size_t n) {
  for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
    const std::size_t p1 = std::min(k, p0 + kKc);
    for (std::size_t i = r0; i < r1; ++i) {
      double* crow = pc + i * n;
      for (std::size_t p = p0; p < p1; ++p) {
        const double av = pa[p * m + i];
        if (av == 0.0) continue;
        const double* brow = pb + p * n;
        for (std::size_t j = 0; j < n; ++j)
          crow[j] = std::fma(av, brow[j], crow[j]);
      }
    }
  }
}

void gemm_bt_rows_scalar(const double* pa, const double* pb, double* pc,
                         std::size_t r0, std::size_t r1, std::size_t n,
                         std::size_t kk) {
  const std::size_t n8 = n - n % kLanes;
  for (std::size_t i = r0; i < r1; ++i) {
    const double* arow = pa + i * n;
    double* crow = pc + i * kk;
    for (std::size_t j = 0; j < kk; ++j) {
      const double* brow = pb + j * n;
      double lanes[kLanes] = {};
      for (std::size_t p = 0; p < n8; p += kLanes)
        for (std::size_t l = 0; l < kLanes; ++l)
          lanes[l] = std::fma(arow[p + l], brow[p + l], lanes[l]);
      for (std::size_t p = n8; p < n; ++p)
        lanes[p - n8] = std::fma(arow[p], brow[p], lanes[p - n8]);
      crow[j] = lane_fold(lanes);
    }
  }
}

void row_sums_scalar(const double* src, double* dst, std::size_t rows,
                     std::size_t n) {
  const std::size_t n8 = n - n % kLanes;
  for (std::size_t i = 0; i < rows; ++i) {
    const double* row = src + i * n;
    double lanes[kLanes] = {};
    for (std::size_t p = 0; p < n8; p += kLanes)
      for (std::size_t l = 0; l < kLanes; ++l) lanes[l] += row[p + l];
    for (std::size_t p = n8; p < n; ++p) lanes[p - n8] += row[p];
    dst[i] = lane_fold(lanes);
  }
}

// ---------------------------------------------------------------------------
// fp32 microkernels (the fp16 mixed-precision path): same shapes, same lane
// structure (one 8-float ymm on AVX2), fp32 FMA.
// ---------------------------------------------------------------------------

void gemm_rows_f32_scalar(const float* pa, const float* pb, float* pc,
                          std::size_t r0, std::size_t r1, std::size_t k,
                          std::size_t n) {
  for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
    const std::size_t p1 = std::min(k, p0 + kKc);
    for (std::size_t i = r0; i < r1; ++i) {
      const float* arow = pa + i * k;
      float* crow = pc + i * n;
      for (std::size_t p = p0; p < p1; ++p) {
        const float av = arow[p];
        if (av == 0.0f) continue;
        const float* brow = pb + p * n;
        for (std::size_t j = 0; j < n; ++j)
          crow[j] = std::fmaf(av, brow[j], crow[j]);
      }
    }
  }
}

void gemm_at_rows_f32_scalar(const float* pa, const float* pb, float* pc,
                             std::size_t r0, std::size_t r1, std::size_t k,
                             std::size_t m, std::size_t n) {
  for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
    const std::size_t p1 = std::min(k, p0 + kKc);
    for (std::size_t i = r0; i < r1; ++i) {
      float* crow = pc + i * n;
      for (std::size_t p = p0; p < p1; ++p) {
        const float av = pa[p * m + i];
        if (av == 0.0f) continue;
        const float* brow = pb + p * n;
        for (std::size_t j = 0; j < n; ++j)
          crow[j] = std::fmaf(av, brow[j], crow[j]);
      }
    }
  }
}

void gemm_bt_rows_f32_scalar(const float* pa, const float* pb, float* pc,
                             std::size_t r0, std::size_t r1, std::size_t n,
                             std::size_t kk) {
  const std::size_t n8 = n - n % kLanes;
  for (std::size_t i = r0; i < r1; ++i) {
    const float* arow = pa + i * n;
    float* crow = pc + i * kk;
    for (std::size_t j = 0; j < kk; ++j) {
      const float* brow = pb + j * n;
      float lanes[kLanes] = {};
      for (std::size_t p = 0; p < n8; p += kLanes)
        for (std::size_t l = 0; l < kLanes; ++l)
          lanes[l] = std::fmaf(arow[p + l], brow[p + l], lanes[l]);
      for (std::size_t p = n8; p < n; ++p)
        lanes[p - n8] = std::fmaf(arow[p], brow[p], lanes[p - n8]);
      crow[j] = lane_fold(lanes);
    }
  }
}

#if defined(CKPTFI_SIMD_X86)

// AVX2 + FMA3. `vfmadd` rounds once per term exactly like std::fma, and the
// broadcast/lane structure matches the scalar fallback term-for-term, so
// these are bitwise-identical to the *_scalar kernels above.

__attribute__((target("avx2,fma"))) void gemm_rows_avx2(
    const double* pa, const double* pb, double* pc, std::size_t r0,
    std::size_t r1, std::size_t k, std::size_t n) {
  for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
    const std::size_t p1 = std::min(k, p0 + kKc);
    for (std::size_t i = r0; i < r1; ++i) {
      const double* arow = pa + i * k;
      double* crow = pc + i * n;
      for (std::size_t p = p0; p < p1; ++p) {
        const double av = arow[p];
        if (av == 0.0) continue;
        const double* brow = pb + p * n;
        const __m256d va = _mm256_set1_pd(av);
        std::size_t j = 0;
        for (; j + 8 <= n; j += 8) {
          __m256d c0 = _mm256_loadu_pd(crow + j);
          __m256d c1 = _mm256_loadu_pd(crow + j + 4);
          c0 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow + j), c0);
          c1 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow + j + 4), c1);
          _mm256_storeu_pd(crow + j, c0);
          _mm256_storeu_pd(crow + j + 4, c1);
        }
        for (; j + 4 <= n; j += 4) {
          __m256d c0 = _mm256_loadu_pd(crow + j);
          c0 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow + j), c0);
          _mm256_storeu_pd(crow + j, c0);
        }
        for (; j < n; ++j) crow[j] = std::fma(av, brow[j], crow[j]);
      }
    }
  }
}

__attribute__((target("avx2,fma"))) void gemm_at_rows_avx2(
    const double* pa, const double* pb, double* pc, std::size_t r0,
    std::size_t r1, std::size_t k, std::size_t m, std::size_t n) {
  for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
    const std::size_t p1 = std::min(k, p0 + kKc);
    for (std::size_t i = r0; i < r1; ++i) {
      double* crow = pc + i * n;
      for (std::size_t p = p0; p < p1; ++p) {
        const double av = pa[p * m + i];
        if (av == 0.0) continue;
        const double* brow = pb + p * n;
        const __m256d va = _mm256_set1_pd(av);
        std::size_t j = 0;
        for (; j + 8 <= n; j += 8) {
          __m256d c0 = _mm256_loadu_pd(crow + j);
          __m256d c1 = _mm256_loadu_pd(crow + j + 4);
          c0 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow + j), c0);
          c1 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow + j + 4), c1);
          _mm256_storeu_pd(crow + j, c0);
          _mm256_storeu_pd(crow + j + 4, c1);
        }
        for (; j + 4 <= n; j += 4) {
          __m256d c0 = _mm256_loadu_pd(crow + j);
          c0 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow + j), c0);
          _mm256_storeu_pd(crow + j, c0);
        }
        for (; j < n; ++j) crow[j] = std::fma(av, brow[j], crow[j]);
      }
    }
  }
}

__attribute__((target("avx2,fma"))) void gemm_bt_rows_avx2(
    const double* pa, const double* pb, double* pc, std::size_t r0,
    std::size_t r1, std::size_t n, std::size_t kk) {
  const std::size_t n8 = n - n % kLanes;
  for (std::size_t i = r0; i < r1; ++i) {
    const double* arow = pa + i * n;
    double* crow = pc + i * kk;
    for (std::size_t j = 0; j < kk; ++j) {
      const double* brow = pb + j * n;
      __m256d acc0 = _mm256_setzero_pd();  // lanes 0..3
      __m256d acc1 = _mm256_setzero_pd();  // lanes 4..7
      for (std::size_t p = 0; p < n8; p += kLanes) {
        acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(arow + p),
                               _mm256_loadu_pd(brow + p), acc0);
        acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(arow + p + 4),
                               _mm256_loadu_pd(brow + p + 4), acc1);
      }
      double lanes[kLanes];
      _mm256_storeu_pd(lanes, acc0);
      _mm256_storeu_pd(lanes + 4, acc1);
      for (std::size_t p = n8; p < n; ++p)
        lanes[p - n8] = std::fma(arow[p], brow[p], lanes[p - n8]);
      crow[j] = lane_fold(lanes);
    }
  }
}

__attribute__((target("avx2,fma"))) void row_sums_avx2(const double* src,
                                                      double* dst,
                                                      std::size_t rows,
                                                      std::size_t n) {
  const std::size_t n8 = n - n % kLanes;
  for (std::size_t i = 0; i < rows; ++i) {
    const double* row = src + i * n;
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    for (std::size_t p = 0; p < n8; p += kLanes) {
      acc0 = _mm256_add_pd(acc0, _mm256_loadu_pd(row + p));
      acc1 = _mm256_add_pd(acc1, _mm256_loadu_pd(row + p + 4));
    }
    double lanes[kLanes];
    _mm256_storeu_pd(lanes, acc0);
    _mm256_storeu_pd(lanes + 4, acc1);
    for (std::size_t p = n8; p < n; ++p) lanes[p - n8] += row[p];
    dst[i] = lane_fold(lanes);
  }
}

__attribute__((target("avx2,fma"))) void gemm_rows_f32_avx2(
    const float* pa, const float* pb, float* pc, std::size_t r0,
    std::size_t r1, std::size_t k, std::size_t n) {
  for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
    const std::size_t p1 = std::min(k, p0 + kKc);
    for (std::size_t i = r0; i < r1; ++i) {
      const float* arow = pa + i * k;
      float* crow = pc + i * n;
      for (std::size_t p = p0; p < p1; ++p) {
        const float av = arow[p];
        if (av == 0.0f) continue;
        const float* brow = pb + p * n;
        const __m256 va = _mm256_set1_ps(av);
        std::size_t j = 0;
        for (; j + 8 <= n; j += 8) {
          __m256 c0 = _mm256_loadu_ps(crow + j);
          c0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(brow + j), c0);
          _mm256_storeu_ps(crow + j, c0);
        }
        for (; j < n; ++j) crow[j] = std::fmaf(av, brow[j], crow[j]);
      }
    }
  }
}

__attribute__((target("avx2,fma"))) void gemm_at_rows_f32_avx2(
    const float* pa, const float* pb, float* pc, std::size_t r0,
    std::size_t r1, std::size_t k, std::size_t m, std::size_t n) {
  for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
    const std::size_t p1 = std::min(k, p0 + kKc);
    for (std::size_t i = r0; i < r1; ++i) {
      float* crow = pc + i * n;
      for (std::size_t p = p0; p < p1; ++p) {
        const float av = pa[p * m + i];
        if (av == 0.0f) continue;
        const float* brow = pb + p * n;
        const __m256 va = _mm256_set1_ps(av);
        std::size_t j = 0;
        for (; j + 8 <= n; j += 8) {
          __m256 c0 = _mm256_loadu_ps(crow + j);
          c0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(brow + j), c0);
          _mm256_storeu_ps(crow + j, c0);
        }
        for (; j < n; ++j) crow[j] = std::fmaf(av, brow[j], crow[j]);
      }
    }
  }
}

__attribute__((target("avx2,fma"))) void gemm_bt_rows_f32_avx2(
    const float* pa, const float* pb, float* pc, std::size_t r0,
    std::size_t r1, std::size_t n, std::size_t kk) {
  const std::size_t n8 = n - n % kLanes;
  for (std::size_t i = r0; i < r1; ++i) {
    const float* arow = pa + i * n;
    float* crow = pc + i * kk;
    for (std::size_t j = 0; j < kk; ++j) {
      const float* brow = pb + j * n;
      __m256 acc = _mm256_setzero_ps();  // lanes 0..7 in one ymm
      for (std::size_t p = 0; p < n8; p += kLanes)
        acc = _mm256_fmadd_ps(_mm256_loadu_ps(arow + p),
                              _mm256_loadu_ps(brow + p), acc);
      float lanes[kLanes];
      _mm256_storeu_ps(lanes, acc);
      for (std::size_t p = n8; p < n; ++p)
        lanes[p - n8] = std::fmaf(arow[p], brow[p], lanes[p - n8]);
      crow[j] = lane_fold(lanes);
    }
  }
}

#elif defined(CKPTFI_SIMD_NEON)

// aarch64 Advanced SIMD. vfmaq fuses exactly like std::fma; lane layout
// matches the scalar fallback (four float64x2 / two float32x4 hold the 8
// logical lanes).

void gemm_rows_neon(const double* pa, const double* pb, double* pc,
                    std::size_t r0, std::size_t r1, std::size_t k,
                    std::size_t n) {
  for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
    const std::size_t p1 = std::min(k, p0 + kKc);
    for (std::size_t i = r0; i < r1; ++i) {
      const double* arow = pa + i * k;
      double* crow = pc + i * n;
      for (std::size_t p = p0; p < p1; ++p) {
        const double av = arow[p];
        if (av == 0.0) continue;
        const double* brow = pb + p * n;
        const float64x2_t va = vdupq_n_f64(av);
        std::size_t j = 0;
        for (; j + 4 <= n; j += 4) {
          float64x2_t c0 = vld1q_f64(crow + j);
          float64x2_t c1 = vld1q_f64(crow + j + 2);
          c0 = vfmaq_f64(c0, va, vld1q_f64(brow + j));
          c1 = vfmaq_f64(c1, va, vld1q_f64(brow + j + 2));
          vst1q_f64(crow + j, c0);
          vst1q_f64(crow + j + 2, c1);
        }
        for (; j < n; ++j) crow[j] = std::fma(av, brow[j], crow[j]);
      }
    }
  }
}

void gemm_at_rows_neon(const double* pa, const double* pb, double* pc,
                       std::size_t r0, std::size_t r1, std::size_t k,
                       std::size_t m, std::size_t n) {
  for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
    const std::size_t p1 = std::min(k, p0 + kKc);
    for (std::size_t i = r0; i < r1; ++i) {
      double* crow = pc + i * n;
      for (std::size_t p = p0; p < p1; ++p) {
        const double av = pa[p * m + i];
        if (av == 0.0) continue;
        const double* brow = pb + p * n;
        const float64x2_t va = vdupq_n_f64(av);
        std::size_t j = 0;
        for (; j + 4 <= n; j += 4) {
          float64x2_t c0 = vld1q_f64(crow + j);
          float64x2_t c1 = vld1q_f64(crow + j + 2);
          c0 = vfmaq_f64(c0, va, vld1q_f64(brow + j));
          c1 = vfmaq_f64(c1, va, vld1q_f64(brow + j + 2));
          vst1q_f64(crow + j, c0);
          vst1q_f64(crow + j + 2, c1);
        }
        for (; j < n; ++j) crow[j] = std::fma(av, brow[j], crow[j]);
      }
    }
  }
}

void gemm_bt_rows_neon(const double* pa, const double* pb, double* pc,
                       std::size_t r0, std::size_t r1, std::size_t n,
                       std::size_t kk) {
  const std::size_t n8 = n - n % kLanes;
  for (std::size_t i = r0; i < r1; ++i) {
    const double* arow = pa + i * n;
    double* crow = pc + i * kk;
    for (std::size_t j = 0; j < kk; ++j) {
      const double* brow = pb + j * n;
      float64x2_t a01 = vdupq_n_f64(0.0);  // lanes 0,1
      float64x2_t a23 = vdupq_n_f64(0.0);  // lanes 2,3
      float64x2_t a45 = vdupq_n_f64(0.0);  // lanes 4,5
      float64x2_t a67 = vdupq_n_f64(0.0);  // lanes 6,7
      for (std::size_t p = 0; p < n8; p += kLanes) {
        a01 = vfmaq_f64(a01, vld1q_f64(arow + p), vld1q_f64(brow + p));
        a23 = vfmaq_f64(a23, vld1q_f64(arow + p + 2), vld1q_f64(brow + p + 2));
        a45 = vfmaq_f64(a45, vld1q_f64(arow + p + 4), vld1q_f64(brow + p + 4));
        a67 = vfmaq_f64(a67, vld1q_f64(arow + p + 6), vld1q_f64(brow + p + 6));
      }
      double lanes[kLanes];
      vst1q_f64(lanes, a01);
      vst1q_f64(lanes + 2, a23);
      vst1q_f64(lanes + 4, a45);
      vst1q_f64(lanes + 6, a67);
      for (std::size_t p = n8; p < n; ++p)
        lanes[p - n8] = std::fma(arow[p], brow[p], lanes[p - n8]);
      crow[j] = lane_fold(lanes);
    }
  }
}

void row_sums_neon(const double* src, double* dst, std::size_t rows,
                   std::size_t n) {
  const std::size_t n8 = n - n % kLanes;
  for (std::size_t i = 0; i < rows; ++i) {
    const double* row = src + i * n;
    float64x2_t a01 = vdupq_n_f64(0.0);
    float64x2_t a23 = vdupq_n_f64(0.0);
    float64x2_t a45 = vdupq_n_f64(0.0);
    float64x2_t a67 = vdupq_n_f64(0.0);
    for (std::size_t p = 0; p < n8; p += kLanes) {
      a01 = vaddq_f64(a01, vld1q_f64(row + p));
      a23 = vaddq_f64(a23, vld1q_f64(row + p + 2));
      a45 = vaddq_f64(a45, vld1q_f64(row + p + 4));
      a67 = vaddq_f64(a67, vld1q_f64(row + p + 6));
    }
    double lanes[kLanes];
    vst1q_f64(lanes, a01);
    vst1q_f64(lanes + 2, a23);
    vst1q_f64(lanes + 4, a45);
    vst1q_f64(lanes + 6, a67);
    for (std::size_t p = n8; p < n; ++p) lanes[p - n8] += row[p];
    dst[i] = lane_fold(lanes);
  }
}

void gemm_rows_f32_neon(const float* pa, const float* pb, float* pc,
                        std::size_t r0, std::size_t r1, std::size_t k,
                        std::size_t n) {
  for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
    const std::size_t p1 = std::min(k, p0 + kKc);
    for (std::size_t i = r0; i < r1; ++i) {
      const float* arow = pa + i * k;
      float* crow = pc + i * n;
      for (std::size_t p = p0; p < p1; ++p) {
        const float av = arow[p];
        if (av == 0.0f) continue;
        const float* brow = pb + p * n;
        const float32x4_t va = vdupq_n_f32(av);
        std::size_t j = 0;
        for (; j + 8 <= n; j += 8) {
          float32x4_t c0 = vld1q_f32(crow + j);
          float32x4_t c1 = vld1q_f32(crow + j + 4);
          c0 = vfmaq_f32(c0, va, vld1q_f32(brow + j));
          c1 = vfmaq_f32(c1, va, vld1q_f32(brow + j + 4));
          vst1q_f32(crow + j, c0);
          vst1q_f32(crow + j + 4, c1);
        }
        for (; j < n; ++j) crow[j] = std::fmaf(av, brow[j], crow[j]);
      }
    }
  }
}

void gemm_at_rows_f32_neon(const float* pa, const float* pb, float* pc,
                           std::size_t r0, std::size_t r1, std::size_t k,
                           std::size_t m, std::size_t n) {
  for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
    const std::size_t p1 = std::min(k, p0 + kKc);
    for (std::size_t i = r0; i < r1; ++i) {
      float* crow = pc + i * n;
      for (std::size_t p = p0; p < p1; ++p) {
        const float av = pa[p * m + i];
        if (av == 0.0f) continue;
        const float* brow = pb + p * n;
        const float32x4_t va = vdupq_n_f32(av);
        std::size_t j = 0;
        for (; j + 8 <= n; j += 8) {
          float32x4_t c0 = vld1q_f32(crow + j);
          float32x4_t c1 = vld1q_f32(crow + j + 4);
          c0 = vfmaq_f32(c0, va, vld1q_f32(brow + j));
          c1 = vfmaq_f32(c1, va, vld1q_f32(brow + j + 4));
          vst1q_f32(crow + j, c0);
          vst1q_f32(crow + j + 4, c1);
        }
        for (; j < n; ++j) crow[j] = std::fmaf(av, brow[j], crow[j]);
      }
    }
  }
}

void gemm_bt_rows_f32_neon(const float* pa, const float* pb, float* pc,
                           std::size_t r0, std::size_t r1, std::size_t n,
                           std::size_t kk) {
  const std::size_t n8 = n - n % kLanes;
  for (std::size_t i = r0; i < r1; ++i) {
    const float* arow = pa + i * n;
    float* crow = pc + i * kk;
    for (std::size_t j = 0; j < kk; ++j) {
      const float* brow = pb + j * n;
      float32x4_t a03 = vdupq_n_f32(0.0f);  // lanes 0..3
      float32x4_t a47 = vdupq_n_f32(0.0f);  // lanes 4..7
      for (std::size_t p = 0; p < n8; p += kLanes) {
        a03 = vfmaq_f32(a03, vld1q_f32(arow + p), vld1q_f32(brow + p));
        a47 = vfmaq_f32(a47, vld1q_f32(arow + p + 4), vld1q_f32(brow + p + 4));
      }
      float lanes[kLanes];
      vst1q_f32(lanes, a03);
      vst1q_f32(lanes + 4, a47);
      for (std::size_t p = n8; p < n; ++p)
        lanes[p - n8] = std::fmaf(arow[p], brow[p], lanes[p - n8]);
      crow[j] = lane_fold(lanes);
    }
  }
}

#endif  // CKPTFI_SIMD_NEON

// ---------------------------------------------------------------------------
// ISA dispatch: one function pointer per kernel shape, picked per entry call
// from simd_isa(). The scalar fallback is always available — it *is* the
// contract the vector paths are bit-tested against.
// ---------------------------------------------------------------------------

using GemmRowsFn = void (*)(const double*, const double*, double*, std::size_t,
                            std::size_t, std::size_t, std::size_t);
using GemmAtRowsFn = void (*)(const double*, const double*, double*,
                              std::size_t, std::size_t, std::size_t,
                              std::size_t, std::size_t);
using GemmBtRowsFn = void (*)(const double*, const double*, double*,
                              std::size_t, std::size_t, std::size_t,
                              std::size_t);
using RowSumsFn = void (*)(const double*, double*, std::size_t, std::size_t);
using GemmRowsF32Fn = void (*)(const float*, const float*, float*, std::size_t,
                               std::size_t, std::size_t, std::size_t);
using GemmAtRowsF32Fn = void (*)(const float*, const float*, float*,
                                 std::size_t, std::size_t, std::size_t,
                                 std::size_t, std::size_t);
using GemmBtRowsF32Fn = void (*)(const float*, const float*, float*,
                                 std::size_t, std::size_t, std::size_t,
                                 std::size_t);

bool use_vector_isa() {
  switch (simd_isa()) {
#if defined(CKPTFI_SIMD_X86)
    case SimdIsa::kAvx2:
      return true;
#elif defined(CKPTFI_SIMD_NEON)
    case SimdIsa::kNeon:
      return true;
#endif
    default:
      return false;
  }
}

GemmRowsFn pick_gemm_rows() {
#if defined(CKPTFI_SIMD_X86)
  if (use_vector_isa()) return gemm_rows_avx2;
#elif defined(CKPTFI_SIMD_NEON)
  if (use_vector_isa()) return gemm_rows_neon;
#endif
  return gemm_rows_scalar;
}

GemmAtRowsFn pick_gemm_at_rows() {
#if defined(CKPTFI_SIMD_X86)
  if (use_vector_isa()) return gemm_at_rows_avx2;
#elif defined(CKPTFI_SIMD_NEON)
  if (use_vector_isa()) return gemm_at_rows_neon;
#endif
  return gemm_at_rows_scalar;
}

GemmBtRowsFn pick_gemm_bt_rows() {
#if defined(CKPTFI_SIMD_X86)
  if (use_vector_isa()) return gemm_bt_rows_avx2;
#elif defined(CKPTFI_SIMD_NEON)
  if (use_vector_isa()) return gemm_bt_rows_neon;
#endif
  return gemm_bt_rows_scalar;
}

RowSumsFn pick_row_sums() {
#if defined(CKPTFI_SIMD_X86)
  if (use_vector_isa()) return row_sums_avx2;
#elif defined(CKPTFI_SIMD_NEON)
  if (use_vector_isa()) return row_sums_neon;
#endif
  return row_sums_scalar;
}

GemmRowsF32Fn pick_gemm_rows_f32() {
#if defined(CKPTFI_SIMD_X86)
  if (use_vector_isa()) return gemm_rows_f32_avx2;
#elif defined(CKPTFI_SIMD_NEON)
  if (use_vector_isa()) return gemm_rows_f32_neon;
#endif
  return gemm_rows_f32_scalar;
}

GemmAtRowsF32Fn pick_gemm_at_rows_f32() {
#if defined(CKPTFI_SIMD_X86)
  if (use_vector_isa()) return gemm_at_rows_f32_avx2;
#elif defined(CKPTFI_SIMD_NEON)
  if (use_vector_isa()) return gemm_at_rows_f32_neon;
#endif
  return gemm_at_rows_f32_scalar;
}

GemmBtRowsF32Fn pick_gemm_bt_rows_f32() {
#if defined(CKPTFI_SIMD_X86)
  if (use_vector_isa()) return gemm_bt_rows_f32_avx2;
#elif defined(CKPTFI_SIMD_NEON)
  if (use_vector_isa()) return gemm_bt_rows_f32_neon;
#endif
  return gemm_bt_rows_f32_scalar;
}

/// Quantize a double panel to binary16 storage (bitwise identical to
/// quantize_value(v, 16)) and widen it exactly to fp32 compute form. The u16
/// panel is the storage representation the corrupter's Table VII campaigns
/// flip bits of; the f32 panel is what the FMA lanes consume.
void quantize_panel(const double* src, std::size_t count, std::uint16_t* h,
                    float* f) {
  for (std::size_t i = 0; i < count; ++i) {
    h[i] = f16::from_float(static_cast<float>(src[i])).bits;
    f[i] = f16::from_bits(h[i]).to_float();
  }
}

}  // namespace

namespace simd {

void matmul(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate) {
  require(a.rank() == 2 && b.rank() == 2, "matmul: rank-2 inputs required");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  require(b.dim(0) == k, "matmul: inner dimension mismatch");
  c.resize({m, n});
  if (!accumulate) c.fill(0.0);

  const double* pa = a.data();
  const double* pb = b.data();
  double* pc = c.data();
  const GemmRowsFn rows = pick_gemm_rows();
  run_chunks(m, gemm_flops(m, k, n) >= kPoolMinFlops,
             [&](std::size_t r0, std::size_t r1) {
               rows(pa, pb, pc, r0, r1, k, n);
             });
}

void matmul_at(const Tensor& a, const Tensor& b, Tensor& c) {
  require(a.rank() == 2 && b.rank() == 2, "matmul_at: rank-2 inputs required");
  const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  require(b.dim(0) == k, "matmul_at: inner dimension mismatch");
  c.resize({m, n});
  c.fill(0.0);

  const double* pa = a.data();
  const double* pb = b.data();
  double* pc = c.data();
  const GemmAtRowsFn rows = pick_gemm_at_rows();
  run_chunks(m, gemm_flops(m, k, n) >= kPoolMinFlops,
             [&](std::size_t r0, std::size_t r1) {
               rows(pa, pb, pc, r0, r1, k, m, n);
             });
}

void matmul_bt(const Tensor& a, const Tensor& b, Tensor& c) {
  require(a.rank() == 2 && b.rank() == 2, "matmul_bt: rank-2 inputs required");
  const std::size_t m = a.dim(0), n = a.dim(1), k = b.dim(0);
  require(b.dim(1) == n, "matmul_bt: inner dimension mismatch");
  c.resize({m, k});

  const double* pa = a.data();
  const double* pb = b.data();
  double* pc = c.data();
  const GemmBtRowsFn rows = pick_gemm_bt_rows();
  run_chunks(m, gemm_flops(m, n, k) >= kPoolMinFlops,
             [&](std::size_t r0, std::size_t r1) {
               rows(pa, pb, pc, r0, r1, n, k);
             });
}

void conv2d_forward(const Tensor& x, const Tensor& w, const Tensor& b,
                    const ConvSpec& spec, Tensor& y) {
  const detail::ConvDims d = detail::conv_dims(x, w, spec);
  require(b.numel() == d.co, "conv2d: bias size mismatch");
  y.resize({d.n, d.co, d.ho, d.wo});

  const double* px = x.data();
  const double* pw = w.data();
  const double* pb = b.data();
  double* py = y.data();
  const std::size_t K = d.ci * d.kh * d.kw;
  const std::size_t P = d.ho * d.wo;
  const std::size_t x_img = d.ci * d.h * d.w;
  const std::size_t y_img = d.co * P;
  const GemmRowsFn rows = pick_gemm_rows();

  run_chunks(d.n, conv_flops(d) >= kPoolMinFlops,
             [&](std::size_t n0, std::size_t n1) {
               Workspace& ws = Workspace::tls();
               for (std::size_t img = n0; img < n1; ++img) {
                 Workspace::Scope scope(ws);
                 double* col = ws.alloc(K * P);
                 {
                   ScopedHistTimer t("kernels.im2col_time");
                   im2col(px + img * x_img, d, spec, col);
                 }
                 ScopedHistTimer t("kernels.gemm_time");
                 double* yi = py + img * y_img;
                 for (std::size_t oc = 0; oc < d.co; ++oc) {
                   double* yrow = yi + oc * P;
                   const double bv = pb[oc];
                   for (std::size_t pos = 0; pos < P; ++pos) yrow[pos] = bv;
                 }
                 // y_img[co,P] = bias + W[co,K]·col[K,P]: the same broadcast
                 // microkernel as matmul, accumulating into the bias-filled
                 // output. Each element's FMA chain runs ascending r.
                 rows(pw, col, yi, 0, d.co, K, P);
               }
             });
}

void conv2d_backward(const Tensor& x, const Tensor& w, const ConvSpec& spec,
                     const Tensor& dy, Tensor& dx, Tensor& dw, Tensor& db) {
  const detail::ConvDims d = detail::conv_dims(x, w, spec);
  require(dy.shape() == Shape{d.n, d.co, d.ho, d.wo},
          "conv2d_backward: dy shape mismatch");
  dx.resize(x.shape());
  dw.resize(w.shape());
  db.resize({d.co});

  const double* px = x.data();
  const double* pw = w.data();
  const double* pdy = dy.data();
  double* pdx = dx.data();
  const std::size_t K = d.ci * d.kh * d.kw;
  const std::size_t P = d.ho * d.wo;
  const std::size_t x_img = d.ci * d.h * d.w;
  const std::size_t y_img = d.co * P;
  const GemmBtRowsFn bt = pick_gemm_bt_rows();
  const GemmAtRowsFn at = pick_gemm_at_rows();
  const RowSumsFn sums = pick_row_sums();

  // Per-image dw/db partials reduced in ascending image order afterwards, so
  // the result does not depend on how images were chunked (--jobs N ≡
  // --jobs 1). Partials live in the calling thread's arena; workers use
  // their own arenas for im2col/dcol scratch only.
  const std::size_t part_stride = d.co * K + d.co;
  Workspace& cws = Workspace::tls();
  Workspace::Scope cscope(cws);
  double* partials = cws.alloc(d.n * part_stride);

  run_chunks(d.n, conv_flops(d) >= kPoolMinFlops,
             [&](std::size_t n0, std::size_t n1) {
               Workspace& ws = Workspace::tls();
               for (std::size_t img = n0; img < n1; ++img) {
                 Workspace::Scope scope(ws);
                 double* col = ws.alloc(K * P);
                 double* dcol = ws.alloc(K * P);
                 {
                   ScopedHistTimer t("kernels.im2col_time");
                   im2col(px + img * x_img, d, spec, col);
                 }
                 const double* dyi = pdy + img * y_img;
                 double* dwp = partials + img * part_stride;
                 double* dbp = dwp + d.co * K;
                 {
                   ScopedHistTimer t("kernels.gemm_time");
                   // dw_p[co,K] = dy_img[co,P]·col[K,P]^T — the 8-lane dot
                   // microkernel; db_p[co] = 8-lane row sums of dy_img.
                   bt(dyi, col, dwp, 0, d.co, P, K);
                   sums(dyi, dbp, d.co, P);
                   // dcol[K,P] = W[co,K]^T·dy_img[co,P] — the broadcast
                   // transpose microkernel (W viewed as [co,K], ascending oc
                   // per element).
                   for (std::size_t e = 0; e < K * P; ++e) dcol[e] = 0.0;
                   at(pw, dyi, dcol, 0, K, d.co, K, P);
                 }
                 double* dxi = pdx + img * x_img;
                 ScopedHistTimer t("kernels.im2col_time");
                 for (std::size_t e = 0; e < x_img; ++e) dxi[e] = 0.0;
                 col2im(dcol, d, spec, dxi);
               }
             });

  double* pdw = dw.data();
  double* pdb = db.data();
  for (std::size_t e = 0; e < d.co * K; ++e) pdw[e] = 0.0;
  for (std::size_t oc = 0; oc < d.co; ++oc) pdb[oc] = 0.0;
  for (std::size_t img = 0; img < d.n; ++img) {
    const double* dwp = partials + img * part_stride;
    const double* dbp = dwp + d.co * K;
    for (std::size_t e = 0; e < d.co * K; ++e) pdw[e] += dwp[e];
    for (std::size_t oc = 0; oc < d.co; ++oc) pdb[oc] += dbp[oc];
  }
}

}  // namespace simd

namespace fp16 {

void matmul(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate) {
  require(a.rank() == 2 && b.rank() == 2, "matmul: rank-2 inputs required");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  require(b.dim(0) == k, "matmul: inner dimension mismatch");
  c.resize({m, n});

  Workspace& ws = Workspace::tls();
  Workspace::Scope scope(ws);
  std::uint16_t* a16 = ws.alloc_u16(m * k);
  std::uint16_t* b16 = ws.alloc_u16(k * n);
  float* af = ws.alloc_f32(m * k);
  float* bf = ws.alloc_f32(k * n);
  float* cf = ws.alloc_f32(m * n);
  quantize_panel(a.data(), m * k, a16, af);
  quantize_panel(b.data(), k * n, b16, bf);

  double* pc = c.data();
  const GemmRowsF32Fn rows = pick_gemm_rows_f32();
  run_chunks(m, gemm_flops(m, k, n) >= kPoolMinFlops,
             [&](std::size_t r0, std::size_t r1) {
               for (std::size_t e = r0 * n; e < r1 * n; ++e) cf[e] = 0.0f;
               rows(af, bf, cf, r0, r1, k, n);
               for (std::size_t e = r0 * n; e < r1 * n; ++e) {
                 const double v = static_cast<double>(cf[e]);
                 pc[e] = accumulate ? pc[e] + v : v;
               }
             });
}

void matmul_at(const Tensor& a, const Tensor& b, Tensor& c) {
  require(a.rank() == 2 && b.rank() == 2, "matmul_at: rank-2 inputs required");
  const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  require(b.dim(0) == k, "matmul_at: inner dimension mismatch");
  c.resize({m, n});

  Workspace& ws = Workspace::tls();
  Workspace::Scope scope(ws);
  std::uint16_t* a16 = ws.alloc_u16(k * m);
  std::uint16_t* b16 = ws.alloc_u16(k * n);
  float* af = ws.alloc_f32(k * m);
  float* bf = ws.alloc_f32(k * n);
  float* cf = ws.alloc_f32(m * n);
  quantize_panel(a.data(), k * m, a16, af);
  quantize_panel(b.data(), k * n, b16, bf);

  double* pc = c.data();
  const GemmAtRowsF32Fn rows = pick_gemm_at_rows_f32();
  run_chunks(m, gemm_flops(m, k, n) >= kPoolMinFlops,
             [&](std::size_t r0, std::size_t r1) {
               for (std::size_t e = r0 * n; e < r1 * n; ++e) cf[e] = 0.0f;
               rows(af, bf, cf, r0, r1, k, m, n);
               for (std::size_t e = r0 * n; e < r1 * n; ++e)
                 pc[e] = static_cast<double>(cf[e]);
             });
}

void matmul_bt(const Tensor& a, const Tensor& b, Tensor& c) {
  require(a.rank() == 2 && b.rank() == 2, "matmul_bt: rank-2 inputs required");
  const std::size_t m = a.dim(0), n = a.dim(1), k = b.dim(0);
  require(b.dim(1) == n, "matmul_bt: inner dimension mismatch");
  c.resize({m, k});

  Workspace& ws = Workspace::tls();
  Workspace::Scope scope(ws);
  std::uint16_t* a16 = ws.alloc_u16(m * n);
  std::uint16_t* b16 = ws.alloc_u16(k * n);
  float* af = ws.alloc_f32(m * n);
  float* bf = ws.alloc_f32(k * n);
  float* cf = ws.alloc_f32(m * k);
  quantize_panel(a.data(), m * n, a16, af);
  quantize_panel(b.data(), k * n, b16, bf);

  double* pc = c.data();
  const GemmBtRowsF32Fn rows = pick_gemm_bt_rows_f32();
  run_chunks(m, gemm_flops(m, n, k) >= kPoolMinFlops,
             [&](std::size_t r0, std::size_t r1) {
               rows(af, bf, cf, r0, r1, n, k);
               for (std::size_t e = r0 * k; e < r1 * k; ++e)
                 pc[e] = static_cast<double>(cf[e]);
             });
}

}  // namespace fp16

}  // namespace ckptfi
