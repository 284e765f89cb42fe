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
#include <limits>

#include "tensor/bitmask.hpp"
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

/// The outputs [lo, hi) of one kernel offset k whose input o·stride + k −
/// pad lies inside [0, extent): the in-bounds run every im2col row shares.
struct Run {
  std::size_t lo, hi;
};

Run in_bounds_run(std::size_t k, std::size_t extent, std::size_t out,
                  const ConvSpec& spec) {
  const std::size_t lo =
      spec.pad > k ? (spec.pad - k + spec.stride - 1) / spec.stride : 0;
  const std::size_t hi =
      extent + spec.pad > k
          ? std::min(out, (extent - 1 + spec.pad - k) / spec.stride + 1)
          : 0;
  return {std::min(lo, hi), hi};
}

/// x image [ci,h,w] -> col [K = ci*kh*kw, P = ho*wo], row r = (ic,ky,kx) in
/// ascending order (the reference kernels' accumulation order), padding as
/// explicit zeros. Each (ic,ky,kx) computes its in-bounds runs once and
/// copies them: at stride 1 with wo == w, row r is the map shifted by
/// (ky − pad)·w + kx − pad, so its in-bounds rows copy as one band;
/// otherwise each output row gathers one run at the stride. Then the rows
/// outside the band and the columns outside the run (including any the band
/// wrapped around) are zeroed, the columns by strided loops so no per-row
/// memset call is paid.
void im2col(const double* xi, const ConvDims& d, const ConvSpec& spec,
            double* col) {
  const std::size_t P = d.ho * d.wo;
  const bool band = spec.stride == 1 && d.wo == d.w;
  double* out = col;
  for (std::size_t ic = 0; ic < d.ci; ++ic) {
    const double* xmap = xi + ic * d.h * d.w;
    for (std::size_t ky = 0; ky < d.kh; ++ky) {
      const Run rows = in_bounds_run(ky, d.h, d.ho, spec);
      for (std::size_t kx = 0; kx < d.kw; ++kx, out += P) {
        const Run cols = in_bounds_run(kx, d.w, d.wo, spec);
        if (rows.lo == rows.hi || cols.lo == cols.hi) {
          for (std::size_t e = 0; e < P; ++e) out[e] = 0.0;
          continue;
        }
        const double* src = xmap +
                            (rows.lo * spec.stride + ky - spec.pad) * d.w +
                            cols.lo * spec.stride + kx - spec.pad;
        if (band) {
          const std::size_t first = rows.lo * d.w + cols.lo;
          const std::size_t last = (rows.hi - 1) * d.w + cols.hi;
          for (std::size_t e = first; e < last; ++e) out[e] = src[e - first];
        } else {
          const std::size_t len = cols.hi - cols.lo;
          for (std::size_t oy = rows.lo; oy < rows.hi;
               ++oy, src += spec.stride * d.w) {
            double* dst = out + oy * d.wo + cols.lo;
            for (std::size_t t = 0; t < len; ++t)
              dst[t] = src[t * spec.stride];
          }
        }
        for (std::size_t e = 0; e < rows.lo * d.wo; ++e) out[e] = 0.0;
        for (std::size_t e = rows.hi * d.wo; e < P; ++e) out[e] = 0.0;
        for (std::size_t ox = 0; ox < cols.lo; ++ox)
          for (std::size_t oy = rows.lo; oy < rows.hi; ++oy)
            out[oy * d.wo + ox] = 0.0;
        for (std::size_t ox = cols.hi; ox < d.wo; ++ox)
          for (std::size_t oy = rows.lo; oy < rows.hi; ++oy)
            out[oy * d.wo + ox] = 0.0;
      }
    }
  }
}

/// Scatter-accumulate col [K,P] back into one pre-zeroed dx image over the
/// same runs, visiting rows in the ascending (ic,ky,kx,oy,ox) order im2col
/// wrote them — so every dx element adds its terms in that order.
void col2im(const double* col, const ConvDims& d, const ConvSpec& spec,
            double* dxi) {
  const double* in = col;
  for (std::size_t ic = 0; ic < d.ci; ++ic) {
    double* dxmap = dxi + ic * d.h * d.w;
    for (std::size_t ky = 0; ky < d.kh; ++ky) {
      const Run rows = in_bounds_run(ky, d.h, d.ho, spec);
      for (std::size_t kx = 0; kx < d.kw; ++kx) {
        const Run cols = in_bounds_run(kx, d.w, d.wo, spec);
        const std::size_t len = cols.hi - cols.lo;
        for (std::size_t oy = 0; oy < d.ho; ++oy, in += d.wo) {
          if (oy < rows.lo || oy >= rows.hi || len == 0) continue;
          double* dst = dxmap + (oy * spec.stride + ky - spec.pad) * d.w +
                        cols.lo * spec.stride + kx - spec.pad;
          const double* src = in + cols.lo;
          if (spec.stride == 1) {
            for (std::size_t t = 0; t < len; ++t) dst[t] += src[t];
          } else {
            for (std::size_t t = 0; t < len; ++t)
              dst[t * spec.stride] += src[t];
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

// ---------------------------------------------------------------------------
// Element selects: ReLU, the Residual join and max-pool. Their rules are
// selects, not branches, and they do no arithmetic but the join's one add,
// so every ISA yields the same bits (the add's choice between two NaN
// payloads aside, docs/KERNELS.md):
//   relu(v) = (v > 0 || v != v) ? v : +0     −0 → +0, NaN payloads kept
//   max-pool: the first NaN in scan order wins, else the first strict
//   maximum (so the first of equal maxima, and of −0 against +0)
// The train-mode mask is bit i of word i / 64, set where relu kept v.
// ---------------------------------------------------------------------------

constexpr std::size_t kMaskBits = BitMask::kWordBits;

template <bool kAdd>
void relu_scalar(double* y, const double* s, std::size_t n,
                 std::uint64_t* mask) {
  for (std::size_t w0 = 0; w0 < n; w0 += kMaskBits) {
    const std::size_t w1 = std::min(n, w0 + kMaskBits);
    std::uint64_t word = 0;
    for (std::size_t i = w0; i < w1; ++i) {
      double v = y[i];
      if constexpr (kAdd) v = v + s[i];
      const bool keep = v > 0.0 || v != v;
      y[i] = keep ? v : 0.0;
      word |= static_cast<std::uint64_t>(keep) << (i - w0);
    }
    if (mask != nullptr) mask[w0 / kMaskBits] = word;
  }
}

/// One output of a max-pool map under the rule above, for any window
/// geometry: taps outside the map are skipped, a window with none yields 0
/// at offset 0.
void pool_window(const double* xmap, std::size_t h, std::size_t w,
                 const ConvSpec& spec, std::size_t oy, std::size_t ox,
                 double& y, std::size_t& off) {
  const std::ptrdiff_t iy0 = static_cast<std::ptrdiff_t>(oy * spec.stride) -
                             static_cast<std::ptrdiff_t>(spec.pad);
  const std::ptrdiff_t ix0 = static_cast<std::ptrdiff_t>(ox * spec.stride) -
                             static_cast<std::ptrdiff_t>(spec.pad);
  double best = 0.0;
  std::size_t best_off = 0;
  bool found = false;
  for (std::size_t ky = 0; ky < spec.kernel; ++ky) {
    const std::ptrdiff_t iy = iy0 + static_cast<std::ptrdiff_t>(ky);
    if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
    for (std::size_t kx = 0; kx < spec.kernel; ++kx) {
      const std::ptrdiff_t ix = ix0 + static_cast<std::ptrdiff_t>(kx);
      if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) continue;
      const std::size_t o =
          static_cast<std::size_t>(iy) * w + static_cast<std::size_t>(ix);
      const double v = xmap[o];
      const bool take = !found || v > best || (v != v && best == best);
      best = take ? v : best;
      best_off = take ? o : best_off;
      found = true;
    }
  }
  y = best;
  off = best_off;
}

/// Max-pool one [h, w] map into y[ho, wo]; argmax (null in eval) gets the
/// winners' offsets plus `base`.
void maxpool_map_scalar(const double* xmap, std::size_t h, std::size_t w,
                        const ConvSpec& spec, std::size_t ho, std::size_t wo,
                        double* y, std::size_t* argmax, std::size_t base) {
  for (std::size_t oy = 0; oy < ho; ++oy) {
    for (std::size_t ox = 0; ox < wo; ++ox) {
      std::size_t off = 0;
      pool_window(xmap, h, w, spec, oy, ox, y[oy * wo + ox], off);
      if (argmax != nullptr) argmax[oy * wo + ox] = base + off;
    }
  }
}

/// relu backward: g[i] stays where mask bit i is set, else +0.
void relu_backward_scalar(double* g, const std::uint64_t* words,
                          std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const bool keep = ((words[i / kMaskBits] >> (i % kMaskBits)) & 1u) != 0;
    g[i] = keep ? g[i] : 0.0;
  }
}

// ---------------------------------------------------------------------------
// Probe stats. The rule: count NaN, Inf and ±0; take max |v| over the finite
// v, from 0; sum v·v over the finite v in ascending i, one add at a time
// from +0, and take the square root. Counts and max do not depend on order,
// and a ±0 adds exactly +0 to a sum that is never −0, so a vector lane may
// count and max four elements at a time and leave the ±0 squares out of the
// chain; the chain itself stays one scalar add per square, never lanes.
// No lane here may be built with the fma target: GCC contracts
// `s += v * v` into one FMA there, which rounds once where the rule rounds
// twice (docs/KERNELS.md).
// ---------------------------------------------------------------------------

/// The rule over x[0..n), continuing the counts and max of `s` and the
/// chain `sumsq`; returns s with l2 set from the final sum. Always inlined,
/// so the vector lane's tail is built with the lane's own target.
__attribute__((always_inline)) inline obs::TensorStats stats_scalar(
    const double* x, std::size_t n, obs::TensorStats s, double sumsq) {
  // Ascending-element accumulation: the documented deterministic order.
  for (std::size_t i = 0; i < n; ++i) {
    const double v = x[i];
    if (std::isnan(v)) {
      ++s.nan_count;
      continue;
    }
    if (std::isinf(v)) {
      ++s.inf_count;
      continue;
    }
    if (v == 0.0) ++s.zero_count;
    const double a = std::fabs(v);
    if (a > s.max_abs) s.max_abs = a;
    sumsq += v * v;
  }
  s.l2 = std::sqrt(sumsq);
  return s;
}

obs::TensorStats tensor_stats_scalar(const double* x, std::size_t n) {
  obs::TensorStats s;
  s.numel = n;
  return stats_scalar(x, n, s, 0.0);
}

#if defined(CKPTFI_SIMD_X86)

// AVX2 + FMA3. `vfmadd` rounds once per term exactly like std::fma, and the
// broadcast/lane structure matches the scalar fallback term-for-term, so
// these are bitwise-identical to the *_scalar kernels above (which of two
// NaN payloads survives aside, docs/KERNELS.md).

/// One 4-row × 8-column tile of gemm_tile_avx2 over the block [p0, p1):
/// C[a rows, j..j+8] stays in eight ymm accumulators. No A value of the
/// block is ±0, so every step runs all eight FMAs.
__attribute__((target("avx2,fma"), always_inline)) inline void tile4x8_avx2(
    const double* const* a, std::size_t acs, const double* brow,
    std::size_t n, std::size_t p0, std::size_t p1, double* const* c) {
  __m256d t00 = _mm256_loadu_pd(c[0]), t01 = _mm256_loadu_pd(c[0] + 4);
  __m256d t10 = _mm256_loadu_pd(c[1]), t11 = _mm256_loadu_pd(c[1] + 4);
  __m256d t20 = _mm256_loadu_pd(c[2]), t21 = _mm256_loadu_pd(c[2] + 4);
  __m256d t30 = _mm256_loadu_pd(c[3]), t31 = _mm256_loadu_pd(c[3] + 4);
  for (std::size_t p = p0; p < p1; ++p, brow += n) {
    const __m256d b0 = _mm256_loadu_pd(brow);
    const __m256d b1 = _mm256_loadu_pd(brow + 4);
    const __m256d v0 = _mm256_broadcast_sd(a[0] + p * acs);
    t00 = _mm256_fmadd_pd(v0, b0, t00);
    t01 = _mm256_fmadd_pd(v0, b1, t01);
    const __m256d v1 = _mm256_broadcast_sd(a[1] + p * acs);
    t10 = _mm256_fmadd_pd(v1, b0, t10);
    t11 = _mm256_fmadd_pd(v1, b1, t11);
    const __m256d v2 = _mm256_broadcast_sd(a[2] + p * acs);
    t20 = _mm256_fmadd_pd(v2, b0, t20);
    t21 = _mm256_fmadd_pd(v2, b1, t21);
    const __m256d v3 = _mm256_broadcast_sd(a[3] + p * acs);
    t30 = _mm256_fmadd_pd(v3, b0, t30);
    t31 = _mm256_fmadd_pd(v3, b1, t31);
  }
  _mm256_storeu_pd(c[0], t00);
  _mm256_storeu_pd(c[0] + 4, t01);
  _mm256_storeu_pd(c[1], t10);
  _mm256_storeu_pd(c[1] + 4, t11);
  _mm256_storeu_pd(c[2], t20);
  _mm256_storeu_pd(c[2] + 4, t21);
  _mm256_storeu_pd(c[3], t30);
  _mm256_storeu_pd(c[3] + 4, t31);
}

/// One row of gemm_tile_avx2 over the block [p0, p1), C loaded and stored
/// per p, with the scalar lanes' zero-skip.
__attribute__((target("avx2,fma"), always_inline)) inline void gemm_row_avx2(
    const double* arow, std::size_t acs, const double* pb, double* crow,
    std::size_t p0, std::size_t p1, std::size_t n) {
  for (std::size_t p = p0; p < p1; ++p) {
    const double av = arow[p * acs];
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

/// Broadcast-shape rows [r0, r1) of C[m, n] += A(i, p) · B[k, n], with
/// A(i, p) = pa[i·ars + p·acs]: row-major A is (ars, acs) = (k, 1), the
/// transposed A of matmul_at is (1, m).
///
/// Rows go in groups of four. A group whose A block [p0, p1) holds no ±0
/// (weights, as a rule) runs through 4×8 register tiles: per p, one load
/// of 8 B values, four broadcast A values, eight FMAs, where the row loop
/// pays two loads and a store per FMA; column tails (n % 8) run four
/// interleaved per-element chains. A group with a ±0 in its block
/// (activations after a ReLU) runs the row loop, whose one branch per
/// (row, p) is the scalar lanes' zero-skip: a row whose A value is ±0
/// skips its FMAs, so fma(0, Inf) never runs and a −0 accumulator keeps
/// its sign. Row tails (m % 4) run the row loop too. Either way each C
/// element is one FMA chain over ascending p. A tile that tested A per
/// step ran such a GEMM 1.8x slower than the row loop, and a blend-masked
/// one puts a select on every accumulator's chain (docs/KERNELS.md).
__attribute__((target("avx2,fma"))) inline void gemm_tile_avx2(
    const double* pa, std::size_t ars, std::size_t acs, const double* pb,
    double* pc, std::size_t r0, std::size_t r1, std::size_t k,
    std::size_t n) {
  const std::size_t n8 = n - n % 8;
  for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
    const std::size_t p1 = std::min(k, p0 + kKc);
    std::size_t i = r0;
    for (; i + 4 <= r1; i += 4) {
      const double* const a[4] = {pa + i * ars, pa + (i + 1) * ars,
                                  pa + (i + 2) * ars, pa + (i + 3) * ars};
      bool dense = true;
      for (std::size_t p = p0; p < p1 && dense; ++p)
        dense = a[0][p * acs] != 0.0 && a[1][p * acs] != 0.0 &&
                a[2][p * acs] != 0.0 && a[3][p * acs] != 0.0;
      if (!dense) {
        for (std::size_t r = 0; r < 4; ++r)
          gemm_row_avx2(a[r], acs, pb, pc + (i + r) * n, p0, p1, n);
        continue;
      }
      double* const c0 = pc + i * n;
      double* const c1 = c0 + n;
      double* const c2 = c1 + n;
      double* const c3 = c2 + n;
      const double* brow = pb + p0 * n;
      for (std::size_t j = 0; j < n8; j += 8) {
        double* const c[4] = {c0 + j, c1 + j, c2 + j, c3 + j};
        tile4x8_avx2(a, acs, brow + j, n, p0, p1, c);
      }
      for (std::size_t j = n8; j < n; ++j) {
        double s0 = c0[j], s1 = c1[j], s2 = c2[j], s3 = c3[j];
        for (std::size_t p = p0; p < p1; ++p) {
          const double b = pb[p * n + j];
          s0 = std::fma(a[0][p * acs], b, s0);
          s1 = std::fma(a[1][p * acs], b, s1);
          s2 = std::fma(a[2][p * acs], b, s2);
          s3 = std::fma(a[3][p * acs], b, s3);
        }
        c0[j] = s0;
        c1[j] = s1;
        c2[j] = s2;
        c3[j] = s3;
      }
    }
    for (; i < r1; ++i)
      gemm_row_avx2(pa + i * ars, acs, pb, pc + i * n, p0, p1, n);
  }
}

__attribute__((target("avx2,fma"))) void gemm_rows_avx2(
    const double* pa, const double* pb, double* pc, std::size_t r0,
    std::size_t r1, std::size_t k, std::size_t n) {
  gemm_tile_avx2(pa, k, 1, pb, pc, r0, r1, k, n);
}

__attribute__((target("avx2,fma"))) void gemm_at_rows_avx2(
    const double* pa, const double* pb, double* pc, std::size_t r0,
    std::size_t r1, std::size_t k, std::size_t m, std::size_t n) {
  gemm_tile_avx2(pa, 1, m, pb, pc, r0, r1, k, n);
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

/// relu over whole 64-element mask words, four lanes per compare; the last
/// partial word runs the scalar lanes.
template <bool kAdd>
__attribute__((target("avx2"))) void relu_avx2(double* y, const double* s,
                                                std::size_t n,
                                                std::uint64_t* mask) {
  const std::size_t nw = n - n % kMaskBits;
  const __m256d zero = _mm256_setzero_pd();
  for (std::size_t w0 = 0; w0 < nw; w0 += kMaskBits) {
    std::uint64_t word = 0;
    for (std::size_t q = 0; q < kMaskBits; q += 4) {
      __m256d v = _mm256_loadu_pd(y + w0 + q);
      if constexpr (kAdd) v = _mm256_add_pd(v, _mm256_loadu_pd(s + w0 + q));
      const __m256d keep = _mm256_or_pd(_mm256_cmp_pd(v, zero, _CMP_GT_OQ),
                                        _mm256_cmp_pd(v, v, _CMP_UNORD_Q));
      _mm256_storeu_pd(y + w0 + q, _mm256_and_pd(v, keep));
      word |= static_cast<std::uint64_t>(_mm256_movemask_pd(keep)) << q;
    }
    if (mask != nullptr) mask[w0 / kMaskBits] = word;
  }
  if (nw < n)
    relu_scalar<kAdd>(y + nw, kAdd ? s + nw : s, n - nw,
                      mask != nullptr ? mask + nw / kMaskBits : nullptr);
}

/// relu backward over whole mask words: each 4-bit nibble becomes a lane
/// mask that is ANDed into four gradients, so a dropped lane reads +0. The
/// last partial word runs the scalar lanes.
__attribute__((target("avx2"))) void relu_backward_avx2(
    double* g, const std::uint64_t* words, std::size_t n) {
  const std::size_t nw = n - n % kMaskBits;
  const __m256i lane_bit = _mm256_set_epi64x(8, 4, 2, 1);
  for (std::size_t w0 = 0; w0 < nw; w0 += kMaskBits) {
    const std::uint64_t word = words[w0 / kMaskBits];
    for (std::size_t q = 0; q < kMaskBits; q += 4) {
      const __m256i nibble =
          _mm256_set1_epi64x(static_cast<long long>((word >> q) & 0xF));
      const __m256i keep = _mm256_cmpeq_epi64(
          _mm256_and_si256(nibble, lane_bit), lane_bit);
      _mm256_storeu_pd(g + w0 + q,
                       _mm256_and_pd(_mm256_loadu_pd(g + w0 + q),
                                     _mm256_castsi256_pd(keep)));
    }
  }
  if (nw < n) relu_backward_scalar(g + nw, words + nw / kMaskBits, n - nw);
}

/// Elements per packing block of tensor_stats_avx2, whose stack buffer
/// holds one block's squares.
constexpr std::size_t kStatsBlock = 256;

/// Row m holds the permutevar8x32 indices that move the doubles of the
/// lanes set in the 4-bit mask m to the front, in ascending lane order.
struct PackTable {
  alignas(32) std::int32_t idx[16][8];
};

constexpr PackTable make_pack_table() {
  PackTable t{};
  for (int m = 0; m < 16; ++m) {
    int k = 0;
    for (int l = 0; l < 4; ++l) {
      if (((m >> l) & 1) == 0) continue;
      t.idx[m][2 * k] = 2 * l;
      t.idx[m][2 * k + 1] = 2 * l + 1;
      ++k;
    }
  }
  return t;
}

constexpr PackTable kPackTable = make_pack_table();

/// The stats rule four lanes at a time: lane counts and a lane max, then
/// per block the finite non-zero squares packed in ascending order and
/// summed by the one scalar chain. The n % 4 tail runs the scalar loop.
__attribute__((target("avx2"))) obs::TensorStats tensor_stats_avx2(
    const double* x, std::size_t n) {
  const std::size_t n4 = n - n % 4;
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d inf = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  const __m256d zero = _mm256_setzero_pd();
  __m256i nans = _mm256_setzero_si256();
  __m256i infs = _mm256_setzero_si256();
  __m256i zeros = _mm256_setzero_si256();
  __m256d max_abs = zero;
  double sumsq = 0.0;
  double squares[kStatsBlock] = {};
  for (std::size_t b0 = 0; b0 < n4; b0 += kStatsBlock) {
    const std::size_t b1 = std::min(n4, b0 + kStatsBlock);
    std::size_t packed = 0;
    for (std::size_t i = b0; i < b1; i += 4) {
      const __m256d v = _mm256_loadu_pd(x + i);
      const __m256d a = _mm256_andnot_pd(sign, v);
      const __m256d finite = _mm256_cmp_pd(a, inf, _CMP_LT_OQ);
      const __m256d is_zero = _mm256_cmp_pd(v, zero, _CMP_EQ_OQ);
      // A set compare lane is all ones, −1 as an integer.
      nans = _mm256_sub_epi64(
          nans, _mm256_castpd_si256(_mm256_cmp_pd(v, v, _CMP_UNORD_Q)));
      infs = _mm256_sub_epi64(
          infs, _mm256_castpd_si256(_mm256_cmp_pd(a, inf, _CMP_EQ_OQ)));
      zeros = _mm256_sub_epi64(zeros, _mm256_castpd_si256(is_zero));
      max_abs = _mm256_max_pd(max_abs, _mm256_and_pd(a, finite));
      const int keep = _mm256_movemask_pd(_mm256_andnot_pd(is_zero, finite));
      const __m256i idx = _mm256_load_si256(
          reinterpret_cast<const __m256i*>(kPackTable.idx[keep]));
      _mm256_storeu_pd(squares + packed,
                       _mm256_castps_pd(_mm256_permutevar8x32_ps(
                           _mm256_castpd_ps(_mm256_mul_pd(v, v)), idx)));
      packed += static_cast<std::size_t>(__builtin_popcount(keep));
    }
    for (std::size_t j = 0; j < packed; ++j) sumsq += squares[j];
  }

  obs::TensorStats s;
  s.numel = n;
  std::uint64_t counts[3][4];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(counts[0]), nans);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(counts[1]), infs);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(counts[2]), zeros);
  double lane_max[4];
  _mm256_storeu_pd(lane_max, max_abs);
  for (std::size_t l = 0; l < 4; ++l) {
    s.nan_count += counts[0][l];
    s.inf_count += counts[1][l];
    s.zero_count += counts[2][l];
    if (lane_max[l] > s.max_abs) s.max_abs = lane_max[l];
  }
  return stats_scalar(x + n4, n - n4, s, sumsq);
}

/// The fixed 2×2, stride-2, unpadded window (every pool in the three
/// models): four outputs per step, the rule applied through blends in scan
/// order (0,0), (0,1), (1,0), (1,1). Lanes hold outputs ox, ox+2, ox+1,
/// ox+3 until the final permute; column tails run pool_window.
__attribute__((target("avx2"))) void maxpool2x2_map_avx2(
    const double* xmap, std::size_t h, std::size_t w, const ConvSpec& spec,
    std::size_t ho, std::size_t wo, double* y, std::size_t* argmax,
    std::size_t base) {
  const std::size_t wo4 = wo - wo % 4;
  for (std::size_t oy = 0; oy < ho; ++oy) {
    const double* r0 = xmap + 2 * oy * w;
    const double* r1 = r0 + w;
    for (std::size_t ox = 0; ox < wo4; ox += 4) {
      const __m256d a0 = _mm256_loadu_pd(r0 + 2 * ox);
      const __m256d a1 = _mm256_loadu_pd(r0 + 2 * ox + 4);
      const __m256d b0 = _mm256_loadu_pd(r1 + 2 * ox);
      const __m256d b1 = _mm256_loadu_pd(r1 + 2 * ox + 4);
      const __m256d taps[3] = {_mm256_unpackhi_pd(a0, a1),
                               _mm256_unpacklo_pd(b0, b1),
                               _mm256_unpackhi_pd(b0, b1)};
      __m256d best = _mm256_unpacklo_pd(a0, a1);
      __m256d which = _mm256_setzero_pd();
      for (int q = 0; q < 3; ++q) {
        const __m256d v = taps[q];
        const __m256d take = _mm256_or_pd(
            _mm256_cmp_pd(v, best, _CMP_GT_OQ),
            _mm256_and_pd(_mm256_cmp_pd(v, v, _CMP_UNORD_Q),
                          _mm256_cmp_pd(best, best, _CMP_ORD_Q)));
        best = _mm256_blendv_pd(best, v, take);
        which = _mm256_blendv_pd(which, _mm256_set1_pd(q + 1), take);
      }
      _mm256_storeu_pd(y + oy * wo + ox, _mm256_permute4x64_pd(best, 0xD8));
      if (argmax == nullptr) continue;
      double tap[4];
      _mm256_storeu_pd(tap, _mm256_permute4x64_pd(which, 0xD8));
      for (std::size_t l = 0; l < 4; ++l) {
        const auto t = static_cast<std::size_t>(tap[l]);
        argmax[oy * wo + ox + l] =
            base + (2 * oy + t / 2) * w + 2 * (ox + l) + t % 2;
      }
    }
    for (std::size_t ox = wo4; ox < wo; ++ox) {
      std::size_t off = 0;
      pool_window(xmap, h, w, spec, oy, ox, y[oy * wo + ox], off);
      if (argmax != nullptr) argmax[oy * wo + ox] = base + off;
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

using ReluFn = void (*)(double*, const double*, std::size_t, std::uint64_t*);
using MaxPoolMapFn = void (*)(const double*, std::size_t, std::size_t,
                              const ConvSpec&, std::size_t, std::size_t,
                              double*, std::size_t*, std::size_t);

template <bool kAdd>
ReluFn pick_relu() {
#if defined(CKPTFI_SIMD_X86)
  if (use_vector_isa()) return relu_avx2<kAdd>;
#endif
  return relu_scalar<kAdd>;
}

MaxPoolMapFn pick_maxpool_map(const ConvSpec& spec) {
#if defined(CKPTFI_SIMD_X86)
  if (use_vector_isa() && spec.kernel == 2 && spec.stride == 2 &&
      spec.pad == 0)
    return maxpool2x2_map_avx2;
#else
  (void)spec;
#endif
  return maxpool_map_scalar;
}

using ReluBackwardFn = void (*)(double*, const std::uint64_t*, std::size_t);
using TensorStatsFn = obs::TensorStats (*)(const double*, std::size_t);

ReluBackwardFn pick_relu_backward() {
#if defined(CKPTFI_SIMD_X86)
  if (use_vector_isa()) return relu_backward_avx2;
#endif
  return relu_backward_scalar;
}

TensorStatsFn pick_tensor_stats() {
#if defined(CKPTFI_SIMD_X86)
  if (use_vector_isa()) return tensor_stats_avx2;
#endif
  return tensor_stats_scalar;
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

void relu_forward(Tensor& y, BitMask* mask) {
  require(mask == nullptr || mask->size() == y.numel(),
          "relu: mask size mismatch");
  pick_relu<false>()(y.data(), nullptr, y.numel(),
                     mask != nullptr ? mask->words() : nullptr);
}

void add_relu_forward(Tensor& y, const Tensor& s, BitMask* mask) {
  require(s.numel() == y.numel(), "add_relu: operand size mismatch");
  require(mask == nullptr || mask->size() == y.numel(),
          "relu: mask size mismatch");
  pick_relu<true>()(y.data(), s.data(), y.numel(),
                    mask != nullptr ? mask->words() : nullptr);
}

void relu_backward(Tensor& g, const BitMask& mask) {
  require(mask.size() == g.numel(), "relu_backward: mask size mismatch");
  pick_relu_backward()(g.data(), mask.words(), g.numel());
}

obs::TensorStats tensor_stats(const double* x, std::size_t n) {
  return pick_tensor_stats()(x, n);
}

void maxpool2d_forward(const Tensor& x, const ConvSpec& spec, Tensor& y,
                       std::vector<std::size_t>* argmax) {
  require(x.rank() == 4, "maxpool2d: input must be [N,C,H,W]");
  const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::size_t ho = spec.out_extent(h), wo = spec.out_extent(w);
  y.resize({n, c, ho, wo});
  if (argmax != nullptr) {
    // ckptfi-lint: allow(arena-kernel-heap) argmax is a caller-owned output (backward needs it across the arena's batch reset); assign reuses capacity, so steady-state batches stay allocation-free
    argmax->assign(y.numel(), 0);
  }

  const MaxPoolMapFn pool = pick_maxpool_map(spec);
  for (std::size_t map = 0; map < n * c; ++map) {
    pool(x.data() + map * h * w, h, w, spec, ho, wo, y.data() + map * ho * wo,
         argmax != nullptr ? argmax->data() + map * ho * wo : nullptr,
         map * h * w);
  }
}

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
