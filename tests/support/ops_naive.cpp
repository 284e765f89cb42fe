// The original direct-loop GEMM and convolution, kept verbatim (modulo the
// matmul renames) as the reference the simd tier is checked against.
#include "support/ops_naive.hpp"

#include <cstddef>

#include "tensor/ops_detail.hpp"
#include "util/common.hpp"
#include "util/threadpool.hpp"

namespace ckptfi::naive {

void matmul(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate) {
  require(a.rank() == 2 && b.rank() == 2, "matmul: rank-2 inputs required");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  require(b.dim(0) == k, "matmul: inner dimension mismatch");
  c.resize({m, n});
  if (!accumulate) c.fill(0.0);

  const double* pa = a.data();
  const double* pb = b.data();
  double* pc = c.data();
  parallel_for(m, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t i = r0; i < r1; ++i) {
      for (std::size_t p = 0; p < k; ++p) {
        const double av = pa[i * k + p];
        if (av == 0.0) continue;
        const double* brow = pb + p * n;
        double* crow = pc + i * n;
        for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
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
  for (std::size_t p = 0; p < k; ++p) {
    const double* arow = pa + p * m;
    const double* brow = pb + p * n;
    for (std::size_t i = 0; i < m; ++i) {
      const double av = arow[i];
      if (av == 0.0) continue;
      double* crow = pc + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void matmul_bt(const Tensor& a, const Tensor& b, Tensor& c) {
  require(a.rank() == 2 && b.rank() == 2, "matmul_bt: rank-2 inputs required");
  const std::size_t m = a.dim(0), n = a.dim(1), k = b.dim(0);
  require(b.dim(1) == n, "matmul_bt: inner dimension mismatch");
  c.resize({m, k});
  const double* pa = a.data();
  const double* pb = b.data();
  double* pc = c.data();
  parallel_for(m, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t i = r0; i < r1; ++i) {
      for (std::size_t j = 0; j < k; ++j) {
        double s = 0.0;
        const double* arow = pa + i * n;
        const double* brow = pb + j * n;
        for (std::size_t p = 0; p < n; ++p) s += arow[p] * brow[p];
        pc[i * k + j] = s;
      }
    }
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
  const std::size_t x_img = d.ci * d.h * d.w;
  const std::size_t y_img = d.co * d.ho * d.wo;

  parallel_for(d.n, [&](std::size_t n0, std::size_t n1) {
    for (std::size_t img = n0; img < n1; ++img) {
      const double* xi = px + img * x_img;
      double* yi = py + img * y_img;
      for (std::size_t oc = 0; oc < d.co; ++oc) {
        const double* wk = pw + oc * d.ci * d.kh * d.kw;
        double* ymap = yi + oc * d.ho * d.wo;
        for (std::size_t oy = 0; oy < d.ho; ++oy) {
          for (std::size_t ox = 0; ox < d.wo; ++ox) {
            double acc = pb[oc];
            const std::ptrdiff_t iy0 =
                static_cast<std::ptrdiff_t>(oy * spec.stride) -
                static_cast<std::ptrdiff_t>(spec.pad);
            const std::ptrdiff_t ix0 =
                static_cast<std::ptrdiff_t>(ox * spec.stride) -
                static_cast<std::ptrdiff_t>(spec.pad);
            for (std::size_t ic = 0; ic < d.ci; ++ic) {
              const double* xmap = xi + ic * d.h * d.w;
              const double* wmap = wk + ic * d.kh * d.kw;
              for (std::size_t ky = 0; ky < d.kh; ++ky) {
                const std::ptrdiff_t iy = iy0 + static_cast<std::ptrdiff_t>(ky);
                if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(d.h)) continue;
                for (std::size_t kx = 0; kx < d.kw; ++kx) {
                  const std::ptrdiff_t ix =
                      ix0 + static_cast<std::ptrdiff_t>(kx);
                  if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(d.w))
                    continue;
                  acc += xmap[static_cast<std::size_t>(iy) * d.w +
                              static_cast<std::size_t>(ix)] *
                         wmap[ky * d.kw + kx];
                }
              }
            }
            ymap[oy * d.wo + ox] = acc;
          }
        }
      }
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
  dx.fill(0.0);
  dw.fill(0.0);
  db.fill(0.0);

  const double* px = x.data();
  const double* pw = w.data();
  const double* pdy = dy.data();
  double* pdx = dx.data();
  double* pdw = dw.data();
  double* pdb = db.data();
  const std::size_t x_img = d.ci * d.h * d.w;
  const std::size_t y_img = d.co * d.ho * d.wo;

  // Serial over images: dw/db accumulate across the batch and the summation
  // order must stay fixed for determinism.
  for (std::size_t img = 0; img < d.n; ++img) {
    const double* xi = px + img * x_img;
    const double* dyi = pdy + img * y_img;
    double* dxi = pdx + img * x_img;
    for (std::size_t oc = 0; oc < d.co; ++oc) {
      const double* wk = pw + oc * d.ci * d.kh * d.kw;
      double* dwk = pdw + oc * d.ci * d.kh * d.kw;
      const double* dymap = dyi + oc * d.ho * d.wo;
      for (std::size_t oy = 0; oy < d.ho; ++oy) {
        for (std::size_t ox = 0; ox < d.wo; ++ox) {
          const double g = dymap[oy * d.wo + ox];
          if (g == 0.0) continue;
          pdb[oc] += g;
          const std::ptrdiff_t iy0 =
              static_cast<std::ptrdiff_t>(oy * spec.stride) -
              static_cast<std::ptrdiff_t>(spec.pad);
          const std::ptrdiff_t ix0 =
              static_cast<std::ptrdiff_t>(ox * spec.stride) -
              static_cast<std::ptrdiff_t>(spec.pad);
          for (std::size_t ic = 0; ic < d.ci; ++ic) {
            const double* xmap = xi + ic * d.h * d.w;
            double* dxmap = dxi + ic * d.h * d.w;
            const double* wmap = wk + ic * d.kh * d.kw;
            double* dwmap = dwk + ic * d.kh * d.kw;
            for (std::size_t ky = 0; ky < d.kh; ++ky) {
              const std::ptrdiff_t iy = iy0 + static_cast<std::ptrdiff_t>(ky);
              if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(d.h)) continue;
              for (std::size_t kx = 0; kx < d.kw; ++kx) {
                const std::ptrdiff_t ix = ix0 + static_cast<std::ptrdiff_t>(kx);
                if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(d.w)) continue;
                const std::size_t xoff =
                    static_cast<std::size_t>(iy) * d.w +
                    static_cast<std::size_t>(ix);
                dwmap[ky * d.kw + kx] += g * xmap[xoff];
                dxmap[xoff] += g * wmap[ky * d.kw + kx];
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace ckptfi::naive
