#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"

namespace ckptfi {
namespace {

Tensor random_tensor(Shape shape, Rng& rng) {
  Tensor t(std::move(shape));
  for (auto& v : t.vec()) v = rng.normal();
  return t;
}

// Reference kernels, written as directly as possible.
Tensor naive_gemm(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0;
      for (std::size_t p = 0; p < k; ++p) s += a[i * k + p] * b[p * n + j];
      c[i * n + j] = s;
    }
  return c;
}

Tensor naive_conv(const Tensor& x, const Tensor& w, const Tensor& b,
                  const ConvSpec& spec) {
  const std::size_t N = x.dim(0), Ci = x.dim(1), H = x.dim(2), W = x.dim(3);
  const std::size_t Co = w.dim(0), K = spec.kernel;
  const std::size_t Ho = spec.out_extent(H), Wo = spec.out_extent(W);
  Tensor y({N, Co, Ho, Wo});
  for (std::size_t n = 0; n < N; ++n)
    for (std::size_t oc = 0; oc < Co; ++oc)
      for (std::size_t oy = 0; oy < Ho; ++oy)
        for (std::size_t ox = 0; ox < Wo; ++ox) {
          double acc = b[oc];
          for (std::size_t ic = 0; ic < Ci; ++ic)
            for (std::size_t ky = 0; ky < K; ++ky)
              for (std::size_t kx = 0; kx < K; ++kx) {
                const auto iy = static_cast<std::ptrdiff_t>(oy * spec.stride +
                                                            ky) -
                                static_cast<std::ptrdiff_t>(spec.pad);
                const auto ix = static_cast<std::ptrdiff_t>(ox * spec.stride +
                                                            kx) -
                                static_cast<std::ptrdiff_t>(spec.pad);
                if (iy < 0 || ix < 0 || iy >= static_cast<std::ptrdiff_t>(H) ||
                    ix >= static_cast<std::ptrdiff_t>(W))
                  continue;
                acc +=
                    x[((n * Ci + ic) * H + static_cast<std::size_t>(iy)) * W +
                      static_cast<std::size_t>(ix)] *
                    w[((oc * Ci + ic) * K + ky) * K + kx];
              }
          y[((n * Co + oc) * Ho + oy) * Wo + ox] = acc;
        }
  return y;
}

void expect_close(const Tensor& a, const Tensor& b, double tol = 1e-10) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.numel(); ++i)
    EXPECT_NEAR(a[i], b[i], tol) << "i=" << i;
}

TEST(Gemm, MatchesNaive) {
  Rng rng(1);
  const Tensor a = random_tensor({7, 5}, rng);
  const Tensor b = random_tensor({5, 9}, rng);
  Tensor c;
  matmul(a, b, c);
  expect_close(c, naive_gemm(a, b));
}

TEST(Gemm, Accumulates) {
  Rng rng(2);
  const Tensor a = random_tensor({3, 4}, rng);
  const Tensor b = random_tensor({4, 2}, rng);
  Tensor c({3, 2}, 1.0);
  matmul(a, b, c, /*accumulate=*/true);
  Tensor ref = naive_gemm(a, b);
  for (auto& v : ref.vec()) v += 1.0;
  expect_close(c, ref);
}

TEST(Gemm, TransposedVariants) {
  Rng rng(3);
  const Tensor a = random_tensor({6, 4}, rng);  // k x m for at_b
  const Tensor b = random_tensor({6, 5}, rng);
  Tensor c;
  matmul_at(a, b, c);
  // reference: a^T * b
  Tensor at({4, 6});
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = 0; j < 4; ++j) at[j * 6 + i] = a[i * 4 + j];
  expect_close(c, naive_gemm(at, b));

  const Tensor d = random_tensor({7, 4}, rng);  // m x n
  const Tensor e = random_tensor({3, 4}, rng);  // k x n
  Tensor g;
  matmul_bt(d, e, g);
  Tensor et({4, 3});
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 4; ++j) et[j * 3 + i] = e[i * 4 + j];
  expect_close(g, naive_gemm(d, et));
}

struct ConvCase {
  std::size_t n, ci, h, w, co, kernel, stride, pad;
};

class ConvTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvTest, ForwardMatchesNaive) {
  const ConvCase cc = GetParam();
  Rng rng(5);
  const Tensor x = random_tensor({cc.n, cc.ci, cc.h, cc.w}, rng);
  const Tensor w =
      random_tensor({cc.co, cc.ci, cc.kernel, cc.kernel}, rng);
  const Tensor b = random_tensor({cc.co}, rng);
  const ConvSpec spec{cc.kernel, cc.stride, cc.pad};
  Tensor y;
  conv2d_forward(x, w, b, spec, y);
  expect_close(y, naive_conv(x, w, b, spec));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvTest,
    ::testing::Values(ConvCase{1, 1, 5, 5, 1, 3, 1, 1},
                      ConvCase{2, 3, 8, 8, 4, 3, 1, 1},
                      ConvCase{1, 2, 7, 7, 3, 3, 2, 1},
                      ConvCase{2, 4, 6, 6, 2, 1, 1, 0},
                      ConvCase{1, 3, 9, 9, 2, 1, 2, 0},
                      ConvCase{1, 2, 6, 8, 3, 3, 1, 0}));

// Numerical gradient check of conv2d_backward on a tiny case.
TEST(ConvBackward, MatchesNumericalGradient) {
  Rng rng(7);
  const ConvSpec spec{3, 1, 1};
  Tensor x = random_tensor({1, 2, 5, 5}, rng);
  Tensor w = random_tensor({2, 2, 3, 3}, rng);
  Tensor b = random_tensor({2}, rng);
  Tensor y;
  conv2d_forward(x, w, b, spec, y);
  // Loss = sum(y * g) for a fixed random g; dL/dy = g.
  const Tensor g = random_tensor(y.shape(), rng);

  Tensor dx, dw, db;
  conv2d_backward(x, w, spec, g, dx, dw, db);

  auto loss = [&](const Tensor& xx, const Tensor& ww, const Tensor& bb) {
    Tensor yy;
    conv2d_forward(xx, ww, bb, spec, yy);
    double s = 0;
    for (std::size_t i = 0; i < yy.numel(); ++i) s += yy[i] * g[i];
    return s;
  };

  const double eps = 1e-6;
  for (std::size_t i = 0; i < x.numel(); i += 7) {
    Tensor xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    EXPECT_NEAR(dx[i], (loss(xp, w, b) - loss(xm, w, b)) / (2 * eps), 1e-5);
  }
  for (std::size_t i = 0; i < w.numel(); i += 5) {
    Tensor wp = w, wm = w;
    wp[i] += eps;
    wm[i] -= eps;
    EXPECT_NEAR(dw[i], (loss(x, wp, b) - loss(x, wm, b)) / (2 * eps), 1e-5);
  }
  for (std::size_t i = 0; i < b.numel(); ++i) {
    Tensor bp = b, bm = b;
    bp[i] += eps;
    bm[i] -= eps;
    EXPECT_NEAR(db[i], (loss(x, w, bp) - loss(x, w, bm)) / (2 * eps), 1e-5);
  }
}

TEST(MaxPool, ForwardSelectsMaxAndArgmax) {
  Tensor x({1, 1, 4, 4});
  for (std::size_t i = 0; i < 16; ++i) x[i] = static_cast<double>(i);
  const ConvSpec spec{2, 2, 0};
  Tensor y;
  std::vector<std::size_t> argmax;
  maxpool2d_forward(x, spec, y, &argmax);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_DOUBLE_EQ(y[0], 5.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
  EXPECT_DOUBLE_EQ(y[2], 13.0);
  EXPECT_DOUBLE_EQ(y[3], 15.0);
  EXPECT_EQ(argmax[0], 5u);
  EXPECT_EQ(argmax[3], 15u);
}

TEST(MaxPool, BackwardRoutesGradientToArgmax) {
  Tensor x({1, 1, 4, 4});
  for (std::size_t i = 0; i < 16; ++i) x[i] = static_cast<double>(i);
  const ConvSpec spec{2, 2, 0};
  Tensor y;
  std::vector<std::size_t> argmax;
  maxpool2d_forward(x, spec, y, &argmax);
  Tensor dy({1, 1, 2, 2});
  dy.fill(1.0);
  Tensor dx({1, 1, 4, 4});
  maxpool2d_backward(dy, argmax, dx);
  double total = 0;
  for (std::size_t i = 0; i < 16; ++i) total += dx[i];
  EXPECT_DOUBLE_EQ(total, 4.0);
  EXPECT_DOUBLE_EQ(dx[5], 1.0);
  EXPECT_DOUBLE_EQ(dx[0], 0.0);
}

TEST(MaxPool, PropagatesNaN) {
  Tensor x({1, 1, 2, 2});
  x[0] = std::nan("");
  x[1] = 5.0;
  const ConvSpec spec{2, 2, 0};
  Tensor y;
  std::vector<std::size_t> argmax;
  maxpool2d_forward(x, spec, y, &argmax);
  EXPECT_TRUE(std::isnan(y[0]));
}

TEST(GlobalAvgPool, ForwardAndBackward) {
  Tensor x({2, 3, 2, 2});
  for (std::size_t i = 0; i < x.numel(); ++i) x[i] = static_cast<double>(i);
  Tensor y;
  global_avgpool_forward(x, y);
  EXPECT_EQ(y.shape(), (Shape{2, 3}));
  EXPECT_DOUBLE_EQ(y[0], (0 + 1 + 2 + 3) / 4.0);
  EXPECT_DOUBLE_EQ(y[5], (20 + 21 + 22 + 23) / 4.0);

  Tensor dy({2, 3}, 1.0);
  Tensor dx;
  global_avgpool_backward(dy, x.shape(), dx);
  EXPECT_EQ(dx.shape(), x.shape());
  for (std::size_t i = 0; i < dx.numel(); ++i) EXPECT_DOUBLE_EQ(dx[i], 0.25);
}

TEST(Softmax, RowsSumToOne) {
  Rng rng(11);
  const Tensor logits = random_tensor({4, 10}, rng);
  Tensor probs;
  softmax_rows(logits, probs);
  for (std::size_t i = 0; i < 4; ++i) {
    double s = 0;
    for (std::size_t j = 0; j < 10; ++j) {
      EXPECT_GT(probs[i * 10 + j], 0.0);
      s += probs[i * 10 + j];
    }
    EXPECT_NEAR(s, 1.0, 1e-12);
  }
}

TEST(Softmax, StableUnderLargeLogits) {
  Tensor logits({1, 3});
  logits[0] = 1000;
  logits[1] = 1001;
  logits[2] = 999;
  Tensor probs;
  softmax_rows(logits, probs);
  EXPECT_FALSE(probs.has_non_finite());
  EXPECT_GT(probs[1], probs[0]);
}

TEST(ConvSpec, OutExtent) {
  EXPECT_EQ((ConvSpec{3, 1, 1}.out_extent(32)), 32u);
  EXPECT_EQ((ConvSpec{2, 2, 0}.out_extent(32)), 16u);
  EXPECT_EQ((ConvSpec{3, 2, 1}.out_extent(32)), 16u);
  EXPECT_EQ((ConvSpec{1, 1, 0}.out_extent(7)), 7u);
}

}  // namespace
}  // namespace ckptfi
