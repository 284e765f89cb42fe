// Equivalence and determinism contract for the simd kernel tier
// (docs/KERNELS.md):
//
//   - ISA selection: a host without a vector ISA refuses unless
//     CKPTFI_SIMD=off opts into the scalar lanes;
//   - the unqualified GEMM entry points run simd at fp64 and the fp16 path
//     when gemm_precision() selects it; conv2d runs simd at either precision;
//   - simd: the portable scalar lanes are BITWISE identical to the vector
//     ISA (the lane-blocked FMA order *is* the tier's contract), and simd
//     matches the direct-loop reference kernels (support/ops_naive.hpp) to
//     <= 1e-12 relative (FMA fuses the multiply-add rounding);
//   - fp16: the mixed-precision GEMM path quantizes operands exactly like
//     quantize_value(v, 16) and accumulates in fp32 with the documented
//     8-lane order; scalar ≡ vector bitwise here too;
//   - kernels are deterministic at a fixed thread count: repeated calls
//     are bitwise identical;
//   - the Workspace arena reaches a zero-heap-allocation steady state after
//     one warm-up cycle (fp16 panels included).
#include "tensor/kernels.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "support/ops_naive.hpp"
#include "tensor/ops.hpp"
#include "tensor/quantize.hpp"
#include "tensor/workspace.hpp"
#include "util/common.hpp"
#include "util/rng.hpp"

namespace ckptfi {
namespace {

Tensor random_tensor(Shape shape, Rng& rng) {
  Tensor t(std::move(shape));
  for (auto& v : t.vec()) v = rng.normal();
  return t;
}

/// Zeros sprinkled into `t` so the GEMM zero-skip branch is exercised.
void sprinkle_zeros(Tensor& t, Rng& rng) {
  for (auto& v : t.vec())
    if (rng.uniform() < 0.15) v = 0.0;
}

void expect_bitwise(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  if (a.numel() == 0) return;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.numel() * sizeof(double)), 0);
}

void expect_rel_close(const Tensor& a, const Tensor& b, double tol = 1e-12) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.numel(); ++i) {
    const double denom = std::max({std::abs(a[i]), std::abs(b[i]), 1.0});
    EXPECT_LE(std::abs(a[i] - b[i]), tol * denom) << "i=" << i;
  }
}

/// Pins the simd tier's ISA (kScalar is always available) and restores.
class IsaGuard {
 public:
  explicit IsaGuard(SimdIsa isa) : prev_(simd_isa()) { set_simd_isa(isa); }
  ~IsaGuard() { set_simd_isa(prev_); }

 private:
  SimdIsa prev_;
};

/// Pins the GEMM compute precision and restores.
class PrecisionGuard {
 public:
  explicit PrecisionGuard(GemmPrecision p) : prev_(gemm_precision()) {
    set_gemm_precision(p);
  }
  ~PrecisionGuard() { set_gemm_precision(prev_); }

 private:
  GemmPrecision prev_;
};

// ---------------------------------------------------------------------------
// ISA selection: a pure function of (hardware ISA, CKPTFI_SIMD).

TEST(SimdIsaSelection, NoVectorIsaWithoutOptInRefuses) {
  for (const char* env :
       {static_cast<const char*>(nullptr), "", "on", "1", "true"}) {
    try {
      select_simd_isa(SimdIsa::kScalar, env);
      ADD_FAILURE() << "no refusal for CKPTFI_SIMD=" << (env ? env : "(unset)");
    } catch (const InvalidArgument& e) {
      // The refusal names the explicit opt-in.
      EXPECT_NE(std::string(e.what()).find("CKPTFI_SIMD=off"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(SimdIsaSelection, OffSelectsScalarLanesOnEveryHost) {
  for (const char* env : {"off", "0", "false"}) {
    EXPECT_EQ(select_simd_isa(SimdIsa::kScalar, env), SimdIsa::kScalar);
    EXPECT_EQ(select_simd_isa(SimdIsa::kAvx2, env), SimdIsa::kScalar);
    EXPECT_EQ(select_simd_isa(SimdIsa::kNeon, env), SimdIsa::kScalar);
  }
}

TEST(SimdIsaSelection, VectorHostRunsItsIsaByDefault) {
  for (const char* env :
       {static_cast<const char*>(nullptr), "", "on", "1", "true"}) {
    EXPECT_EQ(select_simd_isa(SimdIsa::kAvx2, env), SimdIsa::kAvx2);
    EXPECT_EQ(select_simd_isa(SimdIsa::kNeon, env), SimdIsa::kNeon);
  }
}

TEST(SimdIsaSelection, BadValueRefuses) {
  for (const SimdIsa hw : {SimdIsa::kScalar, SimdIsa::kAvx2, SimdIsa::kNeon}) {
    EXPECT_THROW(select_simd_isa(hw, "fast"), InvalidArgument);
    EXPECT_THROW(select_simd_isa(hw, "OFF"), InvalidArgument);
  }
}

TEST(SimdIsaSelection, NameAndScalarOverride) {
  EXPECT_STREQ(kernel_backend_name(), "simd");
  const SimdIsa detected = simd_isa();
  {
    IsaGuard guard(SimdIsa::kScalar);
    EXPECT_EQ(simd_isa(), SimdIsa::kScalar);
    EXPECT_STREQ(simd_isa_name(), "scalar");
  }
  EXPECT_EQ(simd_isa(), detected);  // guard restored the detected ISA
}

TEST(KernelDispatch, GemmFollowsPrecision) {
  Rng rng(12);
  const Tensor a = random_tensor({24, 40}, rng);
  const Tensor b = random_tensor({40, 16}, rng);
  Tensor expect64, expect16, c;
  simd::matmul(a, b, expect64);
  fp16::matmul(a, b, expect16);
  EXPECT_STREQ(gemm_precision_name(), "fp64");
  matmul(a, b, c);
  expect_bitwise(c, expect64);
  PrecisionGuard precision(GemmPrecision::kFp16);
  EXPECT_STREQ(gemm_precision_name(), "fp16");
  matmul(a, b, c);
  expect_bitwise(c, expect16);
}

// ---------------------------------------------------------------------------
// simd tier: the scalar fallback IS the contract — the vector ISA must
// reproduce it bitwise at every shape (lane tails, odd K/M/N, empty and
// one-element operands included), and the tier must sit within ulp-level
// drift of the reference kernels. Under CKPTFI_SIMD=off both paths are the
// same function, so the bitwise half is trivially (and still meaningfully,
// cross-ISA via CI) true.

struct GemmShape {
  std::size_t m, k, n;
};

struct ConvShape {
  std::size_t n, ci, h, w, co;
  std::size_t kernel, stride, pad;
};
class SimdGemmEquivalence : public ::testing::TestWithParam<GemmShape> {};

TEST_P(SimdGemmEquivalence, MatmulScalarVectorBitwiseNaiveClose) {
  const auto [m, k, n] = GetParam();
  Rng rng(909 + m + k + n);
  Tensor a = random_tensor({m, k}, rng);
  const Tensor b = random_tensor({k, n}, rng);
  sprinkle_zeros(a, rng);  // the broadcast zero-skip is part of the contract
  Tensor vec, sc, ref;
  simd::matmul(a, b, vec);
  {
    IsaGuard guard(SimdIsa::kScalar);
    simd::matmul(a, b, sc);
  }
  expect_bitwise(sc, vec);
  naive::matmul(a, b, ref);
  expect_rel_close(vec, ref);
  // accumulate=true on top of an existing C.
  Tensor base = random_tensor({m, n}, rng);
  Tensor av = base, as = base;
  simd::matmul(a, b, av, /*accumulate=*/true);
  {
    IsaGuard guard(SimdIsa::kScalar);
    simd::matmul(a, b, as, /*accumulate=*/true);
  }
  expect_bitwise(as, av);
}

TEST_P(SimdGemmEquivalence, MatmulAtScalarVectorBitwiseNaiveClose) {
  const auto [m, k, n] = GetParam();
  Rng rng(919 + m + k + n);
  Tensor a = random_tensor({k, m}, rng);
  const Tensor b = random_tensor({k, n}, rng);
  sprinkle_zeros(a, rng);
  Tensor vec, sc, ref;
  simd::matmul_at(a, b, vec);
  {
    IsaGuard guard(SimdIsa::kScalar);
    simd::matmul_at(a, b, sc);
  }
  expect_bitwise(sc, vec);
  naive::matmul_at(a, b, ref);
  expect_rel_close(vec, ref);
}

TEST_P(SimdGemmEquivalence, MatmulBtScalarVectorBitwiseNaiveClose) {
  const auto [m, k, n] = GetParam();
  Rng rng(929 + m + k + n);
  const Tensor a = random_tensor({m, n}, rng);
  const Tensor b = random_tensor({k, n}, rng);
  Tensor vec, sc, ref;
  simd::matmul_bt(a, b, vec);
  {
    IsaGuard guard(SimdIsa::kScalar);
    simd::matmul_bt(a, b, sc);
  }
  expect_bitwise(sc, vec);
  naive::matmul_bt(a, b, ref);
  expect_rel_close(vec, ref);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SimdGemmEquivalence,
    ::testing::Values(GemmShape{1, 1, 1},       // single element
                      GemmShape{1, 8, 1},       // dot exactly one lane block
                      GemmShape{3, 8, 8},       // everything lane-aligned
                      GemmShape{3, 9, 17},      // tails on every axis
                      GemmShape{7, 5, 9},       // small odd
                      GemmShape{5, 15, 6},      // dot tail of 7 (max tail)
                      GemmShape{13, 17, 3},     // small, odd n
                      GemmShape{33, 70, 41},    // odd, mid-size
                      GemmShape{64, 64, 64},    // pool path
                      GemmShape{2, 257, 8},     // k crosses a kKc block +1
                      GemmShape{8, 301, 5},     // k > one block, odd n
                      GemmShape{128, 300, 65},  // k-blocked + pool path
                      GemmShape{0, 5, 4},       // empty m
                      GemmShape{5, 0, 4},       // empty k: all-zero result
                      GemmShape{5, 4, 0}));     // empty n

class SimdConvEquivalence : public ::testing::TestWithParam<ConvShape> {};

TEST_P(SimdConvEquivalence, ForwardScalarVectorBitwiseNaiveClose) {
  const ConvShape s = GetParam();
  Rng rng(939 + s.h * 7 + s.kernel);
  const Tensor x = random_tensor({s.n, s.ci, s.h, s.w}, rng);
  const Tensor w = random_tensor({s.co, s.ci, s.kernel, s.kernel}, rng);
  const Tensor b = random_tensor({s.co}, rng);
  const ConvSpec spec{s.kernel, s.stride, s.pad};
  Tensor vec, sc, ref;
  simd::conv2d_forward(x, w, b, spec, vec);
  {
    IsaGuard guard(SimdIsa::kScalar);
    simd::conv2d_forward(x, w, b, spec, sc);
  }
  expect_bitwise(sc, vec);
  naive::conv2d_forward(x, w, b, spec, ref);
  expect_rel_close(vec, ref);
}

TEST_P(SimdConvEquivalence, BackwardScalarVectorBitwiseNaiveClose) {
  const ConvShape s = GetParam();
  Rng rng(949 + s.h * 7 + s.kernel);
  const Tensor x = random_tensor({s.n, s.ci, s.h, s.w}, rng);
  const Tensor w = random_tensor({s.co, s.ci, s.kernel, s.kernel}, rng);
  const ConvSpec spec{s.kernel, s.stride, s.pad};
  const std::size_t ho = spec.out_extent(s.h), wo = spec.out_extent(s.w);
  Tensor dy = random_tensor({s.n, s.co, ho, wo}, rng);
  sprinkle_zeros(dy, rng);
  Tensor dxv(x.shape()), dwv(w.shape()), dbv({s.co});
  Tensor dxs(x.shape()), dws(w.shape()), dbs({s.co});
  Tensor dxn(x.shape()), dwn(w.shape()), dbn({s.co});
  simd::conv2d_backward(x, w, spec, dy, dxv, dwv, dbv);
  {
    IsaGuard guard(SimdIsa::kScalar);
    simd::conv2d_backward(x, w, spec, dy, dxs, dws, dbs);
  }
  expect_bitwise(dxs, dxv);
  expect_bitwise(dws, dwv);
  expect_bitwise(dbs, dbv);
  naive::conv2d_backward(x, w, spec, dy, dxn, dwn, dbn);
  expect_rel_close(dxv, dxn);
  expect_rel_close(dwv, dwn);
  expect_rel_close(dbv, dbn);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SimdConvEquivalence,
    ::testing::Values(
        ConvShape{1, 1, 1, 1, 1, 1, 1, 0},      // single pixel, 1x1 kernel
        ConvShape{2, 3, 8, 8, 4, 3, 1, 1},      // typical LeNet-ish block
        ConvShape{1, 2, 7, 9, 3, 3, 2, 1},      // odd non-square, stride 2
        ConvShape{2, 2, 5, 5, 3, 5, 1, 2},      // 5x5 kernel, same-pad
        ConvShape{1, 3, 6, 6, 2, 3, 3, 0},      // stride 3, no padding
        ConvShape{1, 1, 4, 4, 1, 3, 1, 0},      // valid conv, shrinks
        ConvShape{1, 2, 7, 7, 2, 3, 2, 0},      // stride 2, no padding, odd
        ConvShape{2, 4, 16, 16, 8, 3, 1, 1}));  // big enough for pool path

// ---------------------------------------------------------------------------
// Public entry points (what the layers call): at every shape and at both
// compute precisions, the GEMM family is bitwise the implementation
// gemm_precision() selects — simd at fp64, fp16 under fp16 compute — and
// conv2d is bitwise simd (the precision reaches the GEMM family only) and
// within ulp-level drift of the reference kernels.

/// Runs `check` once per GEMM compute precision, with that precision pinned.
template <typename Check>
void for_each_precision(const Check& check) {
  for (const GemmPrecision p : {GemmPrecision::kFp64, GemmPrecision::kFp16}) {
    PrecisionGuard guard(p);
    SCOPED_TRACE(gemm_precision_name());
    check(p);
  }
}

class GemmEquivalence : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmEquivalence, MatmulBitwise) {
  const auto [m, k, n] = GetParam();
  Rng rng(101 + m + k + n);
  Tensor a = random_tensor({m, k}, rng);
  const Tensor b = random_tensor({k, n}, rng);
  sprinkle_zeros(a, rng);  // zero-skip is on the A operand
  const Tensor base = random_tensor({m, n}, rng);
  for_each_precision([&](GemmPrecision p) {
    const auto kernel = p == GemmPrecision::kFp16 ? fp16::matmul : simd::matmul;
    Tensor expect, c;
    kernel(a, b, expect, false);
    matmul(a, b, c);
    expect_bitwise(c, expect);
    // accumulate=true on top of an existing C.
    Tensor expect_acc = base, acc = base;
    kernel(a, b, expect_acc, true);
    matmul(a, b, acc, /*accumulate=*/true);
    expect_bitwise(acc, expect_acc);
  });
}

TEST_P(GemmEquivalence, MatmulAtBitwise) {
  const auto [m, k, n] = GetParam();
  Rng rng(202 + m + k + n);
  Tensor a = random_tensor({k, m}, rng);  // A is [k, m], used transposed
  const Tensor b = random_tensor({k, n}, rng);
  sprinkle_zeros(a, rng);
  for_each_precision([&](GemmPrecision p) {
    Tensor expect, c;
    (p == GemmPrecision::kFp16 ? fp16::matmul_at : simd::matmul_at)(a, b,
                                                                  expect);
    matmul_at(a, b, c);
    expect_bitwise(c, expect);
  });
}

TEST_P(GemmEquivalence, MatmulBtBitwise) {
  const auto [m, k, n] = GetParam();
  Rng rng(303 + m + k + n);
  const Tensor a = random_tensor({m, n}, rng);  // C[m,k] = A[m,n] * B[k,n]^T
  const Tensor b = random_tensor({k, n}, rng);
  for_each_precision([&](GemmPrecision p) {
    Tensor expect, c;
    (p == GemmPrecision::kFp16 ? fp16::matmul_bt : simd::matmul_bt)(a, b,
                                                                  expect);
    matmul_bt(a, b, c);
    expect_bitwise(c, expect);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmEquivalence,
    ::testing::Values(GemmShape{1, 1, 1},       // single element
                      GemmShape{7, 5, 9},       // small odd
                      GemmShape{13, 17, 3},     // small, odd n
                      GemmShape{33, 70, 41},    // odd, mid-size
                      GemmShape{64, 64, 64},    // pool path
                      GemmShape{8, 301, 5},     // k > one block, odd n
                      GemmShape{128, 300, 65},  // k-blocked + pool path
                      GemmShape{0, 5, 4},       // empty m
                      GemmShape{5, 0, 4},       // empty k: all-zero result
                      GemmShape{5, 4, 0}));     // empty n

class ConvEquivalence : public ::testing::TestWithParam<ConvShape> {};

TEST_P(ConvEquivalence, ForwardRelTol) {
  const ConvShape s = GetParam();
  Rng rng(404 + s.h * 7 + s.kernel);
  const Tensor x = random_tensor({s.n, s.ci, s.h, s.w}, rng);
  const Tensor w = random_tensor({s.co, s.ci, s.kernel, s.kernel}, rng);
  const Tensor b = random_tensor({s.co}, rng);
  const ConvSpec spec{s.kernel, s.stride, s.pad};
  Tensor expect, ref;
  simd::conv2d_forward(x, w, b, spec, expect);
  naive::conv2d_forward(x, w, b, spec, ref);
  for_each_precision([&](GemmPrecision) {
    Tensor y;
    conv2d_forward(x, w, b, spec, y);
    expect_bitwise(y, expect);
    expect_rel_close(y, ref);
  });
}

TEST_P(ConvEquivalence, BackwardRelTol) {
  const ConvShape s = GetParam();
  Rng rng(505 + s.h * 7 + s.kernel);
  const Tensor x = random_tensor({s.n, s.ci, s.h, s.w}, rng);
  const Tensor w = random_tensor({s.co, s.ci, s.kernel, s.kernel}, rng);
  const ConvSpec spec{s.kernel, s.stride, s.pad};
  const std::size_t ho = spec.out_extent(s.h), wo = spec.out_extent(s.w);
  Tensor dy = random_tensor({s.n, s.co, ho, wo}, rng);
  sprinkle_zeros(dy, rng);  // the reference skips zero gradients
  Tensor dxe(x.shape()), dwe(w.shape()), dbe({s.co});
  Tensor dxn(x.shape()), dwn(w.shape()), dbn({s.co});
  simd::conv2d_backward(x, w, spec, dy, dxe, dwe, dbe);
  naive::conv2d_backward(x, w, spec, dy, dxn, dwn, dbn);
  for_each_precision([&](GemmPrecision) {
    Tensor dx(x.shape()), dw(w.shape()), db({s.co});
    conv2d_backward(x, w, spec, dy, dx, dw, db);
    expect_bitwise(dx, dxe);
    expect_bitwise(dw, dwe);
    expect_bitwise(db, dbe);
    expect_rel_close(dx, dxn);
    expect_rel_close(dw, dwn);
    expect_rel_close(db, dbn);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvEquivalence,
    ::testing::Values(
        ConvShape{1, 1, 1, 1, 1, 1, 1, 0},      // single pixel, 1x1 kernel
        ConvShape{2, 3, 8, 8, 4, 3, 1, 1},      // typical LeNet-ish block
        ConvShape{1, 2, 7, 9, 3, 3, 2, 1},      // odd non-square, stride 2
        ConvShape{2, 2, 5, 5, 3, 5, 1, 2},      // 5x5 kernel, same-pad
        ConvShape{1, 3, 6, 6, 2, 3, 3, 0},      // stride 3, no padding
        ConvShape{1, 1, 4, 4, 1, 3, 1, 0},      // valid conv, shrinks
        ConvShape{1, 2, 7, 7, 2, 3, 2, 0},      // stride 2, no padding, odd
        ConvShape{2, 4, 16, 16, 8, 3, 1, 1}));  // big enough for pool path

// ---------------------------------------------------------------------------
// fp16 mixed-precision GEMM: operands are quantized to binary16 storage
// exactly like quantize_value(v, 16), then accumulated in fp32 with the
// documented order — ascending-k fmaf chains for matmul/matmul_at, 8 fp32
// lanes plus the fixed tree fold for matmul_bt.

double q16(double v) { return quantize_value(v, 16); }

TEST(Fp16Gemm, MatmulMatchesDocumentedReference) {
  Rng rng(959);
  Tensor a = random_tensor({9, 21}, rng);
  const Tensor b = random_tensor({21, 13}, rng);
  sprinkle_zeros(a, rng);
  // Values the f16 storage format treats specially: overflow saturates to
  // Inf, tiny values flush toward subnormals/zero — the compute path must
  // inherit exactly what the corrupter's Table VII campaigns would see.
  a.vec()[0] = 1.0e10;
  a.vec()[1] = 1.0e-10;
  Tensor c;
  fp16::matmul(a, b, c);
  for (std::size_t i = 0; i < 9; ++i) {
    for (std::size_t j = 0; j < 13; ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < 21; ++p) {
        const float av = static_cast<float>(q16(a[i * 21 + p]));
        if (av == 0.0f) continue;  // broadcast zero-skip
        acc = std::fmaf(av, static_cast<float>(q16(b[p * 13 + j])), acc);
      }
      const double expect = static_cast<double>(acc);
      const double got = c[i * 13 + j];
      if (std::isnan(expect)) {
        EXPECT_TRUE(std::isnan(got)) << i << "," << j;
      } else {
        EXPECT_EQ(got, expect) << i << "," << j;
      }
    }
  }
}

TEST(Fp16Gemm, MatmulBtMatchesDocumentedLaneOrder) {
  Rng rng(969);
  const Tensor a = random_tensor({5, 19}, rng);  // dot length 19: tail of 3
  const Tensor b = random_tensor({7, 19}, rng);
  Tensor c;
  fp16::matmul_bt(a, b, c);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 7; ++j) {
      float lanes[8] = {};
      for (std::size_t p = 0; p < 19; ++p) {
        const float av = static_cast<float>(q16(a[i * 19 + p]));
        const float bv = static_cast<float>(q16(b[j * 19 + p]));
        lanes[p % 8] = std::fmaf(av, bv, lanes[p % 8]);
      }
      const float fold = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
                         ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
      EXPECT_EQ(c[i * 7 + j], static_cast<double>(fold)) << i << "," << j;
    }
  }
}

class Fp16GemmEquivalence : public ::testing::TestWithParam<GemmShape> {};

TEST_P(Fp16GemmEquivalence, ScalarVectorBitwise) {
  const auto [m, k, n] = GetParam();
  Rng rng(979 + m + k + n);
  Tensor a = random_tensor({m, k}, rng);
  const Tensor b = random_tensor({k, n}, rng);
  sprinkle_zeros(a, rng);
  Tensor vec, sc;
  fp16::matmul(a, b, vec);
  {
    IsaGuard guard(SimdIsa::kScalar);
    fp16::matmul(a, b, sc);
  }
  expect_bitwise(sc, vec);

  const Tensor at = random_tensor({k, m}, rng);
  fp16::matmul_at(at, b, vec);
  {
    IsaGuard guard(SimdIsa::kScalar);
    fp16::matmul_at(at, b, sc);
  }
  expect_bitwise(sc, vec);

  const Tensor abt = random_tensor({m, n}, rng);
  const Tensor bbt = random_tensor({k, n}, rng);
  fp16::matmul_bt(abt, bbt, vec);
  {
    IsaGuard guard(SimdIsa::kScalar);
    fp16::matmul_bt(abt, bbt, sc);
  }
  expect_bitwise(sc, vec);
}

INSTANTIATE_TEST_SUITE_P(Shapes, Fp16GemmEquivalence,
                         ::testing::Values(GemmShape{1, 1, 1},
                                           GemmShape{3, 9, 17},
                                           GemmShape{7, 5, 9},
                                           GemmShape{64, 64, 64},
                                           GemmShape{2, 257, 8},
                                           GemmShape{0, 5, 4},
                                           GemmShape{5, 0, 4}));

// Values exactly representable in binary16 (small integers) survive the
// round trip untouched, and small-integer dot products are exact in fp32 —
// so fp16 GEMM must equal the full-precision reference on the quantized
// operands, bitwise.
TEST(Fp16Gemm, ExactlyRepresentableValuesRoundTrip) {
  Rng rng(989);
  Tensor a({6, 24}), b({24, 5});
  for (auto& v : a.vec())
    v = static_cast<double>(static_cast<int>(rng.uniform() * 17.0) - 8);
  for (auto& v : b.vec())
    v = static_cast<double>(static_cast<int>(rng.uniform() * 17.0) - 8);
  for (std::size_t i = 0; i < a.numel(); ++i) EXPECT_EQ(q16(a[i]), a[i]);
  Tensor c16, cref;
  fp16::matmul(a, b, c16);
  naive::matmul(a, b, cref);
  expect_bitwise(c16, cref);
}

// ---------------------------------------------------------------------------
// Determinism: repeated calls are bitwise identical at a fixed thread count
// (the pool is created once per process from CKPTFI_THREADS).

TEST(KernelDeterminism, SimdGemmAndConvRepeatBitwise) {
  Rng rng(717);
  const Tensor a = random_tensor({96, 300}, rng);
  const Tensor b = random_tensor({300, 64}, rng);
  Tensor first, again;
  simd::matmul(a, b, first);
  const Tensor x = random_tensor({2, 4, 16, 16}, rng);
  const Tensor w = random_tensor({8, 4, 3, 3}, rng);
  const Tensor bias = random_tensor({8}, rng);
  const ConvSpec spec{3, 1, 1};
  Tensor y0, y;
  simd::conv2d_forward(x, w, bias, spec, y0);
  const Tensor dy = random_tensor(y0.shape(), rng);
  Tensor dx0(x.shape()), dw0(w.shape()), db0({8});
  simd::conv2d_backward(x, w, spec, dy, dx0, dw0, db0);
  for (int i = 0; i < 3; ++i) {
    simd::matmul(a, b, again);
    expect_bitwise(again, first);
    simd::conv2d_forward(x, w, bias, spec, y);
    expect_bitwise(y, y0);
    Tensor dx(x.shape()), dw(w.shape()), db({8});
    simd::conv2d_backward(x, w, spec, dy, dx, dw, db);
    expect_bitwise(dx, dx0);
    expect_bitwise(dw, dw0);
    expect_bitwise(db, db0);
  }
}

// ---------------------------------------------------------------------------
// Workspace arena.

TEST(Workspace, ScopeRewindsLifo) {
  Workspace& ws = Workspace::tls();
  ws.reset();
  const std::size_t before = ws.used();
  {
    Workspace::Scope outer(ws);
    double* a = ws.alloc(16);
    a[0] = 1.0;
    {
      Workspace::Scope inner(ws);
      double* b = ws.alloc(32);
      b[31] = 2.0;
      EXPECT_EQ(ws.used(), before + 48);
    }
    EXPECT_EQ(ws.used(), before + 16);  // inner rewound, outer alive
    EXPECT_EQ(a[0], 1.0);               // outer allocation untouched
  }
  EXPECT_EQ(ws.used(), before);
}

TEST(Workspace, OverflowThenQuiescentRegrow) {
  Workspace& ws = Workspace::tls();
  ws.reset();
  const std::size_t want = ws.high_water() / sizeof(double) + 4096;
  {
    Workspace::Scope scope(ws);
    ws.alloc(want);  // beyond capacity: served from an overflow block
  }
  const std::size_t after_learning = ws.allocations();
  // Quiescent now; the next cycle must fit the primary buffer with no new
  // heap allocation beyond the single regrow.
  for (int i = 0; i < 5; ++i) {
    Workspace::Scope scope(ws);
    ws.alloc(want);
  }
  EXPECT_LE(ws.allocations(), after_learning + 1);  // one regrow, then flat
  EXPECT_GE(ws.bytes_reserved(), want * sizeof(double));
}

// After one warm-up cycle, a steady-state conv loop performs zero arena heap
// allocations. The shape is below the pool fan-out threshold so all scratch
// comes from this thread's arena.
TEST(Workspace, ConvSteadyStateAllocFree) {
  Rng rng(808);
  const Tensor x = random_tensor({1, 2, 8, 8}, rng);
  const Tensor w = random_tensor({4, 2, 3, 3}, rng);
  const Tensor b = random_tensor({4}, rng);
  const ConvSpec spec{3, 1, 1};
  Workspace& ws = Workspace::tls();
  Tensor y;
  simd::conv2d_forward(x, w, b, spec, y);  // warm-up: arena learns the size
  ws.reset();                              // batch boundary: coalesce
  const std::size_t warm = ws.allocations();
  for (int i = 0; i < 10; ++i) {
    simd::conv2d_forward(x, w, b, spec, y);
    ws.reset();
  }
  EXPECT_EQ(ws.allocations(), warm);  // zero heap traffic at steady state
}

// The fp16 path's u16/f32 panels come from the same arena through the typed
// views, so the zero-steady-state-allocation contract extends to
// mixed-precision GEMM. Shape below the pool threshold: all panels live in
// this thread's arena.
TEST(Workspace, Fp16GemmSteadyStateAllocFree) {
  Rng rng(818);
  const Tensor a = random_tensor({8, 16}, rng);
  const Tensor b = random_tensor({16, 8}, rng);
  Workspace& ws = Workspace::tls();
  Tensor c;
  fp16::matmul(a, b, c);  // warm-up: arena learns the panel sizes
  ws.reset();
  const std::size_t warm = ws.allocations();
  for (int i = 0; i < 10; ++i) {
    fp16::matmul(a, b, c);
    ws.reset();
  }
  EXPECT_EQ(ws.allocations(), warm);
}

}  // namespace
}  // namespace ckptfi
