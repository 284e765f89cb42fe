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
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "support/isa_guard.hpp"
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

double from_bits(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

/// The NaN this CPU's arithmetic generates (Inf − Inf), read at run time so
/// the compiler cannot fold in a different one.
double generated_nan() {
  const volatile double inf = std::numeric_limits<double>::infinity();
  return inf - inf;
}

/// Values a corrupted checkpoint puts into the kernels: NaN, ±Inf, ±0 and
/// subnormals. The NaN is the generated one, so every NaN a kernel meets or
/// makes has the same bits: which of two payloads survives one FMA or add
/// is the compiler's choice of operand order (docs/KERNELS.md), not part of
/// the contract.
const std::vector<double>& special_values() {
  static const std::vector<double> kSpecials = {
      generated_nan(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -3 * std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 3,
  };
  return kSpecials;
}

/// Overwrite about `rate` of `t` with special values.
void sprinkle_specials(Tensor& t, Rng& rng, double rate = 0.2) {
  const std::vector<double>& sp = special_values();
  for (auto& v : t.vec())
    if (rng.uniform() < rate)
      v = sp[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(sp.size()) - 1))];
}

std::uint64_t to_bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

/// Bitwise equality, naming the first element that differs.
void expect_bitwise(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.numel(); ++i) {
    if (to_bits(a[i]) != to_bits(b[i])) {
      ADD_FAILURE() << "element " << i << " of " << a.numel() << ": bits "
                    << std::hex << to_bits(a[i]) << " vs " << to_bits(b[i]);
      return;
    }
  }
}

void expect_rel_close(const Tensor& a, const Tensor& b, double tol = 1e-12) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.numel(); ++i) {
    const double denom = std::max({std::abs(a[i]), std::abs(b[i]), 1.0});
    EXPECT_LE(std::abs(a[i] - b[i]), tol * denom) << "i=" << i;
  }
}

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

// Specials in A, B and the accumulated C: the vector tile must skip exactly
// the scalar lanes' ±0 A values (so fma(0, Inf) and fma(0, NaN) never run and
// a −0 accumulator keeps its sign) and carry NaN payloads, infinities and
// subnormals through the same FMA chains.
TEST_P(SimdGemmEquivalence, MatmulSpecialsScalarVectorBitwise) {
  const auto [m, k, n] = GetParam();
  Rng rng(939 + m + k + n);
  Tensor a = random_tensor({m, k}, rng);
  Tensor b = random_tensor({k, n}, rng);
  Tensor base = random_tensor({m, n}, rng);
  sprinkle_specials(a, rng);
  sprinkle_specials(b, rng);
  sprinkle_specials(base, rng);
  Tensor vec, sc;
  simd::matmul(a, b, vec);
  {
    IsaGuard guard(SimdIsa::kScalar);
    simd::matmul(a, b, sc);
  }
  expect_bitwise(sc, vec);
  Tensor av = base, as = base;
  simd::matmul(a, b, av, /*accumulate=*/true);
  {
    IsaGuard guard(SimdIsa::kScalar);
    simd::matmul(a, b, as, /*accumulate=*/true);
  }
  expect_bitwise(as, av);
}

TEST_P(SimdGemmEquivalence, MatmulAtSpecialsScalarVectorBitwise) {
  const auto [m, k, n] = GetParam();
  Rng rng(949 + m + k + n);
  Tensor a = random_tensor({k, m}, rng);
  Tensor b = random_tensor({k, n}, rng);
  sprinkle_specials(a, rng);
  sprinkle_specials(b, rng);
  Tensor vec, sc;
  simd::matmul_at(a, b, vec);
  {
    IsaGuard guard(SimdIsa::kScalar);
    simd::matmul_at(a, b, sc);
  }
  expect_bitwise(sc, vec);
}

TEST_P(SimdGemmEquivalence, MatmulBtSpecialsScalarVectorBitwise) {
  const auto [m, k, n] = GetParam();
  Rng rng(959 + m + k + n);
  Tensor a = random_tensor({m, n}, rng);
  Tensor b = random_tensor({k, n}, rng);
  sprinkle_specials(a, rng);
  sprinkle_specials(b, rng);
  Tensor vec, sc;
  simd::matmul_bt(a, b, vec);
  {
    IsaGuard guard(SimdIsa::kScalar);
    simd::matmul_bt(a, b, sc);
  }
  expect_bitwise(sc, vec);
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
                      GemmShape{5, 4, 0},       // empty n
                      GemmShape{4, 8, 8},       // exactly one 4x8 tile
                      GemmShape{5, 13, 9},      // tile + 1-row, 1-column tails
                      GemmShape{9, 33, 15},     // 2 row groups + 7-column tail
                      GemmShape{4, 3, 15}));    // 1 row group, 8 + 7 columns

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

// Specials in x, W, the bias and dy: forward rides the broadcast tile over
// W·col, backward the transposed tile (dcol = Wᵀ·dy), the dot lanes (dw)
// and col2im — scalar ≡ vector bitwise through all of them.
TEST_P(SimdConvEquivalence, ForwardSpecialsScalarVectorBitwise) {
  const ConvShape s = GetParam();
  Rng rng(969 + s.h * 7 + s.kernel);
  Tensor x = random_tensor({s.n, s.ci, s.h, s.w}, rng);
  Tensor w = random_tensor({s.co, s.ci, s.kernel, s.kernel}, rng);
  Tensor b = random_tensor({s.co}, rng);
  sprinkle_specials(x, rng);
  sprinkle_specials(w, rng);
  sprinkle_specials(b, rng);
  const ConvSpec spec{s.kernel, s.stride, s.pad};
  Tensor vec, sc;
  simd::conv2d_forward(x, w, b, spec, vec);
  {
    IsaGuard guard(SimdIsa::kScalar);
    simd::conv2d_forward(x, w, b, spec, sc);
  }
  expect_bitwise(sc, vec);
}

TEST_P(SimdConvEquivalence, BackwardSpecialsScalarVectorBitwise) {
  const ConvShape s = GetParam();
  Rng rng(979 + s.h * 7 + s.kernel);
  Tensor x = random_tensor({s.n, s.ci, s.h, s.w}, rng);
  Tensor w = random_tensor({s.co, s.ci, s.kernel, s.kernel}, rng);
  const ConvSpec spec{s.kernel, s.stride, s.pad};
  const std::size_t ho = spec.out_extent(s.h), wo = spec.out_extent(s.w);
  Tensor dy = random_tensor({s.n, s.co, ho, wo}, rng);
  sprinkle_specials(x, rng);
  sprinkle_specials(w, rng);
  sprinkle_specials(dy, rng);
  Tensor dxv(x.shape()), dwv(w.shape()), dbv({s.co});
  Tensor dxs(x.shape()), dws(w.shape()), dbs({s.co});
  simd::conv2d_backward(x, w, spec, dy, dxv, dwv, dbv);
  {
    IsaGuard guard(SimdIsa::kScalar);
    simd::conv2d_backward(x, w, spec, dy, dxs, dws, dbs);
  }
  {
    SCOPED_TRACE("dx");
    expect_bitwise(dxs, dxv);
  }
  {
    SCOPED_TRACE("dw");
    expect_bitwise(dws, dwv);
  }
  {
    SCOPED_TRACE("db");
    expect_bitwise(dbs, dbv);
  }
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
        ConvShape{2, 4, 16, 16, 8, 3, 1, 1},    // big enough for pool path
        ConvShape{2, 3, 32, 32, 8, 3, 1, 1},    // alexnet conv1: banded col
        ConvShape{2, 6, 8, 8, 5, 1, 1, 0},      // 1x1, resnet bottleneck
        ConvShape{1, 4, 9, 9, 6, 1, 2, 0}));    // 1x1, stride 2: gathers

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

TEST_P(GemmEquivalence, MatmulSpecialsBitwise) {
  const auto [m, k, n] = GetParam();
  Rng rng(404 + m + k + n);
  Tensor a = random_tensor({m, k}, rng);
  Tensor b = random_tensor({k, n}, rng);
  Tensor base = random_tensor({m, n}, rng);
  sprinkle_specials(a, rng);
  sprinkle_specials(b, rng);
  sprinkle_specials(base, rng);
  for_each_precision([&](GemmPrecision p) {
    const auto kernel = p == GemmPrecision::kFp16 ? fp16::matmul : simd::matmul;
    Tensor expect, c;
    kernel(a, b, expect, false);
    matmul(a, b, c);
    expect_bitwise(c, expect);
    Tensor expect_acc = base, acc = base;
    kernel(a, b, expect_acc, true);
    matmul(a, b, acc, /*accumulate=*/true);
    expect_bitwise(acc, expect_acc);
  });
}

TEST_P(GemmEquivalence, MatmulAtSpecialsBitwise) {
  const auto [m, k, n] = GetParam();
  Rng rng(505 + m + k + n);
  Tensor a = random_tensor({k, m}, rng);
  Tensor b = random_tensor({k, n}, rng);
  sprinkle_specials(a, rng);
  sprinkle_specials(b, rng);
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
                      GemmShape{5, 4, 0},       // empty n
                      GemmShape{4, 8, 8},       // exactly one 4x8 tile
                      GemmShape{5, 13, 9},      // tile + 1-row, 1-column tails
                      GemmShape{9, 33, 15}));   // 2 row groups + 7-column tail

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
// Element selects: ReLU, the Residual join and max-pool do no arithmetic but
// the join's one add, so the vector lanes and the scalar lanes must give the
// same bits as a direct statement of each rule. Inputs carry about 20 %
// specials — NaNs with two payloads, ±Inf, subnormals — and draw most
// other values from a small set, so ties and ±0 pairs are common.

Tensor select_input(Shape shape, Rng& rng) {
  Tensor t(std::move(shape));
  const double ties[] = {-2.0, -1.0, -0.0, 0.0, 1.0, 2.0};
  for (auto& v : t.vec()) {
    const double u = rng.uniform();
    if (u < 0.05) {
      v = from_bits(0x7FF8000000000001ull);
    } else if (u < 0.10) {
      v = from_bits(0xFFF80000000000A5ull);
    } else if (u < 0.13) {
      v = std::numeric_limits<double>::infinity();
    } else if (u < 0.16) {
      v = -std::numeric_limits<double>::infinity();
    } else if (u < 0.20) {
      v = (u < 0.18 ? 1 : -1) * std::numeric_limits<double>::denorm_min();
    } else if (u < 0.60) {
      v = ties[rng.uniform_int(0, 5)];
    } else {
      v = rng.normal();
    }
  }
  return t;
}

/// relu's rule: keep v where v > 0 or v is NaN, else +0.
bool relu_keeps(double v) { return v > 0.0 || std::isnan(v); }

/// Max-pool's rule, stated directly: scan each window in (ky, kx) order; the
/// first NaN wins, else the first strict maximum; a window with no tap in the
/// map yields 0 at offset 0.
void maxpool_rule(const Tensor& x, const ConvSpec& spec, Tensor& y,
                  std::vector<std::size_t>& argmax) {
  const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::size_t ho = spec.out_extent(h), wo = spec.out_extent(w);
  y = Tensor({n, c, ho, wo});
  argmax.assign(y.numel(), 0);
  std::size_t out = 0;
  for (std::size_t map = 0; map < n * c; ++map) {
    for (std::size_t oy = 0; oy < ho; ++oy) {
      for (std::size_t ox = 0; ox < wo; ++ox, ++out) {
        bool found = false;
        double best = 0.0;
        std::size_t off = 0;
        for (std::size_t ky = 0; ky < spec.kernel; ++ky) {
          for (std::size_t kx = 0; kx < spec.kernel; ++kx) {
            const long iy = static_cast<long>(oy * spec.stride + ky) -
                            static_cast<long>(spec.pad);
            const long ix = static_cast<long>(ox * spec.stride + kx) -
                            static_cast<long>(spec.pad);
            if (iy < 0 || ix < 0 || iy >= static_cast<long>(h) ||
                ix >= static_cast<long>(w))
              continue;
            const std::size_t o = static_cast<std::size_t>(iy) * w +
                                  static_cast<std::size_t>(ix);
            const double v = x[map * h * w + o];
            if (found && std::isnan(best)) continue;
            if (!found || std::isnan(v) || v > best) {
              best = v;
              off = o;
              found = true;
            }
          }
        }
        y[out] = best;
        argmax[out] = map * h * w + off;
      }
    }
  }
}

/// Runs `check` on the vector ISA and on the scalar lanes.
template <typename Check>
void for_each_isa(const Check& check) {
  {
    SCOPED_TRACE(simd_isa_name());
    check();
  }
  IsaGuard guard(SimdIsa::kScalar);
  SCOPED_TRACE(simd_isa_name());
  check();
}

TEST(SelectKernels, MaxPoolFollowsTheRuleBitwise) {
  struct Case {
    Shape shape;
    ConvSpec spec;
  };
  const Case cases[] = {
      {{2, 3, 8, 8}, {2, 2, 0}},     // the models' pool: vector path only
      {{2, 3, 9, 11}, {2, 2, 0}},    // odd extents: 4-wide steps + column tail
      {{1, 2, 7, 9}, {3, 2, 1}},     // padded windows
      {{1, 2, 6, 6}, {3, 1, 0}},     // overlapping windows
      {{1, 1, 3, 3}, {2, 2, 1}}};    // corner windows with one tap
  Rng rng(1201);
  for (const Case& c : cases) {
    const Tensor x = select_input(c.shape, rng);
    Tensor ref;
    std::vector<std::size_t> ref_argmax;
    maxpool_rule(x, c.spec, ref, ref_argmax);
    for_each_isa([&] {
      Tensor y, ye;
      std::vector<std::size_t> argmax;
      maxpool2d_forward(x, c.spec, y, &argmax);
      expect_bitwise(y, ref);
      EXPECT_EQ(argmax, ref_argmax);
      maxpool2d_forward(x, c.spec, ye, nullptr);  // eval: no argmax
      expect_bitwise(ye, ref);
    });
  }
}

TEST(SelectKernels, MaxPoolPinsNanPayloadTiesAndSignedZeros) {
  const double nan1 = from_bits(0x7FF8000000000001ull);
  const double nan2 = from_bits(0xFFF80000000000A5ull);
  const double inf = std::numeric_limits<double>::infinity();
  // Four 2x2 windows; window q scans row0[2q], row0[2q+1], row1[2q],
  // row1[2q+1].
  Tensor x({1, 1, 2, 8});
  x.vec() = {1.0, nan1, 3.0, 7.0, -0.0, 0.0,  0.0,  -0.0,   // row 0
             nan2, 5.0, 7.0, 2.0, -1.0, -0.0, -inf, -1.0};  // row 1
  for_each_isa([&] {
    Tensor y;
    std::vector<std::size_t> argmax;
    maxpool2d_forward(x, ConvSpec{2, 2, 0}, y, &argmax);
    EXPECT_EQ(to_bits(y[0]), to_bits(nan1));  // first NaN in scan order
    EXPECT_EQ(argmax[0], 1u);
    EXPECT_EQ(to_bits(y[1]), to_bits(7.0));  // first of equal maxima
    EXPECT_EQ(argmax[1], 3u);
    EXPECT_EQ(to_bits(y[2]), to_bits(-0.0));  // -0 seen first beats +0
    EXPECT_EQ(argmax[2], 4u);
    EXPECT_EQ(to_bits(y[3]), to_bits(0.0));  // +0 seen first beats -0
    EXPECT_EQ(argmax[3], 6u);
  });
}

TEST(SelectKernels, ReluAndJoinFollowTheRuleBitwise) {
  Rng rng(1301);
  // 3*5*7*11 = 1155 elements: 18 whole mask words and a partial one.
  const Tensor x = select_input({3, 5, 7, 11}, rng);
  Tensor s = select_input({3, 5, 7, 11}, rng);
  // One NaN per sum at most: of two NaN payloads, which one an add keeps is
  // the compiler's choice of operand order.
  for (std::size_t i = 0; i < s.numel(); ++i)
    if (std::isnan(x[i]) && std::isnan(s[i])) s[i] = 1.0;
  for_each_isa([&] {
    for (const bool join : {false, true}) {
      SCOPED_TRACE(join ? "join" : "relu");
      Tensor y = x, ye = x;
      BitMask mask;
      mask.reset(y.numel());
      if (join) {
        add_relu_forward(y, s, &mask);
        add_relu_forward(ye, s, nullptr);
      } else {
        relu_forward(y, &mask);
        relu_forward(ye, nullptr);
      }
      expect_bitwise(ye, y);
      for (std::size_t i = 0; i < x.numel(); ++i) {
        const double v = join ? x[i] + s[i] : x[i];
        const bool keep = relu_keeps(v);
        ASSERT_EQ(to_bits(y[i]), to_bits(keep ? v : 0.0)) << "i=" << i;
        ASSERT_EQ(mask.test(i), keep) << "i=" << i;
      }
      // Bits past size() stay clear.
      const std::size_t tail = x.numel() % BitMask::kWordBits;
      EXPECT_EQ(mask.words()[x.numel() / BitMask::kWordBits] >> tail, 0u);
      Tensor g = s;
      relu_backward(g, mask);
      for (std::size_t i = 0; i < g.numel(); ++i)
        ASSERT_EQ(to_bits(g[i]), to_bits(mask.test(i) ? s[i] : 0.0))
            << "i=" << i;
    }
  });
}

// ---------------------------------------------------------------------------
// Probe stats: every ISA must give the bits of a direct statement of the
// rule (ops.hpp). Counts and the max do not depend on order, but l2 does:
// summing these squares in any other order than one ascending chain, or
// fusing a square into its add, reads other bits.

/// The rule: NaN, Inf and ±0 counts; max |v| over finite v, from 0; l2 the
/// square root of v·v over finite v, added in ascending i from +0.
obs::TensorStats stats_rule(const std::vector<double>& x) {
  obs::TensorStats s;
  s.numel = x.size();
  double sum = 0.0;
  for (const double v : x) {
    if (std::isnan(v)) {
      ++s.nan_count;
    } else if (std::isinf(v)) {
      ++s.inf_count;
    } else {
      if (v == 0.0) ++s.zero_count;
      s.max_abs = std::max(s.max_abs, std::fabs(v));
      sum += v * v;
    }
  }
  s.l2 = std::sqrt(sum);
  return s;
}

enum class StatsShape { kSpecials, kFinite, kDense, kRelu, kPoolGrad };

/// `n` inputs of one shape, standard normals but for: kSpecials mixes in
/// NaNs of both signs and four payloads, ±Inf, ±0, subnormals, and values
/// whose square underflows to 0 or overflows to Inf; kFinite the same less
/// the non-finite ones, so its l2 stays finite. kRelu is half ±0 and half
/// positive, kPoolGrad three quarters ±0.
std::vector<double> stats_input(StatsShape shape, std::size_t n, Rng& rng) {
  const double inf = std::numeric_limits<double>::infinity();
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double specials[] = {
      from_bits(0x7FF8000000000001ull), from_bits(0xFFF80000000000A5ull),
      from_bits(0x7FF0000000000F00ull), from_bits(0xFFF4000000000000ull),
      inf,    -inf,   1e200,  -3e180,  // squares overflow
      0.0,    -0.0,   tiny,   -5 * tiny,
      std::numeric_limits<double>::min() / 3,
      1e-200, -2e-170,  // squares underflow to +0
      1e-160,           // square subnormal
  };
  const double finite[] = {0.0,    -0.0,    tiny,   -5 * tiny,
                           std::numeric_limits<double>::min() / 3,
                           1e-200, -2e-170, 1e-160};
  const auto pick = [&rng](const auto& values) {
    return values[rng.uniform_int(
        0, static_cast<std::int64_t>(std::size(values)) - 1)];
  };
  std::vector<double> x(n);
  for (double& v : x) {
    const double u = rng.uniform();
    const double normal = rng.normal();
    switch (shape) {
      case StatsShape::kSpecials:
        v = u < 0.3 ? pick(specials) : normal;
        break;
      case StatsShape::kFinite:
        v = u < 0.3 ? pick(finite) : normal;
        break;
      case StatsShape::kDense:
        v = normal;
        break;
      case StatsShape::kRelu:
        v = u < 0.5 ? (u < 0.25 ? 0.0 : -0.0) : std::fabs(normal);
        break;
      case StatsShape::kPoolGrad:
        v = u < 0.75 ? (u < 0.5 ? 0.0 : -0.0) : normal;
        break;
    }
  }
  return x;
}

void expect_same_stats(const obs::TensorStats& got,
                       const obs::TensorStats& want) {
  EXPECT_EQ(got.numel, want.numel);
  EXPECT_EQ(got.nan_count, want.nan_count);
  EXPECT_EQ(got.inf_count, want.inf_count);
  EXPECT_EQ(got.zero_count, want.zero_count);
  EXPECT_EQ(to_bits(got.max_abs), to_bits(want.max_abs));
  EXPECT_EQ(to_bits(got.l2), to_bits(want.l2))
      << got.l2 << " vs " << want.l2;
}

// 255, 256 and 257 sit one below, at and one above the AVX2 lane's
// 256-element packing block; 1155 ends in a partial block and a 3-element
// tail.
const std::size_t kStatsLengths[] = {
    0, 1, 3, 4, 5, 255, 256, 257, 1155, std::size_t{1} << 17};

TEST(SimdStatsEquivalence, EveryShapeAndLengthFollowsTheRuleBitwise) {
  const std::pair<StatsShape, const char*> shapes[] = {
      {StatsShape::kSpecials, "specials"}, {StatsShape::kFinite, "finite"},
      {StatsShape::kDense, "dense"},       {StatsShape::kRelu, "relu"},
      {StatsShape::kPoolGrad, "pool_grad"}};
  Rng rng(1401);
  for (const auto& [shape, name] : shapes) {
    for (const std::size_t n : kStatsLengths) {
      SCOPED_TRACE(std::string(name) + " n=" + std::to_string(n));
      const std::vector<double> x = stats_input(shape, n, rng);
      const obs::TensorStats want = stats_rule(x);
      for_each_isa(
          [&] { expect_same_stats(tensor_stats(x.data(), n), want); });
    }
  }
}

TEST(SimdStatsEquivalence, ReadsOnlyItsRange) {
  // Every offset into an aligned buffer, with NaNs on both sides of the
  // range: a lane that read past either end would count them.
  Rng rng(1402);
  std::vector<double> buf = stats_input(StatsShape::kFinite, 64, rng);
  for (std::size_t i = 0; i < 8; ++i)
    buf[i] = buf[buf.size() - 1 - i] = generated_nan();
  for (std::size_t off = 8; off < 12; ++off) {
    for (std::size_t n = 0; off + n + 8 <= buf.size(); ++n) {
      SCOPED_TRACE("off=" + std::to_string(off) + " n=" + std::to_string(n));
      const std::vector<double> x(buf.begin() + off, buf.begin() + off + n);
      const obs::TensorStats want = stats_rule(x);
      for_each_isa(
          [&] { expect_same_stats(tensor_stats(buf.data() + off, n), want); });
    }
  }
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
