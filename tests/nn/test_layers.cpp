#include "nn/layers.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "nn/sequential.hpp"
#include "util/common.hpp"

namespace ckptfi::nn {
namespace {

TEST(Conv2DLayer, ShapesAndParams) {
  Conv2D conv("conv1", 3, 8, 3, 1, 1);
  Rng rng(1);
  conv.init_params(rng);
  Tensor x({2, 3, 8, 8});
  const Tensor y = conv.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{2, 8, 8, 8}));

  std::vector<ParamRef> params;
  conv.collect_params(params);
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0].name, "conv1/W");
  EXPECT_EQ(params[0].value->shape(), (Shape{8, 3, 3, 3}));
  EXPECT_EQ(params[1].name, "conv1/b");
  EXPECT_TRUE(params[0].trainable);
}

TEST(Conv2DLayer, StrideReducesSpatial) {
  Conv2D conv("c", 2, 4, 3, 2, 1);
  Rng rng(2);
  conv.init_params(rng);
  Tensor x({1, 2, 8, 8});
  EXPECT_EQ(conv.forward(x, true).shape(), (Shape{1, 4, 4, 4}));
}

TEST(Conv2DLayer, HeInitScalesWithFanIn) {
  Conv2D narrow("n", 1, 4, 3, 1, 1), wide("w", 64, 4, 3, 1, 1);
  Rng r1(3), r2(3);
  narrow.init_params(r1);
  wide.init_params(r2);
  auto spread = [](const Tensor& t) {
    double sq = 0;
    for (double v : t.vec()) sq += v * v;
    return std::sqrt(sq / static_cast<double>(t.numel()));
  };
  EXPECT_GT(spread(narrow.weight()), 3 * spread(wide.weight()));
}

TEST(DenseLayer, ForwardMatchesManual) {
  Dense fc("fc", 2, 3);
  std::vector<ParamRef> params;
  fc.collect_params(params);
  // W [in=2, out=3], b [3]
  params[0].value->vec() = {1, 2, 3, 4, 5, 6};
  params[1].value->vec() = {10, 20, 30};
  Tensor x({1, 2});
  x[0] = 1;
  x[1] = 2;
  const Tensor y = fc.forward(x, true);
  EXPECT_DOUBLE_EQ(y[0], 1 * 1 + 2 * 4 + 10);
  EXPECT_DOUBLE_EQ(y[1], 1 * 2 + 2 * 5 + 20);
  EXPECT_DOUBLE_EQ(y[2], 1 * 3 + 2 * 6 + 30);
}

TEST(DenseLayer, BadInputShapeThrows) {
  Dense fc("fc", 4, 2);
  Tensor x({1, 3});
  EXPECT_THROW(fc.forward(x, true), InvalidArgument);
}

TEST(ReLULayer, ForwardZeroesNegatives) {
  ReLU relu("r");
  Tensor x = Tensor::from({-1, 0, 2, -3});
  const Tensor y = relu.forward(x.reshaped({1, 4}), true);
  EXPECT_DOUBLE_EQ(y[0], 0);
  EXPECT_DOUBLE_EQ(y[1], 0);
  EXPECT_DOUBLE_EQ(y[2], 2);
  EXPECT_DOUBLE_EQ(y[3], 0);
}

TEST(ReLULayer, BackwardMasks) {
  ReLU relu("r");
  Tensor x = Tensor::from({-1, 2, 3, -4}).reshaped({1, 4});
  relu.forward(x, true);
  Tensor dy = Tensor::from({10, 10, 10, 10}).reshaped({1, 4});
  const Tensor dx = relu.backward(dy);
  EXPECT_DOUBLE_EQ(dx[0], 0);
  EXPECT_DOUBLE_EQ(dx[1], 10);
  EXPECT_DOUBLE_EQ(dx[2], 10);
  EXPECT_DOUBLE_EQ(dx[3], 0);
}

TEST(ReLULayer, PropagatesNaN) {
  ReLU relu("r");
  Tensor x({1, 2});
  x[0] = std::nan("");
  x[1] = -1;
  const Tensor y = relu.forward(x, true);
  EXPECT_TRUE(std::isnan(y[0]));
  EXPECT_DOUBLE_EQ(y[1], 0.0);
}

TEST(FlattenLayer, RoundTrips) {
  Flatten fl("f");
  Tensor x({2, 3, 4, 5});
  const Tensor y = fl.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{2, 60}));
  const Tensor dx = fl.backward(y);
  EXPECT_EQ(dx.shape(), x.shape());
}

TEST(BatchNormLayer, NormalisesBatchStatistics) {
  BatchNorm2D bn("bn", 2);
  Rng rng(5);
  bn.init_params(rng);
  Tensor x({4, 2, 3, 3});
  Rng data_rng(6);
  for (auto& v : x.vec()) v = data_rng.normal(5.0, 2.0);
  const Tensor y = bn.forward(x, /*training=*/true);
  // Per-channel mean ~0 and variance ~1 after normalisation.
  const std::size_t hw = 9;
  for (std::size_t c = 0; c < 2; ++c) {
    double sum = 0, sq = 0;
    std::size_t count = 0;
    for (std::size_t n = 0; n < 4; ++n) {
      for (std::size_t i = 0; i < hw; ++i) {
        const double v = y[(n * 2 + c) * hw + i];
        sum += v;
        sq += v * v;
        ++count;
      }
    }
    const double m = sum / static_cast<double>(count);
    EXPECT_NEAR(m, 0.0, 1e-10);
    EXPECT_NEAR(sq / static_cast<double>(count) - m * m, 1.0, 1e-3);
  }
}

TEST(BatchNormLayer, EvalUsesRunningStats) {
  BatchNorm2D bn("bn", 1);
  Rng rng(7);
  bn.init_params(rng);
  // Before any training step, running stats are (0, 1): eval is identity.
  Tensor x({1, 1, 2, 2});
  x.vec() = {1, 2, 3, 4};
  const Tensor y = bn.forward(x, /*training=*/false);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_NEAR(y[i], x[i], 1e-4);
}

TEST(BatchNormLayer, RunningStatsUpdateInTraining) {
  BatchNorm2D bn("bn", 1, /*momentum=*/0.0);  // running = batch exactly
  Rng rng(8);
  bn.init_params(rng);
  Tensor x({2, 1, 1, 2});
  x.vec() = {2, 4, 6, 8};  // mean 5, var 5
  bn.forward(x, true);
  std::vector<ParamRef> params;
  bn.collect_params(params);
  ASSERT_EQ(params.size(), 4u);
  EXPECT_EQ(params[2].name, "bn/running_mean");
  EXPECT_FALSE(params[2].trainable);
  EXPECT_NEAR((*params[2].value)[0], 5.0, 1e-12);
  EXPECT_NEAR((*params[3].value)[0], 5.0, 1e-12);
}

TEST(BatchNormLayer, ParamNames) {
  BatchNorm2D bn("stage1_block1_bn1", 4);
  std::vector<ParamRef> params;
  bn.collect_params(params);
  EXPECT_EQ(params[0].name, "stage1_block1_bn1/gamma");
  EXPECT_EQ(params[1].name, "stage1_block1_bn1/beta");
  EXPECT_EQ(params[3].name, "stage1_block1_bn1/running_var");
}

TEST(MaxPoolLayer, ForwardBackwardShapes) {
  MaxPool2D pool("p", 2, 2);
  Tensor x({1, 2, 4, 4});
  for (std::size_t i = 0; i < x.numel(); ++i) x[i] = static_cast<double>(i);
  const Tensor y = pool.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{1, 2, 2, 2}));
  const Tensor dx = pool.backward(Tensor(y.shape(), 1.0));
  EXPECT_EQ(dx.shape(), x.shape());
}

TEST(GlobalAvgPoolLayer, Shapes) {
  GlobalAvgPool gap("g");
  Tensor x({3, 5, 4, 4}, 2.0);
  const Tensor y = gap.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{3, 5}));
  EXPECT_DOUBLE_EQ(y[0], 2.0);
  const Tensor dx = gap.backward(Tensor({3, 5}, 16.0));
  EXPECT_EQ(dx.shape(), x.shape());
  EXPECT_DOUBLE_EQ(dx[0], 1.0);
}

// --- eval forwards -----------------------------------------------------------
//
// An eval forward (training == false) computes the same bits as a training
// forward but keeps no backward state: a backward after it refuses instead
// of reading a stale cache.

std::uint64_t bits_of(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

double from_bits(std::uint64_t b) {
  double v;
  std::memcpy(&v, &b, sizeof v);
  return v;
}

void expect_same_bits(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.numel(); ++i)
    ASSERT_EQ(bits_of(a[i]), bits_of(b[i])) << "i=" << i;
}

/// Normal values with about 20 % specials: NaNs with two payloads, ±Inf,
/// ±0 and subnormals.
Tensor input_with_specials(Shape shape, std::uint64_t seed) {
  Rng rng(seed);
  const double specials[] = {from_bits(0x7FF8000000000001ull),
                             from_bits(0xFFF80000000000A5ull),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             0.0,
                             -0.0,
                             std::numeric_limits<double>::denorm_min()};
  Tensor t(std::move(shape));
  for (auto& v : t.vec())
    v = rng.uniform() < 0.2 ? specials[rng.uniform_int(0, 6)] : rng.normal();
  return t;
}

struct EvalCase {
  const char* name;
  std::function<std::unique_ptr<Layer>()> make;
  Shape x_shape;
};

std::vector<EvalCase> eval_cases() {
  return {
      {"Conv2D",
       [] {
         auto l = std::make_unique<Conv2D>("conv", 3, 5, 3, 1, 1);
         Rng rng(11);
         l->init_params(rng);
         return std::unique_ptr<Layer>(std::move(l));
       },
       {2, 3, 9, 9}},
      {"Dense",
       [] {
         auto l = std::make_unique<Dense>("fc", 12, 7);
         Rng rng(12);
         l->init_params(rng);
         return std::unique_ptr<Layer>(std::move(l));
       },
       {4, 12}},
      {"ReLU", [] { return std::unique_ptr<Layer>(new ReLU("relu")); },
       {2, 3, 9, 9}},
      {"MaxPool2D",
       [] { return std::unique_ptr<Layer>(new MaxPool2D("pool", 2, 2)); },
       {2, 3, 9, 9}},
      {"BatchNorm2D",
       [] {
         auto l = std::make_unique<BatchNorm2D>("bn", 3);
         Rng rng(13);
         l->init_params(rng);
         return std::unique_ptr<Layer>(std::move(l));
       },
       {2, 3, 4, 4}},
      {"Residual",
       [] {
         auto main = std::make_unique<Sequential>("main");
         main->emplace<Conv2D>("conv", 3, 3, 3, 1, 1);
         Rng rng(14);
         main->init_params(rng);
         return std::unique_ptr<Layer>(new Residual("res", std::move(main)));
       },
       {2, 3, 6, 6}},
  };
}

TEST(EvalForward, SameBitsAsTrainingForward) {
  for (const EvalCase& c : eval_cases()) {
    // BatchNorm's eval forward reads running statistics, not the batch's.
    if (std::string(c.name) == "BatchNorm2D") continue;
    SCOPED_TRACE(c.name);
    const Tensor x = input_with_specials(c.x_shape, 21);
    auto train = c.make();
    auto eval = c.make();
    const Tensor yt = train->forward(x, /*training=*/true);
    const Tensor ye = eval->forward(x, /*training=*/false);
    expect_same_bits(yt, ye);
  }
}

TEST(EvalForward, BackwardAfterItRefuses) {
  for (const EvalCase& c : eval_cases()) {
    SCOPED_TRACE(c.name);
    const Tensor x = input_with_specials(c.x_shape, 22);
    auto layer = c.make();
    const Tensor y = layer->forward(x, /*training=*/false);
    const Tensor dy(y.shape(), 1.0);
    EXPECT_THROW(layer->backward(dy), InvalidArgument);
    // A training forward arms backward; a later eval forward disarms it.
    layer->forward(x, /*training=*/true);
    EXPECT_NO_THROW(layer->backward(dy));
    layer->forward(x, /*training=*/false);
    EXPECT_THROW(layer->backward(dy), InvalidArgument);
  }
}

TEST(ReLULayer, MapsNegativeZeroToPlusZeroKeepsNanPayloadsAndMasks) {
  const double nan1 = from_bits(0x7FF8000000000001ull);
  const double nan2 = from_bits(0xFFF80000000000A5ull);
  Tensor x({1, 8});
  x.vec() = {-0.0, 0.0, nan1, nan2, -1.5, 2.5,
             std::numeric_limits<double>::denorm_min(),
             -std::numeric_limits<double>::infinity()};
  ReLU relu("r");
  const Tensor y = relu.forward(x, /*training=*/true);
  const double expect[] = {0.0, 0.0, nan1, nan2, 0.0, 2.5,
                           std::numeric_limits<double>::denorm_min(), 0.0};
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_EQ(bits_of(y[i]), bits_of(expect[i])) << "i=" << i;
  // The train-mode mask, read through backward: dx keeps dy where relu kept
  // v (mask bit 1) and is +0 elsewhere.
  const int kept[] = {0, 0, 1, 1, 0, 1, 1, 0};
  const Tensor dx = relu.backward(Tensor({1, 8}, -3.0));
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_EQ(bits_of(dx[i]), bits_of(kept[i] ? -3.0 : 0.0)) << "i=" << i;
}

/// Returns a fixed tensor whatever its input: lets a test choose the main
/// branch of a Residual join exactly.
class Fixed : public Layer {
 public:
  explicit Fixed(Tensor out) : Layer("fixed"), out_(std::move(out)) {}
  Tensor forward(const Tensor&, bool) override { return out_; }
  Tensor backward(const Tensor& dy) override { return dy; }

 private:
  Tensor out_;
};

TEST(ResidualLayer, JoinMapsNegativeZeroToPlusZeroAndKeepsNanPayloads) {
  const double nan1 = from_bits(0x7FF8000000000001ull);
  const double nan2 = from_bits(0xFFF80000000000A5ull);
  Tensor main({1, 1, 1, 6});
  main.vec() = {-0.0, 1.0, nan1, 2.0, -1.0, 4.0};
  Tensor x({1, 1, 1, 6});
  x.vec() = {-0.0, -1.0, 3.0, nan2, 0.5, -0.0};
  Residual res("res", std::make_unique<Fixed>(main));
  const Tensor y = res.forward(x, /*training=*/true);
  // -0 + -0 = -0 -> +0; 1 + -1 = +0; a NaN from either branch keeps its
  // payload.
  const double expect[] = {0.0, 0.0, nan1, nan2, 0.0, 4.0};
  for (std::size_t i = 0; i < 6; ++i)
    EXPECT_EQ(bits_of(y[i]), bits_of(expect[i])) << "i=" << i;
  expect_same_bits(res.forward(x, /*training=*/false), y);
  // The join's train-mode mask, read through backward: both branches pass
  // the masked gradient back, so dx is 2 * dy where the join kept its sum
  // and +0 elsewhere.
  res.forward(x, /*training=*/true);
  const int kept[] = {0, 0, 1, 1, 0, 1};
  const Tensor dx = res.backward(Tensor({1, 1, 1, 6}, -3.0));
  for (std::size_t i = 0; i < 6; ++i)
    EXPECT_EQ(bits_of(dx[i]), bits_of(kept[i] ? -6.0 : 0.0)) << "i=" << i;
}

}  // namespace
}  // namespace ckptfi::nn
