// Microbenchmarks of the compute kernels.
//
// Every benchmark comes in a pair (see docs/KERNELS.md): the direct-loop
// reference kernels the tests check the simd tier against
// (tests/support/ops_naive.hpp, called directly), and the simd tier through
// the dispatched entry points exactly as the library runs it. Shapes cover
// the sizes the paper's models actually run — LeNet/AlexNet-scale conv
// blocks and classifier GEMMs — plus tiny shapes. A rectangular GEMM sweep
// (MLP / LeNet / ResNet-ish conv-as-GEMM panels) times both on the shapes
// behind the EXPERIMENTS.md simd-speedup table, and an fp16 phase times the
// mixed-precision GEMM path (fp16 storage panels, fp32 accumulate) on the
// same shapes.
//
// Per-layer cases time the eval forward of each conv layer bench/perf's
// predict_full runs, a resnet50 1x1 conv, and the ReLU and max-pool after
// conv1, in GFLOP/s or GB/s; the probed-training cases time the probes'
// tensor stats and relu backward in GB/s.
//
// Each benchmark also reports the kernel obs instrumentation it moved
// (kernels.gemm_time / kernels.im2col_time histograms, arena gauges) from
// one untimed probe run, so the counters never sit in the hot loop.
//
// Pass --json-out=PATH (stripped before Google Benchmark sees the args) to
// enable the metrics registry for the whole run and dump its snapshot as
// JSON at exit — the EXPERIMENTS.md speedup table comes from this binary.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/micro_common.hpp"
#include "nn/layers.hpp"
#include "nn/sequential.hpp"
#include "obs/obs.hpp"
#include "obs/probes.hpp"
#include "support/ops_naive.hpp"
#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"
#include "tensor/workspace.hpp"
#include "util/rng.hpp"

using namespace ckptfi;

namespace {

Tensor random_tensor(Shape shape, Rng& rng) {
  Tensor t(std::move(shape));
  for (auto& v : t.vec()) v = rng.normal();
  return t;
}

/// Publish the arena gauges after an untimed probe run of `fn`, so a
/// --json-out snapshot records the scratch footprint next to the timings.
template <typename Fn>
void probe_arena(benchmark::State& state, Fn&& fn) {
  const bool was_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  fn();
  Workspace& ws = Workspace::tls();
  state.counters["arena_bytes"] =
      benchmark::Counter(static_cast<double>(ws.bytes_reserved()));
  state.counters["arena_high_water"] =
      benchmark::Counter(static_cast<double>(ws.high_water()));
  obs::set_metrics_enabled(was_enabled);
}

/// Which side of a pair a benchmark times.
enum class Tier { kNaive, kSimd };

template <Tier T>
void run_matmul(const Tensor& a, const Tensor& b, Tensor& c) {
  if constexpr (T == Tier::kNaive) {
    naive::matmul(a, b, c);
  } else {
    matmul(a, b, c);
  }
}

// --------------------------------------------------------------------------
// GEMM: C[m,n] = A[m,k] * B[k,n]. Arg is the square size; 8 covers the
// tiny case, 256 the classifier layers.

template <Tier T>
void gemm_bench(benchmark::State& state) {
  const auto s = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const Tensor a = random_tensor({s, s}, rng);
  const Tensor b = random_tensor({s, s}, rng);
  Tensor c;
  for (auto _ : state) {
    run_matmul<T>(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * s * s * s));
}

void BM_GemmNaive(benchmark::State& state) { gemm_bench<Tier::kNaive>(state); }
BENCHMARK(BM_GemmNaive)->Arg(8)->Arg(64)->Arg(256);

void BM_GemmSimd(benchmark::State& state) { gemm_bench<Tier::kSimd>(state); }
BENCHMARK(BM_GemmSimd)->Arg(8)->Arg(64)->Arg(256);

// --------------------------------------------------------------------------
// Rectangular GEMM sweep over the shapes the repro's models actually hit,
// one benchmark per side per shape — the EXPERIMENTS.md simd-speedup table:
//   Arg 0: mlp    — [16,256]x[256,256], a Dense layer at bench width
//   Arg 1: lenet  — [16,400]x[400,120], LeNet's fc1 classifier GEMM
//   Arg 2: resnet — [64,576]x[576,196], a 3x3x64 conv block as W x col

struct GemmShape {
  std::size_t m, k, n;
};

GemmShape gemm_shape(std::int64_t idx) {
  static const GemmShape shapes[] = {
      {16, 256, 256}, {16, 400, 120}, {64, 576, 196}};
  return shapes[idx];
}

template <Tier T>
void gemm_sweep_bench(benchmark::State& state) {
  const GemmShape s = gemm_shape(state.range(0));
  Rng rng(7);
  const Tensor a = random_tensor({s.m, s.k}, rng);
  const Tensor b = random_tensor({s.k, s.n}, rng);
  Tensor c;
  for (auto _ : state) {
    run_matmul<T>(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * s.m * s.k * s.n));
}

void BM_GemmSweepNaive(benchmark::State& state) {
  gemm_sweep_bench<Tier::kNaive>(state);
}
BENCHMARK(BM_GemmSweepNaive)->Arg(0)->Arg(1)->Arg(2);

void BM_GemmSweepSimd(benchmark::State& state) {
  gemm_sweep_bench<Tier::kSimd>(state);
}
BENCHMARK(BM_GemmSweepSimd)->Arg(0)->Arg(1)->Arg(2);

// The mixed-precision GEMM path on the same sweep shapes: fp16 storage
// panels, fp32 FMA accumulate (MPGemmFI's shape), dispatched exactly as
// table7's fp16 compute mode runs it.
void BM_GemmSweepFp16(benchmark::State& state) {
  set_gemm_precision(GemmPrecision::kFp16);
  const GemmShape s = gemm_shape(state.range(0));
  Rng rng(7);
  const Tensor a = random_tensor({s.m, s.k}, rng);
  const Tensor b = random_tensor({s.k, s.n}, rng);
  Tensor c;
  for (auto _ : state) {
    matmul(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * s.m * s.k * s.n));
  set_gemm_precision(GemmPrecision::kFp64);
}
BENCHMARK(BM_GemmSweepFp16)->Arg(0)->Arg(1)->Arg(2);

// --------------------------------------------------------------------------
// Convolution forward/backward at three scales:
//   Arg 0: tiny   — 1x2x6x6,  co=2
//   Arg 1: lenet  — 8x6x16x16, co=16 (a LeNet-5-sized conv block)
//   Arg 2: alex   — 8x16x16x16, co=32 (AlexNet mid-block at bench width)

struct ConvCase {
  std::size_t n, ci, hw, co;
};

ConvCase conv_case(std::int64_t idx) {
  static const ConvCase cases[] = {
      {1, 2, 6, 2}, {8, 6, 16, 16}, {8, 16, 16, 32}};
  return cases[idx];
}

void conv_inputs(const ConvCase& c, Tensor& x, Tensor& w, Tensor& b) {
  Rng rng(2);
  x = random_tensor({c.n, c.ci, c.hw, c.hw}, rng);
  w = random_tensor({c.co, c.ci, 3, 3}, rng);
  b = random_tensor({c.co}, rng);
}

template <Tier T>
void conv_forward_bench(benchmark::State& state) {
  const ConvCase c = conv_case(state.range(0));
  Tensor x, w, b, y;
  conv_inputs(c, x, w, b);
  const ConvSpec spec{3, 1, 1};
  for (auto _ : state) {
    if constexpr (T == Tier::kNaive) {
      naive::conv2d_forward(x, w, b, spec, y);
    } else {
      conv2d_forward(x, w, b, spec, y);
    }
    benchmark::DoNotOptimize(y.data());
  }
  const std::size_t ho = spec.out_extent(c.hw);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(2 * c.n * c.co * ho * ho * c.ci * 9));
}

void BM_ConvForwardNaive(benchmark::State& state) {
  conv_forward_bench<Tier::kNaive>(state);
}
BENCHMARK(BM_ConvForwardNaive)->Arg(0)->Arg(1)->Arg(2);

void BM_ConvForwardSimd(benchmark::State& state) {
  conv_forward_bench<Tier::kSimd>(state);
  const ConvCase c = conv_case(state.range(0));
  Tensor x, w, b, y;
  conv_inputs(c, x, w, b);
  probe_arena(state,
              [&] { conv2d_forward(x, w, b, ConvSpec{3, 1, 1}, y); });
}
BENCHMARK(BM_ConvForwardSimd)->Arg(0)->Arg(1)->Arg(2);

template <Tier T>
void conv_backward_bench(benchmark::State& state) {
  const ConvCase c = conv_case(state.range(0));
  Tensor x, w, b;
  conv_inputs(c, x, w, b);
  const ConvSpec spec{3, 1, 1};
  const std::size_t ho = spec.out_extent(c.hw);
  Rng rng(3);
  const Tensor dy = random_tensor({c.n, c.co, ho, ho}, rng);
  Tensor dx(x.shape()), dw(w.shape()), db({c.co});
  for (auto _ : state) {
    if constexpr (T == Tier::kNaive) {
      naive::conv2d_backward(x, w, spec, dy, dx, dw, db);
    } else {
      conv2d_backward(x, w, spec, dy, dx, dw, db);
    }
    benchmark::DoNotOptimize(dx.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(2 * c.n * c.co * ho * ho * c.ci * 9));
}

void BM_ConvBackwardNaive(benchmark::State& state) {
  conv_backward_bench<Tier::kNaive>(state);
}
BENCHMARK(BM_ConvBackwardNaive)->Arg(0)->Arg(1)->Arg(2);

void BM_ConvBackwardSimd(benchmark::State& state) {
  conv_backward_bench<Tier::kSimd>(state);
}
BENCHMARK(BM_ConvBackwardSimd)->Arg(0)->Arg(1)->Arg(2);

// --------------------------------------------------------------------------
// The transposed GEMMs the backward pass leans on, at classifier-layer size.

void BM_GemmAtNaive(benchmark::State& state) {
  Rng rng(4);
  const Tensor a = random_tensor({256, 128}, rng);
  const Tensor b = random_tensor({256, 64}, rng);
  Tensor c;
  for (auto _ : state) {
    naive::matmul_at(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_GemmAtNaive);

void BM_GemmAtSimd(benchmark::State& state) {
  Rng rng(4);
  const Tensor a = random_tensor({256, 128}, rng);
  const Tensor b = random_tensor({256, 64}, rng);
  Tensor c;
  for (auto _ : state) {
    matmul_at(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_GemmAtSimd);

void BM_GemmBtNaive(benchmark::State& state) {
  Rng rng(5);
  const Tensor a = random_tensor({128, 64}, rng);
  const Tensor b = random_tensor({256, 64}, rng);
  Tensor c;
  for (auto _ : state) {
    naive::matmul_bt(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_GemmBtNaive);

void BM_GemmBtSimd(benchmark::State& state) {
  Rng rng(5);
  const Tensor a = random_tensor({128, 64}, rng);
  const Tensor b = random_tensor({256, 64}, rng);
  Tensor c;
  for (auto _ : state) {
    matmul_bt(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_GemmBtSimd);

// --------------------------------------------------------------------------
// Per-layer eval forwards, through the layer objects exactly as a predict
// trial calls them: the five convolutions of bench/perf's predict_full
// (alexnet, width 8, batch 32, 32x32 images), a resnet50 1x1 bottleneck
// conv, and the ReLU and 2x2 max-pool that follow conv1. Items are FLOPs for
// the convs and bytes read + written for ReLU and max-pool, so the console
// shows GFLOP/s or GB/s per layer; under --json-out each rate also lands in
// the snapshot as a `bench.layer.<name>.gflop_per_s` / `.gb_per_s` gauge.

constexpr std::size_t kLayerBatch = 32;

struct ConvLayerCase {
  const char* name;
  std::size_t ci, hw, co, kernel, pad;
};

const ConvLayerCase kConvLayers[] = {
    {"alexnet_conv1", 3, 32, 8, 3, 1},  {"alexnet_conv2", 8, 16, 16, 3, 1},
    {"alexnet_conv3", 16, 8, 24, 3, 1}, {"alexnet_conv4", 24, 8, 24, 3, 1},
    {"alexnet_conv5", 24, 8, 16, 3, 1}, {"resnet50_1x1", 16, 16, 32, 1, 0}};

/// Time `fn` over the benchmark's iterations and report `work` (FLOPs, or
/// bytes when `bytes`) per call, labelled `name`; under --json-out the rate
/// also lands in a bench.layer.<name> gauge.
template <typename Fn>
void time_work(benchmark::State& state, const std::string& name, double work,
               bool bytes, Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) fn();
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  const double total = work * static_cast<double>(state.iterations());
  if (bytes) {
    state.SetBytesProcessed(static_cast<std::int64_t>(total));
  } else {
    state.SetItemsProcessed(static_cast<std::int64_t>(total));
  }
  state.SetLabel(name);
  if (obs::metrics_enabled() && dt.count() > 0) {
    obs::gauge_set("bench.layer." + name +
                       (bytes ? ".gb_per_s" : ".gflop_per_s"),
                   total / dt.count() / 1e9);
  }
}

/// Time layer.forward(x, eval) and report `work` (FLOPs, or bytes when
/// `bytes`) per call.
void time_eval_forward(benchmark::State& state, nn::Layer& layer,
                       const Tensor& x, double work, bool bytes) {
  time_work(state, layer.name(), work, bytes, [&] {
    Tensor y = layer.forward(x, /*training=*/false);
    benchmark::DoNotOptimize(y.data());
  });
}

void BM_LayerConvEval(benchmark::State& state) {
  const ConvLayerCase& c = kConvLayers[state.range(0)];
  Rng rng(8);
  nn::Conv2D conv(c.name, c.ci, c.co, c.kernel, 1, c.pad);
  conv.init_params(rng);
  const Tensor x = random_tensor({kLayerBatch, c.ci, c.hw, c.hw}, rng);
  const double flops = 2.0 * static_cast<double>(kLayerBatch * c.co * c.hw *
                                                 c.hw * c.ci * c.kernel *
                                                 c.kernel);
  time_eval_forward(state, conv, x, flops, /*bytes=*/false);
}
BENCHMARK(BM_LayerConvEval)->DenseRange(0, 5)->UseRealTime();

/// conv1's output: [32, 8, 32, 32], signs mixed as after a convolution.
Tensor conv1_output() {
  Rng rng(9);
  return random_tensor({kLayerBatch, 8, 32, 32}, rng);
}

void BM_LayerReluEval(benchmark::State& state) {
  nn::ReLU relu("alexnet_relu1");
  const Tensor x = conv1_output();
  time_eval_forward(state, relu, x,
                    2.0 * static_cast<double>(x.numel() * sizeof(double)),
                    /*bytes=*/true);
}
BENCHMARK(BM_LayerReluEval)->UseRealTime();

void BM_LayerMaxPoolEval(benchmark::State& state) {
  nn::MaxPool2D pool("alexnet_pool1", 2, 2);
  const Tensor x = conv1_output();
  time_eval_forward(state, pool, x,
                    1.25 * static_cast<double>(x.numel() * sizeof(double)),
                    /*bytes=*/true);
}
BENCHMARK(BM_LayerMaxPoolEval)->UseRealTime();

// --------------------------------------------------------------------------
// Probed training's two element kernels: the stats block of one tensor
// (2^17 elements: dense, ReLU-shaped with half ±0, and pool-gradient-shaped
// with three quarters ±0), and relu backward over conv1's output gradient.
// Items are bytes read (and written, for relu backward).

constexpr std::size_t kStatsElems = std::size_t{1} << 17;

void BM_TensorStats(benchmark::State& state) {
  static const char* const kShapes[] = {"tensor_stats_dense",
                                        "tensor_stats_relu",
                                        "tensor_stats_pool_grad"};
  const auto shape = static_cast<std::size_t>(state.range(0));
  Rng rng(10);
  std::vector<double> x(kStatsElems);
  for (double& v : x) {
    v = rng.normal();
    if (shape == 1) v = v > 0.0 ? v : 0.0;
    if (shape == 2 && rng.uniform() < 0.75) v = 0.0;
  }
  time_work(state, kShapes[shape],
            static_cast<double>(kStatsElems * sizeof(double)),
            /*bytes=*/true, [&] {
              const obs::TensorStats s = tensor_stats(x.data(), x.size());
              benchmark::DoNotOptimize(s.l2);
            });
}
BENCHMARK(BM_TensorStats)->DenseRange(0, 2)->UseRealTime();

void BM_ReluBackward(benchmark::State& state) {
  Tensor y = conv1_output();
  BitMask mask;
  mask.reset(y.numel());
  relu_forward(y, &mask);
  Rng rng(11);
  Tensor g = random_tensor(y.shape(), rng);
  time_work(state, "relu_backward",
            2.0 * static_cast<double>(g.numel() * sizeof(double)),
            /*bytes=*/true, [&] {
              relu_backward(g, mask);
              benchmark::DoNotOptimize(g.data());
            });
}
BENCHMARK(BM_ReluBackward)->UseRealTime();

// --------------------------------------------------------------------------
// Probe overhead: one training step (forward + backward) of an MLP with and
// without an obs::Probes sink installed. "Off" is the instrumented-but-idle
// cost every unprobed training pays — one thread-local pointer load per
// container pass; "on" adds the per-layer stat recording. Each iteration
// uses a fresh Probes, so the "on" side also pays step-0 layout learning:
// an upper bound on the steady-state recording cost. The EXPERIMENTS.md
// probe-overhead snapshot comes from this pair.

void build_probe_mlp(nn::Sequential& net, Rng& rng) {
  net.emplace<nn::Dense>("fc1", 256, 256);
  net.emplace<nn::ReLU>("relu1");
  net.emplace<nn::Dense>("fc2", 256, 256);
  net.emplace<nn::ReLU>("relu2");
  net.emplace<nn::Dense>("fc3", 256, 10);
  net.init_params(rng);
}

void train_step(nn::Sequential& net, const Tensor& x, const Tensor& dy) {
  Tensor y = net.forward(x, /*training=*/true);
  benchmark::DoNotOptimize(y.data());
  Tensor dx = net.backward(dy);
  benchmark::DoNotOptimize(dx.data());
}

void BM_TrainStepProbesOff(benchmark::State& state) {
  Rng rng(6);
  nn::Sequential net("mlp");
  build_probe_mlp(net, rng);
  const Tensor x = random_tensor({16, 256}, rng);
  const Tensor dy = random_tensor({16, 10}, rng);
  for (auto _ : state) train_step(net, x, dy);
}
BENCHMARK(BM_TrainStepProbesOff);

void BM_TrainStepProbesOn(benchmark::State& state) {
  Rng rng(6);
  nn::Sequential net("mlp");
  build_probe_mlp(net, rng);
  const Tensor x = random_tensor({16, 256}, rng);
  const Tensor dy = random_tensor({16, 10}, rng);
  for (auto _ : state) {
    obs::Probes probes;
    probes.set_expected_steps(1);
    obs::Probes::Scope scope(probes);
    probes.begin_step(0);
    train_step(net, x, dy);
    benchmark::DoNotOptimize(probes.num_steps());
  }
}
BENCHMARK(BM_TrainStepProbesOn);

}  // namespace

int main(int argc, char** argv) {
  return ckptfi::bench_micro::run_main(argc, argv, "bench_micro_kernels");
}
