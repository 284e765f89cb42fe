// Pipeline-level contract of the simd kernel tier (docs/KERNELS.md):
//
//   - training is deterministic: two runners with identical seeds produce
//     bitwise-identical checkpoint bytes — and the vector ISA and the
//     portable scalar lanes produce bitwise-identical *trained checkpoints*,
//     not just kernel outputs;
//   - the paper-table pipeline classifies trials identically under fp64 and
//     the fp16 mixed-precision compute path: the same corruptions collapse
//     (N-EV) or survive;
//   - a mini injection campaign produces identical per-trial results under
//     --jobs 8 and --jobs 1.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/corrupter.hpp"
#include "core/experiment.hpp"
#include "core/scheduler.hpp"
#include "tensor/kernels.hpp"
#include "util/threadpool.hpp"

namespace ckptfi::core {
namespace {

ExperimentConfig tiny_config() {
  ExperimentConfig cfg;
  cfg.framework = "chainer";
  cfg.model = "alexnet";
  cfg.model_cfg.width = 2;
  cfg.data_cfg.num_train = 64;
  cfg.data_cfg.num_test = 32;
  cfg.batch_size = 16;
  cfg.total_epochs = 3;
  cfg.restart_epoch = 1;
  cfg.seed = 9;
  return cfg;
}

class IsaGuard {
 public:
  explicit IsaGuard(SimdIsa isa) : prev_(simd_isa()) { set_simd_isa(isa); }
  ~IsaGuard() { set_simd_isa(prev_); }

 private:
  SimdIsa prev_;
};

class PrecisionGuard {
 public:
  explicit PrecisionGuard(GemmPrecision p) : prev_(gemm_precision()) {
    set_gemm_precision(p);
  }
  ~PrecisionGuard() { set_gemm_precision(prev_); }

 private:
  GemmPrecision prev_;
};

// Two independent runners, same seed: the trained checkpoint bytes must be
// identical down to the last bit. This is the property the paper's
// methodology rests on (clean vs corrupted runs are comparable), and the
// property CKPTFI_THREADS-fixed parallel kernels must preserve.
TEST(KernelPipeline, SimdCheckpointBitwiseDeterministic) {
  ExperimentRunner first(tiny_config());
  ExperimentRunner second(tiny_config());
  const std::vector<std::uint8_t> a = first.restart_checkpoint().serialize();
  const std::vector<std::uint8_t> b = second.restart_checkpoint().serialize();
  EXPECT_EQ(a, b);
}

// The simd tier's cross-ISA contract at pipeline scale: a full training run
// on the vector ISA and one on the portable scalar fallback must produce
// the *same checkpoint bytes*. (Under CKPTFI_SIMD=off both runs take the
// scalar path and the test still pins run-to-run determinism.)
TEST(KernelPipeline, SimdScalarFallbackTrainsBitwiseIdentically) {
  std::vector<std::uint8_t> vec_bytes, scalar_bytes;
  {
    ExperimentRunner runner(tiny_config());
    vec_bytes = runner.restart_checkpoint().serialize();
  }
  {
    IsaGuard isa(SimdIsa::kScalar);
    ExperimentRunner runner(tiny_config());
    scalar_bytes = runner.restart_checkpoint().serialize();
  }
  EXPECT_EQ(vec_bytes, scalar_bytes);
}

struct Outcome {
  bool baseline_collapsed = false;
  std::vector<bool> collapsed;
};

// The same injection campaign, replayed at a GEMM precision: collapse (N-EV)
// is driven by corrupted values orders of magnitude outside fp16 rounding.
Outcome run_campaign(GemmPrecision precision) {
  PrecisionGuard pguard(precision);
  ExperimentRunner runner(tiny_config());
  Outcome out;
  const nn::TrainResult clean =
      runner.resume_training(runner.restart_checkpoint(), 1);
  out.baseline_collapsed = clean.collapsed;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    // Exponent-MSB flips: reliably collapsing, as in Fig. 2.
    mh5::File ckpt = runner.restart_checkpoint();
    CorrupterConfig cc;
    cc.injection_attempts = 50;
    cc.corruption_mode = CorruptionMode::BitRange;
    cc.first_bit = 62;
    cc.last_bit = 62;
    cc.seed = seed;
    Corrupter(cc).corrupt(ckpt);
    out.collapsed.push_back(runner.resume_training(ckpt, 1).collapsed);

    // Mantissa-only flips: reliably benign.
    mh5::File benign = runner.restart_checkpoint();
    cc.first_bit = 0;
    cc.last_bit = 51;
    Corrupter(cc).corrupt(benign);
    out.collapsed.push_back(runner.resume_training(benign, 1).collapsed);
  }
  return out;
}

// Table VII's axis, computed for real: under fp16 mixed-precision GEMM the
// corrupted values flow through genuine binary16 representations, yet the
// N-EV classification must match the fp64 campaign — quantization noise is
// still orders of magnitude below a flipped exponent MSB, and mantissa
// flips stay benign.
TEST(KernelPipeline, Fp16ComputeAgreesOnTrialClassification) {
  const Outcome fp64 = run_campaign(GemmPrecision::kFp64);
  const Outcome fp16 = run_campaign(GemmPrecision::kFp16);
  EXPECT_FALSE(fp16.baseline_collapsed);
  EXPECT_EQ(fp64.collapsed, fp16.collapsed);
}

// --jobs 8 ≡ --jobs 1: a mini campaign fanned out over a ThreadPool must
// reproduce the serial per-trial results exactly (collapse flags and
// bitwise-equal final accuracies).
TEST(KernelPipeline, JobsInvarianceHolds) {
  ExperimentRunner runner(tiny_config());
  constexpr std::size_t kTrials = 4;
  auto campaign = [&](std::size_t jobs, ThreadPool* pool) {
    std::vector<double> accuracy(kTrials);
    std::vector<bool> collapsed(kTrials);
    TrialScheduler::Config sc;
    sc.jobs = jobs;
    sc.campaign_seed = 77;
    sc.pool = pool;
    TrialScheduler(sc).run(kTrials, [&](const TrialContext& trial) {
      mh5::File ckpt = runner.restart_checkpoint();
      CorrupterConfig cc;
      cc.injection_attempts = 200;
      cc.corruption_mode = CorruptionMode::BitRange;
      cc.first_bit = 0;
      cc.last_bit = 61;
      cc.seed = trial.seed;
      Corrupter(cc).corrupt(ckpt);
      const nn::TrainResult r = runner.resume_training(ckpt, 1);
      accuracy[trial.index] = r.final_accuracy;
      collapsed[trial.index] = r.collapsed;
    });
    return std::make_pair(accuracy, collapsed);
  };
  const auto serial = campaign(1, nullptr);
  ThreadPool pool(8);
  const auto fanned = campaign(8, &pool);
  EXPECT_EQ(serial.first, fanned.first);
  EXPECT_EQ(serial.second, fanned.second);
}

}  // namespace
}  // namespace ckptfi::core
