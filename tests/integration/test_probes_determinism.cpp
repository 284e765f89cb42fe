// Determinism contract of the probe subsystem (docs/OBSERVABILITY.md):
//   - probes only observe: a probed resume produces bit-identical weights
//     and TrainResults to an unprobed resume of the same checkpoint;
//   - divergence traces are a pure function of the trial: a fig4-style
//     mini-campaign emits byte-identical trace JSON under --jobs 8 and
//     --jobs 1, and a corrupted trial records the same timeline on the
//     vector ISA as on the scalar lanes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/corrupter.hpp"
#include "core/experiment.hpp"
#include "core/scheduler.hpp"
#include "support/isa_guard.hpp"
#include "tensor/kernels.hpp"
#include "util/threadpool.hpp"

namespace ckptfi::core {
namespace {

ExperimentConfig tiny_config() {
  ExperimentConfig cfg;
  cfg.framework = "chainer";
  cfg.model = "alexnet";
  cfg.model_cfg.width = 2;
  cfg.data_cfg.num_train = 48;
  cfg.data_cfg.num_test = 24;
  cfg.batch_size = 16;
  cfg.total_epochs = 3;
  cfg.restart_epoch = 1;
  cfg.seed = 99;
  return cfg;
}

/// A deterministically corrupted restart checkpoint: the cache hands out
/// byte-identical copies, and the corrupter is seeded, so repeated calls
/// produce the same injected file.
mh5::File corrupted_checkpoint(ExperimentRunner& runner, std::uint64_t seed) {
  mh5::File ckpt = runner.restart_checkpoint();
  CorrupterConfig cc;
  cc.injection_attempts = 1000;
  cc.corruption_mode = CorruptionMode::BitRange;
  cc.first_bit = 0;
  cc.last_bit = 61;
  cc.seed = seed;
  Corrupter corrupter(cc);
  corrupter.corrupt(ckpt);
  return ckpt;
}

void expect_same_result(const nn::TrainResult& a, const nn::TrainResult& b) {
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t i = 0; i < a.epochs.size(); ++i) {
    EXPECT_EQ(a.epochs[i].train_loss, b.epochs[i].train_loss);
    EXPECT_EQ(a.epochs[i].test_accuracy, b.epochs[i].test_accuracy);
    EXPECT_EQ(a.epochs[i].nev, b.epochs[i].nev);
  }
  EXPECT_EQ(a.collapsed, b.collapsed);
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
}

TEST(ProbesDeterminism, ProbedResumeIsBitIdenticalToUnprobed) {
  ExperimentRunner runner(tiny_config());

  mh5::File plain_ckpt = corrupted_checkpoint(runner, 7);
  mh5::File probed_ckpt = corrupted_checkpoint(runner, 7);

  auto [plain_res, plain_model] = runner.resume_training_with_model(plain_ckpt);
  ExperimentRunner::ProbedResume probed =
      runner.resume_training_probed(probed_ckpt);

  expect_same_result(plain_res, probed.result);

  // Bitwise weight identity: recording stats must never perturb training.
  const auto& pa = plain_model->params();
  const auto& pb = probed.model->params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].name, pb[i].name);
    EXPECT_EQ(pa[i].value->vec(), pb[i].value->vec()) << pa[i].name;
  }

  // The timeline itself: 2 resumed epochs x ceil(48/16) batches.
  EXPECT_EQ(probed.probes.num_steps(), 6u);
  EXPECT_GT(probed.probes.points_per_step(), 0u);
}

TEST(ProbesDeterminism, CleanTimelineDoesNotDivergeFromItself) {
  ExperimentRunner runner(tiny_config());
  ExperimentRunner::ProbedResume clean_again =
      runner.resume_training_probed(runner.restart_checkpoint());
  const obs::DivergenceTrace t = runner.divergence_vs_clean(clean_again.probes);
  EXPECT_FALSE(t.diverged);
  EXPECT_EQ(t.steps_compared, 6u);
}

/// fig4-style mini-campaign: per-trial seeded single injections, divergence
/// trace dumped into an index slot. Returns the dumps in trial order.
std::vector<std::string> run_campaign(ExperimentRunner& runner,
                                      std::size_t jobs, ThreadPool* pool) {
  constexpr std::size_t kTrials = 4;
  std::vector<std::string> dumps(kTrials);
  TrialScheduler::Config sc;
  sc.jobs = jobs;
  sc.campaign_seed = 2024;
  sc.pool = pool;
  TrialScheduler(sc).run(kTrials, [&](const TrialContext& trial) {
    mh5::File ckpt = corrupted_checkpoint(runner, trial.seed);
    ExperimentRunner::ProbedResume probed = runner.resume_training_probed(ckpt);
    dumps[trial.index] = runner.divergence_vs_clean(probed.probes).to_json().dump();
  });
  return dumps;
}

TEST(ProbesDeterminism, DivergenceTracesInvariantUnderJobs) {
  ExperimentRunner runner(tiny_config());
  // Precompute the memoized clean baseline so the fan-out measures trial
  // work, not contention on the first-call memo.
  runner.clean_probed_run();

  const std::vector<std::string> serial = run_campaign(runner, 1, nullptr);
  ThreadPool pool(8);
  const std::vector<std::string> fanned = run_campaign(runner, 8, &pool);

  ASSERT_EQ(serial.size(), fanned.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], fanned[i]) << "trial " << i;
  }
  // The campaign must have produced real forensics, not all-empty traces.
  bool any_diverged = false;
  for (const std::string& d : serial)
    if (d.find("\"diverged\":true") != std::string::npos) any_diverged = true;
  EXPECT_TRUE(any_diverged);
}

/// A corrupted probed trial, from baseline training to divergence trace, on
/// the ISA in force.
struct ProbedTrial {
  obs::Probes probes;
  std::string trace;
};

ProbedTrial probed_trial() {
  ExperimentRunner runner(tiny_config());
  mh5::File ckpt = corrupted_checkpoint(runner, 7);
  ExperimentRunner::ProbedResume probed = runner.resume_training_probed(ckpt);
  std::string trace =
      runner.divergence_vs_clean(probed.probes).to_json().dump();
  return {std::move(probed.probes), std::move(trace)};
}

TEST(ProbesDeterminism, TimelineBitwiseAcrossIsas) {
  const ProbedTrial vec = probed_trial();
  ProbedTrial scalar;
  {
    IsaGuard guard(SimdIsa::kScalar);
    scalar = probed_trial();
  }
  ASSERT_TRUE(vec.probes.same_layout(scalar.probes));
  ASSERT_EQ(vec.probes.num_steps(), scalar.probes.num_steps());
  for (std::size_t s = 0; s < vec.probes.num_steps(); ++s) {
    for (std::size_t p = 0; p < vec.probes.points_per_step(); ++p) {
      EXPECT_TRUE(vec.probes.at(s, p) == scalar.probes.at(s, p))
          << "step " << s << ", " << vec.probes.layout()[p].layer << " "
          << obs::probe_phase_name(vec.probes.layout()[p].phase) << ": "
          << vec.probes.at(s, p).to_json().dump() << " vs "
          << scalar.probes.at(s, p).to_json().dump();
    }
  }
  EXPECT_EQ(vec.trace, scalar.trace);
  // The injections must reach the timeline, or it pins nothing.
  EXPECT_NE(vec.trace.find("\"diverged\":true"), std::string::npos);
}

}  // namespace
}  // namespace ckptfi::core
