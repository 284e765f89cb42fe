// ExperimentRunner: the train -> checkpoint -> corrupt -> resume/predict
// pipeline behind every experiment in the paper's evaluation.
//
// A runner owns one (framework, model, precision) combination plus the
// dataset, and caches clean checkpoints by epoch so that 250-training
// experiment cells do not retrain their baseline. All trainings are
// deterministic: identical seeds and schedules produce bit-identical runs,
// which is what makes "restarted with no change in accuracy" measurable.
//
// Thread-safety: one runner may be shared by concurrent TrialScheduler
// trials. The mutating paths (baseline advance + snapshot cache in
// checkpoint_at, the clean_resume memo) serialize internally; everything a
// trial does per-iteration — checkpoint_at on a cached epoch, resume_training,
// predict, predict_subset, weights_of — builds trial-local models, trainers
// and batch vectors over const shared state (config, adapter, dataset,
// immutable serialized snapshots), so trials never contend outside those two
// short critical sections.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "core/corrupter.hpp"
#include "core/injection_log.hpp"
#include "core/prefix_cache.hpp"
#include "data/synthetic_cifar.hpp"
#include "frameworks/framework.hpp"
#include "models/models.hpp"
#include "nn/trainer.hpp"
#include "obs/probes.hpp"

namespace ckptfi::core {

struct ExperimentConfig {
  std::string framework = "chainer";
  std::string model = "alexnet";
  models::ModelConfig model_cfg;
  data::SyntheticCifarConfig data_cfg;
  std::size_t batch_size = 32;
  nn::SgdConfig sgd{/*lr=*/0.02, /*momentum=*/0.9, /*weight_decay=*/5e-4};
  /// Full training length (the paper's 100 epochs, scaled down).
  std::size_t total_epochs = 10;
  /// Epoch whose checkpoint gets corrupted (the paper's epoch 20).
  std::size_t restart_epoch = 3;
  /// Checkpoint storage precision.
  int precision_bits = 64;
  std::uint64_t seed = 42;
};

class ExperimentRunner {
 public:
  explicit ExperimentRunner(ExperimentConfig cfg);

  const ExperimentConfig& config() const { return cfg_; }
  const fw::FrameworkAdapter& adapter() const { return *adapter_; }
  const data::TrainTestSplit& data() const { return data_; }

  /// Fresh model with this framework's deterministic initialisation.
  std::unique_ptr<nn::Model> make_model() const;

  /// Model context for canonical-coordinate logging.
  ModelContext make_context(nn::Model& model) const;

  /// Clean checkpoint at `epoch`, snapshotted from one continuous baseline
  /// training (like the paper's: train once, checkpoint along the way — so
  /// optimizer state is continuous across snapshots and a given epoch's
  /// checkpoint does not depend on which epochs were requested first).
  /// Returns a fresh mutable copy each call — corrupt it freely.
  mh5::File checkpoint_at(std::size_t epoch);

  /// checkpoint_at(config().restart_epoch).
  mh5::File restart_checkpoint() { return checkpoint_at(cfg_.restart_epoch); }

  /// Clean resumed run restart_epoch -> total_epochs (computed once).
  const nn::TrainResult& clean_resume();

  /// Resume training from `ckpt` for `epochs` epochs (or to total_epochs
  /// when epochs == 0). The epoch counter continues from the checkpoint's
  /// recorded epoch, so batch schedules line up with the clean run.
  nn::TrainResult resume_training(const mh5::File& ckpt,
                                  std::size_t epochs = 0);

  /// Same, but also hands back the trained model (for weight-propagation
  /// studies, paper Fig. 6).
  std::pair<nn::TrainResult, std::unique_ptr<nn::Model>>
  resume_training_with_model(const mh5::File& ckpt, std::size_t epochs = 0);

  /// A resumed training with its per-step numeric-health timeline attached
  /// (one probe step per training batch, counted from the resume point).
  struct ProbedResume {
    nn::TrainResult result;
    obs::Probes probes;
    std::unique_ptr<nn::Model> model;
  };

  /// resume_training_with_model plus probes. Probed and unprobed resumes of
  /// the same checkpoint produce bit-identical weights and TrainResults —
  /// probes only observe.
  ProbedResume resume_training_probed(const mh5::File& ckpt,
                                      std::size_t epochs = 0);

  /// The clean baseline a probed trial diverges from: restart checkpoint
  /// resumed for `epochs` epochs (total_epochs - restart_epoch when 0) with
  /// probes attached. Computed once per distinct epoch count and memoized —
  /// the divergence-trace analogue of clean_resume().
  struct CleanProbedRun {
    nn::TrainResult result;
    obs::Probes probes;
    /// Canonical-name -> values of the final clean weights (paper Fig. 6's
    /// comparison baseline), snapshotted so the memo need not keep the model.
    std::map<std::string, std::vector<double>> final_weights;
  };
  const CleanProbedRun& clean_probed_run(std::size_t epochs = 0);

  /// Divergence trace of a trial's probe timeline against the memoized clean
  /// baseline over the same resume length.
  obs::DivergenceTrace divergence_vs_clean(const obs::Probes& trial,
                                           std::size_t epochs = 0);

  /// Load `ckpt` and evaluate on the full test set (paper Table VIII uses
  /// prediction-only runs). NaN logits count as N-EV. `seg` > 0 enters every
  /// test batch at that segment with its cached boundary activation.
  nn::EvalResult predict(const mh5::File& ckpt, std::size_t seg = 0);

  /// Evaluate on the `part`-th of `num_parts` slices of the test set — the
  /// paper's "10 predictions, each over different images".
  nn::EvalResult predict_subset(const mh5::File& ckpt, std::size_t part,
                                std::size_t num_parts);

  /// Canonical-name -> weight values snapshot of a checkpoint.
  std::map<std::string, std::vector<double>> weights_of(const mh5::File& ckpt);

  // --- prefix reuse ---------------------------------------------------------
  //
  // A layer-targeted trial corrupts datasets of known layers, so everything
  // upstream of the shallowest injected layer is bitwise the clean baseline.
  // predict's `seg` argument skips that prefix via core::PrefixCache: every
  // test batch enters at the cached boundary activation. Eval forwards are
  // pure, so prefixed and full predictions are bitwise-identical; a log that
  // cannot be mapped to a segment falls back to the full path, never to an
  // approximation.

  /// Deepest safe entry segment for a corrupted checkpoint: the segment of
  /// the shallowest layer named by the injection log's records. Returns 0
  /// (no skippable prefix) for an empty log or any record that cannot be
  /// mapped to a model layer — 0 always degrades to the full path.
  std::size_t entry_segment(const InjectionLog& log);

  /// The runner's prefix cache (introspection for tests/reports).
  const PrefixCache& prefix_cache() const { return prefix_cache_; }

  /// How many clean probed baselines have actually been trained — the
  /// memoization audit hook (a campaign over one resume length must build
  /// exactly one, no matter how many trials or cells ask).
  std::uint64_t clean_probed_builds() const { return clean_probed_builds_; }

 private:
  mh5::File clone_bytes(
      const std::shared_ptr<const std::vector<std::uint8_t>>& bytes) const;
  /// A model holding `ckpt`'s weights. Skips make_model()'s random init:
  /// load_from_file overwrites every param (or throws), so it would be
  /// dead work.
  std::unique_ptr<nn::Model> model_from(const mh5::File& ckpt) const;

  void cache_baseline_snapshot();

  /// Shared resume path; records into `probes` when non-null.
  std::pair<nn::TrainResult, std::unique_ptr<nn::Model>> resume_impl(
      const mh5::File& ckpt, std::size_t epochs, obs::Probes* probes);

  /// Inference prefix: every test batch's boundary activation at `seg`.
  std::shared_ptr<const PrefixEntryData> eval_prefix(std::size_t epoch,
                                                     std::size_t seg);

  /// Epochs actually resumed when callers pass 0 ("to total_epochs").
  std::size_t resolve_resume_epochs(std::size_t epochs) const;

  ExperimentConfig cfg_;
  std::unique_ptr<fw::FrameworkAdapter> adapter_;
  data::TrainTestSplit data_;
  std::unique_ptr<data::DataLoader> train_loader_;
  std::vector<nn::Batch> test_batches_;
  // One continuous clean training, advanced lazily; snapshots cached per
  // epoch as serialized checkpoint bytes. Shared ownership lets every clone
  // handed out by checkpoint_at() lazily fault datasets in from the same
  // buffer instead of decoding the whole checkpoint up front.
  std::unique_ptr<nn::Model> baseline_model_;
  std::unique_ptr<nn::Trainer> baseline_trainer_;
  std::size_t baseline_epoch_ = 0;
  std::map<std::size_t, std::shared_ptr<const std::vector<std::uint8_t>>>
      ckpt_cache_;
  std::optional<nn::TrainResult> clean_resume_;
  /// Clean probed baselines, one per distinct resume length requested. Each
  /// slot owns its own once-flag so concurrent trials wanting the same
  /// length block on exactly one build — and trials wanting a different
  /// length (or only the map) never wait behind a training.
  struct CleanSlot {
    std::once_flag once;
    CleanProbedRun run;
  };
  std::map<std::size_t, std::unique_ptr<CleanSlot>> clean_probed_;
  std::atomic<std::uint64_t> clean_probed_builds_{0};
  /// Guards baseline_{model_,trainer_,epoch_} and ckpt_cache_.
  std::mutex baseline_mu_;
  /// Guards the clean_resume_ memo and the clean_probed_ map shape (slot
  /// contents are guarded by their once-flags). Separate from baseline_mu_
  /// because computing them calls checkpoint_at (which takes baseline_mu_).
  std::mutex clean_mu_;
  /// Cached inference prefixes, keyed by (epoch, segment).
  PrefixCache prefix_cache_;
  /// Lazily built maps for entry_segment(): dataset path -> canonical layer
  /// name, canonical layer name -> top-level segment. Guarded by
  /// layer_map_mu_.
  std::mutex layer_map_mu_;
  bool layer_maps_built_ = false;
  std::map<std::string, std::size_t> layer_to_segment_;
  std::map<std::string, std::string> path_to_layer_;
};

}  // namespace ckptfi::core
