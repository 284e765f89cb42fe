// Deterministic training and evaluation loops.
//
// A Trainer drives SGD over batches supplied by a BatchProvider (the data
// module's DataLoader binds to this). Per-epoch statistics include N-EV
// detection so the experiment harness can classify collapsed trainings the
// way the paper's Tables IV/VII do.
#pragma once

#include <functional>
#include <vector>

#include "nn/loss.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"
#include "obs/probes.hpp"

namespace ckptfi::nn {

/// One minibatch: images [B,C,H,W] + labels.
struct Batch {
  Tensor x;
  std::vector<std::uint8_t> y;
};

/// Returns the ordered batches for a given epoch (deterministic function of
/// the epoch index).
using BatchProvider = std::function<std::vector<Batch>(std::size_t epoch)>;

struct TrainConfig {
  std::size_t epochs = 10;
  SgdConfig sgd;
};

struct EpochStats {
  std::size_t epoch = 0;
  double train_loss = 0.0;
  double train_accuracy = 0.0;
  double test_accuracy = 0.0;
  /// True when this epoch computed a NaN/Inf/extreme value in loss or
  /// weights — the paper's "N-EV" collapse signal.
  bool nev = false;
};

struct TrainResult {
  std::vector<EpochStats> epochs;
  /// True if any epoch hit N-EV (a collapsed training in the paper's sense).
  bool collapsed = false;
  /// Final test accuracy (of the last epoch that ran).
  double final_accuracy = 0.0;
};

class Trainer {
 public:
  Trainer(Model& model, TrainConfig cfg)
      : model_(model), cfg_(cfg), opt_(cfg.sgd) {}

  /// Train one epoch over `batches`; returns (mean loss, accuracy) on the
  /// training batches.
  std::pair<double, double> train_epoch(const std::vector<Batch>& batches);

  /// Full run: cfg.epochs epochs from `provider`, evaluating on `test_batches`
  /// after each. `first_epoch` offsets the epoch counter when resuming from a
  /// checkpoint. Stops early (and marks collapse) once weights go non-finite —
  /// continuing a NaN training is pure wasted compute, as in the paper's
  /// collapsed runs.
  TrainResult fit(const BatchProvider& provider,
                  const std::vector<Batch>& test_batches,
                  std::size_t first_epoch = 0,
                  const std::function<void(const EpochStats&)>& on_epoch = {});

  Sgd& optimizer() { return opt_; }

  /// Attach a numeric-health probe timeline (obs/probes.hpp): every training
  /// batch becomes one probe step recording per-layer forward/backward
  /// stats. Observation-only — probed and unprobed trainings produce
  /// bit-identical weights. The probes must outlive the trainer's use;
  /// nullptr (the default) detaches.
  void set_probes(obs::Probes* probes) { probes_ = probes; }

 private:
  Model& model_;
  TrainConfig cfg_;
  Sgd opt_;
  obs::Probes* probes_ = nullptr;
  /// Global batch counter across train_epoch calls — the probe step id, so
  /// a resumed run's timeline lines up step-for-step with the clean twin.
  std::uint64_t probe_step_ = 0;
};

/// Accuracy of `model` over `batches` (eval mode). NaN logits count as wrong.
double evaluate(Model& model, const std::vector<Batch>& batches);

/// Evaluate and also report whether any logit was NaN/Inf/extreme — used by
/// the prediction experiments (paper Table VIII) which count N-EV predictions.
struct EvalResult {
  double accuracy = 0.0;
  bool nev = false;
};

/// evaluate() plus the N-EV flag. With `seg` > 0 every batch enters the
/// network at segment `seg` with its cached boundary activation
/// (`boundaries`, one per batch, from core::PrefixCache). Inference prefix
/// reuse is valid for *every* batch — eval forwards are pure and a corrupted
/// checkpoint's upstream weights are bitwise the clean ones — so logits,
/// accuracy and N-EV flags match the full evaluation exactly.
EvalResult evaluate_with_nev(Model& model, const std::vector<Batch>& batches,
                             std::size_t seg = 0,
                             const std::vector<Tensor>& boundaries = {});

}  // namespace ckptfi::nn
