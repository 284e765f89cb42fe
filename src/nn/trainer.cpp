#include "nn/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "obs/obs.hpp"
#include "tensor/workspace.hpp"
#include "util/bitops.hpp"
#include "util/common.hpp"

namespace ckptfi::nn {

std::pair<double, double> Trainer::train_epoch(
    const std::vector<Batch>& batches, const PrefixEntry* prefix) {
  require(!batches.empty(), "Trainer: no batches");
  double loss_sum = 0.0;
  double acc_sum = 0.0;
  bool first = true;
  for (const Batch& b : batches) {
    obs::Span span("trainer.batch", "train", "trainer.batch_time");
    // The probe scope covers exactly the forward/backward passes: one step
    // per batch, id'd by the cross-epoch batch counter so resumed timelines
    // align step-for-step with the clean baseline's.
    std::optional<obs::Probes::Scope> probe_scope;
    if (probes_ != nullptr) {
      probes_->begin_step(probe_step_);
      probe_scope.emplace(*probes_);
    }
    ++probe_step_;
    const PrefixEntry* entry = first ? prefix : nullptr;
    first = false;
    Tensor logits;
    if (entry != nullptr && entry->segment > 0) {
      // Prefix-entered step: restore the skipped layers' forward state (so
      // this step's backward reads bitwise what a full forward would have
      // written), splice the cached upstream probe stats to keep the step's
      // point schedule identical to a full run's, then enter at the segment
      // boundary with the cached activation.
      model_.restore_prefix_state(entry->segment, *entry->state);
      if (probes_ != nullptr && entry->probe_prefix != nullptr) {
        for (const obs::RecordedPoint& rp : *entry->probe_prefix) {
          probes_->record_stats(rp.point.layer, rp.point.phase, rp.stats);
        }
      }
      logits = model_.forward_from(entry->segment, *entry->boundary,
                                   /*training=*/true);
    } else {
      logits = model_.forward(b.x, /*training=*/true);
    }
    LossResult lr = softmax_cross_entropy(logits, b.y);
    loss_sum += lr.loss;
    acc_sum += accuracy(logits, b.y);
    model_.backward(lr.dlogits);
    probe_scope.reset();
    opt_.step(model_.params());
    // Coalesce this thread's kernel arena at the batch boundary: after the
    // first batch warmed it up, later batches run allocation-free.
    Workspace::tls().reset();
    obs::counter_add("trainer.batches_done");
    obs::counter_add("trainer.samples_seen", b.y.size());
  }
  const double n = static_cast<double>(batches.size());
  return {loss_sum / n, acc_sum / n};
}

TrainResult Trainer::fit(const BatchProvider& provider,
                         const std::vector<Batch>& test_batches,
                         std::size_t first_epoch,
                         const std::function<void(const EpochStats&)>& on_epoch,
                         const PrefixEntry* prefix) {
  TrainResult result;
  for (std::size_t e = 0; e < cfg_.epochs; ++e) {
    const std::size_t epoch = first_epoch + e;
    EpochStats stats;
    {
      obs::Span span("trainer.epoch", "train", "trainer.epoch_time");
      const auto batches = provider(epoch);
      auto [loss, train_acc] = train_epoch(batches, e == 0 ? prefix : nullptr);

      stats.epoch = epoch;
      stats.train_loss = loss;
      stats.train_accuracy = train_acc;
      stats.test_accuracy = evaluate(model_, test_batches);
      stats.nev = is_nev(loss) || model_.has_non_finite_params();
    }
    result.epochs.push_back(stats);
    result.final_accuracy = stats.test_accuracy;
    if (obs::metrics_enabled()) {
      obs::counter_add("trainer.epochs_done");
      obs::gauge_set("trainer.train_loss", stats.train_loss);
      obs::gauge_set("trainer.train_accuracy", stats.train_accuracy);
      obs::gauge_set("trainer.test_accuracy", stats.test_accuracy);
      // Percentile gauges over the per-batch latency histogram, refreshed at
      // every epoch boundary so snapshots expose the p99-vs-p50 spread
      // directly (the allocation-spike signal the arena exists to kill).
      const obs::Histogram& bt =
          obs::Registry::global().histogram("trainer.batch_time");
      obs::gauge_set("trainer.batch_time_p50", bt.percentile(0.50));
      obs::gauge_set("trainer.batch_time_p99", bt.percentile(0.99));
      if (stats.nev) obs::counter_add("trainer.nev_epochs");
    }
    if (obs::events_enabled()) {
      Json f = Json::object();
      f["epoch"] = stats.epoch;
      f["train_loss"] = stats.train_loss;
      f["train_accuracy"] = stats.train_accuracy;
      f["test_accuracy"] = stats.test_accuracy;
      f["nev"] = stats.nev;
      obs::emit_event("epoch_done", f);
      if (stats.nev) {
        Json n = Json::object();
        n["epoch"] = stats.epoch;
        n["train_loss"] = stats.train_loss;
        obs::emit_event("nev_detected", n);
      }
    }
    if (on_epoch) on_epoch(stats);
    if (stats.nev) {
      result.collapsed = true;
      break;
    }
  }
  return result;
}

double evaluate(Model& model, const std::vector<Batch>& batches) {
  obs::Span span("trainer.evaluate", "eval", "trainer.eval_time");
  return evaluate_with_nev(model, batches).accuracy;
}

EvalResult evaluate_with_nev(Model& model, const std::vector<Batch>& batches,
                             std::size_t seg,
                             const std::vector<Tensor>& boundaries) {
  require(!batches.empty(), "evaluate: no batches");
  require(seg == 0 || boundaries.size() == batches.size(),
          "evaluate: boundary/batch count mismatch");
  EvalResult res;
  std::size_t total = 0, correct = 0;
  for (std::size_t i = 0; i < batches.size(); ++i) {
    const Tensor logits =
        seg > 0 ? model.forward_from(seg, boundaries[i], /*training=*/false)
                : model.forward(batches[i].x, /*training=*/false);
    res.nev = res.nev || std::any_of(logits.vec().begin(), logits.vec().end(),
                                     [](double v) { return is_nev(v); });
    const std::size_t n = batches[i].y.size();
    correct += static_cast<std::size_t>(
        std::lround(accuracy(logits, batches[i].y) * static_cast<double>(n)));
    total += n;
  }
  res.accuracy = static_cast<double>(correct) / static_cast<double>(total);
  return res;
}

}  // namespace ckptfi::nn
