#include "core/experiment.hpp"

#include "obs/obs.hpp"
#include "util/common.hpp"

namespace ckptfi::core {

ExperimentRunner::ExperimentRunner(ExperimentConfig cfg)
    : cfg_(std::move(cfg)),
      adapter_(fw::make_adapter(cfg_.framework)),
      data_(data::make_synthetic_cifar10(cfg_.data_cfg)) {
  require(cfg_.restart_epoch < cfg_.total_epochs,
          "ExperimentRunner: restart_epoch must precede total_epochs");
  train_loader_ = std::make_unique<data::DataLoader>(data_.train,
                                                     cfg_.batch_size, cfg_.seed);
  data::DataLoader test_loader(data_.test, cfg_.batch_size, cfg_.seed);
  test_batches_ = test_loader.sequential_batches();
}

std::unique_ptr<nn::Model> ExperimentRunner::make_model() const {
  auto model = models::make_model(cfg_.model, cfg_.model_cfg);
  model->init(adapter_->init_seed(cfg_.seed));
  return model;
}

ModelContext ExperimentRunner::make_context(nn::Model& model) const {
  return ModelContext(model, *adapter_);
}

mh5::File ExperimentRunner::clone_bytes(
    const std::shared_ptr<const std::vector<std::uint8_t>>& bytes) const {
  // O(tree) clone: payloads stay in the shared snapshot buffer until a
  // consumer (corrupter, resume) actually touches each dataset.
  return mh5::File::deserialize_lazy(bytes);
}

std::unique_ptr<nn::Model> ExperimentRunner::model_from(
    const mh5::File& ckpt) const {
  auto model = models::make_model(cfg_.model, cfg_.model_cfg);
  adapter_->load_from_file(*model, ckpt);
  return model;
}

void ExperimentRunner::cache_baseline_snapshot() {
  obs::Span span("experiment.serialize", "serialize",
                 "experiment.serialize_time");
  const auto& bytes = ckpt_cache_[baseline_epoch_] =
      std::make_shared<const std::vector<std::uint8_t>>(
          adapter_
              ->checkpoint_to_file(*baseline_model_, cfg_.precision_bits,
                                   static_cast<std::int64_t>(baseline_epoch_))
              .serialize());
  obs::counter_add("experiment.ckpts_snapshotted");
  if (obs::events_enabled()) {
    Json f = Json::object();
    f["epoch"] = baseline_epoch_;
    f["bytes"] = bytes->size();
    f["framework"] = cfg_.framework;
    f["model"] = cfg_.model;
    obs::emit_event("checkpoint_saved", f);
  }
}

mh5::File ExperimentRunner::checkpoint_at(std::size_t epoch) {
  // The lock covers cache lookup and baseline advance; the per-trial clone
  // happens outside it, so concurrent cache hits serialize only on a map
  // find. The snapshot buffers are immutable once cached, safe to share.
  std::shared_ptr<const std::vector<std::uint8_t>> bytes;
  {
    std::lock_guard lock(baseline_mu_);
    const auto hit = ckpt_cache_.find(epoch);
    if (hit != ckpt_cache_.end()) {
      obs::counter_add("experiment.ckpt_cache_hits");
      bytes = hit->second;
    } else {
      obs::counter_add("experiment.ckpt_cache_misses");

      obs::Span span("experiment.baseline", "baseline",
                     "experiment.baseline_time");
      if (baseline_model_ == nullptr) {
        baseline_model_ = make_model();
        nn::TrainConfig tc;
        tc.epochs = 1;  // advanced one epoch at a time below
        tc.sgd = cfg_.sgd;
        baseline_trainer_ =
            std::make_unique<nn::Trainer>(*baseline_model_, tc);
        baseline_epoch_ = 0;
        cache_baseline_snapshot();
      }
      // Every epoch <= baseline_epoch_ is already cached, so the request is
      // for the future: advance the continuous training, snapshotting each
      // epoch.
      while (baseline_epoch_ < epoch) {
        obs::Span epoch_span("experiment.baseline_epoch", "baseline",
                             "trainer.epoch_time");
        baseline_trainer_->train_epoch(
            train_loader_->batches(baseline_epoch_));
        ++baseline_epoch_;
        cache_baseline_snapshot();
      }
      bytes = ckpt_cache_.at(epoch);
    }
  }
  return clone_bytes(bytes);
}

const nn::TrainResult& ExperimentRunner::clean_resume() {
  std::lock_guard lock(clean_mu_);
  if (!clean_resume_) {
    const mh5::File ckpt = restart_checkpoint();
    clean_resume_ = resume_training(ckpt);
  }
  return *clean_resume_;
}

nn::TrainResult ExperimentRunner::resume_training(const mh5::File& ckpt,
                                                  std::size_t epochs) {
  return resume_impl(ckpt, epochs, /*probes=*/nullptr).first;
}

std::pair<nn::TrainResult, std::unique_ptr<nn::Model>>
ExperimentRunner::resume_training_with_model(const mh5::File& ckpt,
                                             std::size_t epochs) {
  return resume_impl(ckpt, epochs, /*probes=*/nullptr);
}

std::pair<nn::TrainResult, std::unique_ptr<nn::Model>>
ExperimentRunner::resume_impl(const mh5::File& ckpt, std::size_t epochs,
                              obs::Probes* probes) {
  obs::Span span("experiment.resume", "resume", "experiment.resume_time");
  obs::counter_add("experiment.resumes");
  const auto from_epoch =
      static_cast<std::size_t>(fw::checkpoint_epoch(ckpt));
  if (epochs == 0) {
    require(cfg_.total_epochs > from_epoch,
            "resume_training: checkpoint is at/past total_epochs");
    epochs = cfg_.total_epochs - from_epoch;
  }
  auto model = model_from(ckpt);

  nn::TrainConfig tc;
  tc.epochs = epochs;
  tc.sgd = cfg_.sgd;
  nn::Trainer trainer(*model, tc);
  if (probes != nullptr) {
    // Pre-size the timeline so steady-state recording never allocates; a
    // collapsed run just uses fewer steps than reserved.
    const std::size_t steps_per_epoch =
        (data_.train.size() + cfg_.batch_size - 1) / cfg_.batch_size;
    probes->set_expected_steps(epochs * steps_per_epoch);
    trainer.set_probes(probes);
  }
  // Like the paper's checkpoints, ours hold weights only: optimizer velocity
  // restarts at zero on resume (the source of Fig. 3b's slight bump).
  nn::TrainResult result =
      trainer.fit(train_loader_->provider(), test_batches_, from_epoch);
  return {std::move(result), std::move(model)};
}

std::size_t ExperimentRunner::resolve_resume_epochs(std::size_t epochs) const {
  if (epochs != 0) return epochs;
  require(cfg_.total_epochs > cfg_.restart_epoch,
          "resolve_resume_epochs: restart at/past total_epochs");
  return cfg_.total_epochs - cfg_.restart_epoch;
}

ExperimentRunner::ProbedResume ExperimentRunner::resume_training_probed(
    const mh5::File& ckpt, std::size_t epochs) {
  ProbedResume out;
  auto [result, model] = resume_impl(ckpt, epochs, &out.probes);
  out.result = std::move(result);
  out.model = std::move(model);
  return out;
}

const ExperimentRunner::CleanProbedRun& ExperimentRunner::clean_probed_run(
    std::size_t epochs) {
  // Memo keyed by the *resolved* epoch count, so `0` ("to total_epochs") and
  // its explicit value share one baseline — a campaign's cells all reuse the
  // same clean twin. The map lock only covers slot lookup; the (expensive)
  // clean training runs under the slot's once-flag, so concurrent trials of
  // the same length block on exactly one build instead of each holding
  // clean_mu_ through a training.
  const std::size_t resolved = resolve_resume_epochs(epochs);
  CleanSlot* slot = nullptr;
  {
    std::lock_guard lock(clean_mu_);
    auto& up = clean_probed_[resolved];
    if (up == nullptr) up = std::make_unique<CleanSlot>();
    slot = up.get();
  }
  std::call_once(slot->once, [&] {
    const mh5::File ckpt = restart_checkpoint();
    ProbedResume run = resume_training_probed(ckpt, resolved);
    slot->run.result = std::move(run.result);
    slot->run.probes = std::move(run.probes);
    for (const auto& p : run.model->params())
      slot->run.final_weights[p.name] = p.value->vec();
    ++clean_probed_builds_;
    obs::counter_add("experiment.clean_probed_builds");
  });
  return slot->run;
}

obs::DivergenceTrace ExperimentRunner::divergence_vs_clean(
    const obs::Probes& trial, std::size_t epochs) {
  return obs::diverge(clean_probed_run(epochs).probes, trial);
}

nn::EvalResult ExperimentRunner::predict(const mh5::File& ckpt,
                                         std::size_t seg) {
  obs::Span span("experiment.predict", "predict", "experiment.predict_time");
  obs::counter_add("experiment.predicts");
  auto model = model_from(ckpt);
  if (seg == 0) return nn::evaluate_with_nev(*model, test_batches_);
  const auto epoch = static_cast<std::size_t>(fw::checkpoint_epoch(ckpt));
  const auto prefix = eval_prefix(epoch, seg);
  obs::counter_add("prefix.segments_skipped", seg);
  return nn::evaluate_with_nev(*model, test_batches_, seg, prefix->boundary);
}

nn::EvalResult ExperimentRunner::predict_subset(const mh5::File& ckpt,
                                                std::size_t part,
                                                std::size_t num_parts) {
  obs::Span span("experiment.predict", "predict", "experiment.predict_time");
  obs::counter_add("experiment.predicts");
  require(num_parts > 0 && part < num_parts,
          "predict_subset: bad part/num_parts");
  auto model = model_from(ckpt);
  std::vector<nn::Batch> slice;
  for (std::size_t i = part; i < test_batches_.size(); i += num_parts) {
    nn::Batch b;
    b.x = test_batches_[i].x;
    b.y = test_batches_[i].y;
    slice.push_back(std::move(b));
  }
  require(!slice.empty(), "predict_subset: empty slice");
  return nn::evaluate_with_nev(*model, slice);
}

std::map<std::string, std::vector<double>> ExperimentRunner::weights_of(
    const mh5::File& ckpt) {
  auto model = model_from(ckpt);
  std::map<std::string, std::vector<double>> out;
  for (const auto& p : model->params()) {
    out[p.name] = p.value->vec();
  }
  return out;
}

// --- prefix reuse -----------------------------------------------------------

std::size_t ExperimentRunner::entry_segment(const InjectionLog& log) {
  if (log.empty()) return 0;
  {
    std::lock_guard lock(layer_map_mu_);
    if (!layer_maps_built_) {
      auto model = make_model();
      path_to_layer_.clear();
      for (const auto& [path, canonical] : adapter_->inverse_path_map(*model)) {
        path_to_layer_[path] = fw::split_canonical(canonical).first;
      }
      layer_to_segment_.clear();
      for (const auto& [path, layer] : path_to_layer_) {
        (void)path;
        if (layer_to_segment_.count(layer) == 0)
          layer_to_segment_[layer] = model->segment_of_layer(layer);
      }
      layer_maps_built_ = true;
    }
  }
  // The entry segment is the *shallowest* injected layer's segment: every
  // segment before it is untouched by the corruption. Any record we cannot
  // place (unknown path, layer outside the model) forces 0 — the full path.
  std::size_t min_seg = nn::Model::kNoSegment;
  for (const InjectionRecord& rec : log.records()) {
    std::string layer = rec.layer;
    if (layer.empty()) {
      const auto hit = path_to_layer_.find(rec.location);
      if (hit == path_to_layer_.end()) return 0;
      layer = hit->second;
    }
    const auto seg = layer_to_segment_.find(layer);
    if (seg == layer_to_segment_.end() ||
        seg->second == nn::Model::kNoSegment)
      return 0;
    if (seg->second < min_seg) min_seg = seg->second;
  }
  return min_seg == nn::Model::kNoSegment ? 0 : min_seg;
}

std::shared_ptr<const PrefixEntryData> ExperimentRunner::eval_prefix(
    std::size_t epoch, std::size_t seg) {
  return prefix_cache_.get_or_build(
      PrefixKey{epoch, seg}, [&]() -> PrefixEntryData {
        obs::Span span("experiment.prefix_build", "prefix",
                       "experiment.prefix_build_time");
        const mh5::File ckpt = checkpoint_at(epoch);
        auto model = model_from(ckpt);
        // Eval forwards are pure, so all test batches' boundary activations
        // are reusable by every trial in the group — no state, no probes.
        PrefixEntryData entry;
        entry.boundary.reserve(test_batches_.size());
        for (const nn::Batch& b : test_batches_) {
          entry.boundary.push_back(model->forward_prefix(seg, b.x));
        }
        return entry;
      });
}

}  // namespace ckptfi::core
