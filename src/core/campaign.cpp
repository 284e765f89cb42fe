#include "core/campaign.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iterator>
#include <map>
#include <optional>

#include "core/corrupter.hpp"
#include "core/equivalent.hpp"
#include "core/experiment.hpp"
#include "core/injection_log.hpp"
#include "core/protection.hpp"
#include "core/trial_log.hpp"
#include "frameworks/framework.hpp"
#include "models/models.hpp"
#include "tensor/kernels.hpp"
#include "util/bitops.hpp"
#include "util/common.hpp"
#include "util/crc32.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

namespace ckptfi::core {

std::uint64_t campaign_cell_seed(std::uint64_t master_seed,
                                 const std::string& cell) {
  return trial_seed(master_seed, crc32(cell.data(), cell.size()));
}

std::size_t campaign_model_width(std::size_t width, const std::string& model) {
  if (model == "resnet50") return std::max<std::size_t>(2, width / 2);
  return width;
}

std::string CampaignOptions::canonical() const {
  std::string layer_csv;
  for (const std::string& l : layers) {
    if (!layer_csv.empty()) layer_csv += ",";
    layer_csv += l;
  }
  return "ckptfi-campaign-v1|bench=" + bench + "|mode=" + mode +
         "|layers=" + layer_csv + "|seed=" + std::to_string(seed) +
         "|ti=" + std::to_string(train_images) +
         "|te=" + std::to_string(test_images) +
         "|w=" + std::to_string(width) +
         "|ep=" + std::to_string(total_epochs) +
         "|re=" + std::to_string(restart_epoch) +
         "|res=" + std::to_string(resume_epochs);
}

std::uint32_t CampaignOptions::fingerprint() const {
  return campaign_fingerprint(canonical());
}

std::string CampaignOptions::fingerprint_hex() const {
  return core::fingerprint_hex(fingerprint());
}

Json CampaignOptions::to_json() const {
  Json j = Json::object();
  j["bench"] = bench;
  j["mode"] = mode;
  Json ls = Json::array();
  for (const std::string& l : layers) ls.push_back(l);
  j["layers"] = std::move(ls);
  j["trainings"] = trainings;
  j["train_images"] = train_images;
  j["test_images"] = test_images;
  j["width"] = width;
  j["total_epochs"] = total_epochs;
  j["restart_epoch"] = restart_epoch;
  j["resume_epochs"] = resume_epochs;
  // Seeds are u64; JSON ints are i64, so the seed travels as a string (the
  // same convention trial rows use).
  j["seed"] = std::to_string(seed);
  j["prefix_reuse"] = prefix_reuse;
  return j;
}

CampaignOptions CampaignOptions::from_json(const Json& j) {
  CampaignOptions o;
  o.bench = j.at("bench").as_string();
  o.mode = j.at("mode").as_string();
  o.layers.clear();
  if (j.contains("layers")) {
    for (const Json& l : j.at("layers").items())
      o.layers.push_back(l.as_string());
  }
  const auto as_size = [&](const char* key) {
    const std::int64_t v = j.at(key).as_int();
    if (v < 0) {
      throw FormatError("campaign options: '" + std::string(key) +
                        "' must not be negative (got " + std::to_string(v) +
                        ")");
    }
    return static_cast<std::size_t>(v);
  };
  o.trainings = as_size("trainings");
  o.train_images = as_size("train_images");
  o.test_images = as_size("test_images");
  o.width = as_size("width");
  o.total_epochs = as_size("total_epochs");
  o.restart_epoch = as_size("restart_epoch");
  o.resume_epochs = as_size("resume_epochs");
  // A plain decimal u64: from_chars takes no sign, space or trailing junk.
  const std::string& seed = j.at("seed").as_string();
  const auto [end, ec] =
      std::from_chars(seed.data(), seed.data() + seed.size(), o.seed);
  if (ec != std::errc() || end != seed.data() + seed.size()) {
    throw FormatError("campaign options: 'seed' must be a decimal u64 (got '" +
                      seed + "')");
  }
  o.prefix_reuse = j.at("prefix_reuse").as_bool();
  return o;
}

namespace {

ExperimentConfig experiment_config(const CampaignOptions& o,
                                   const std::string& framework,
                                   const std::string& model,
                                   int precision_bits) {
  ExperimentConfig cfg;
  cfg.framework = framework;
  cfg.model = model;
  cfg.model_cfg.width = campaign_model_width(o.width, model);
  cfg.data_cfg.num_train = o.train_images;
  cfg.data_cfg.num_test = o.test_images;
  cfg.total_epochs = o.total_epochs;
  cfg.restart_epoch = o.restart_epoch;
  cfg.precision_bits = precision_bits;
  cfg.seed = o.seed;
  return cfg;
}

// ------------------------------------------------------------ grid kinds --
//
// Every paper campaign has one shape: a fixed cell list, each cell naming
// the ExperimentRunner its trials run on (framework/model/checkpoint
// precision) plus the one knob the cell varies. Every body below was lifted
// from its bench harness with the row keys in the bench's order, so
// artifacts stay byte-identical to the pre-campaign benches.
struct CellSpec {
  std::string framework = "chainer";
  std::string model = "alexnet";
  int precision = 64;         ///< checkpoint float width
  std::uint64_t count = 0;    ///< bit-flips or scaled weights per trial
  std::string variant = "";   ///< table6 bit mask / ablation guard mode /
                              ///< fig4 injected layer
  int first_bit = 0;          ///< fig2's injected bit range
  int last_bit = 63;
  double factor = 0.0;        ///< fig7 scaling factor
};

class GridCampaign : public Campaign {
 protected:
  explicit GridCampaign(CampaignOptions opts)
      : Campaign(std::move(opts)), fp_hex_(opts_.fingerprint_hex()) {}

  void build_cell(const std::string& cell) override {
    runner_for(spec(cell)).restart_checkpoint();
  }

  void add_cell(const std::string& name, std::size_t trials, CellSpec s) {
    cells_.push_back({name, trials});
    specs_.emplace(name, std::move(s));
  }

  const CellSpec& spec(const std::string& cell) const {
    const auto it = specs_.find(cell);
    if (it == specs_.end()) {
      throw Error(opts_.bench + ": unknown cell '" + cell + "'");
    }
    return it->second;
  }

  /// The spec's runner, built on first use. Building mutates the pool, so
  /// only build_cell/clean_summary (single-threaded) call this; run_trial
  /// uses runner().
  ExperimentRunner& runner_for(const CellSpec& s) {
    std::unique_ptr<ExperimentRunner>& r = runners_[runner_key(s)];
    if (r == nullptr) {
      r = std::make_unique<ExperimentRunner>(
          experiment_config(opts_, s.framework, s.model, s.precision));
    }
    return *r;
  }

  ExperimentRunner& runner(const CellSpec& s) const {
    return *runners_.at(runner_key(s));
  }

  /// Builds, once, the canonical-coordinate context that fig4/6/7 corrupt
  /// through, from `r`'s model (each of those kinds runs one panel). Like
  /// runner_for, only build_cell calls this; run_trial reads context().
  void build_context(ExperimentRunner& r) {
    if (ctx_) return;
    const std::unique_ptr<nn::Model> model = r.make_model();
    ctx_.emplace(r.make_context(*model));
  }

  const ModelContext* context() const { return &ctx_.value(); }

  /// `value(runner)` per distinct framework/model panel, in cell order.
  template <class F>
  Json per_panel(F value) {
    Json j = Json::object();
    for (const CampaignCell& c : cells_) {
      const CellSpec& s = spec(c.name);
      const std::string panel = s.framework + "/" + s.model;
      if (!j.contains(panel)) j[panel] = value(runner_for(s));
    }
    return j;
  }

  /// The keys every row opens with.
  static Json trial_row(const std::string& cell, const TrialContext& trial) {
    Json row = Json::object();
    row["cell"] = cell;
    row["trial"] = trial.index;
    row["seed"] = std::to_string(trial.seed);
    return row;
  }

  Json stamped(Json row) const {
    stamp_fingerprint(row, fp_hex_);
    return row;
  }

 private:
  static std::string runner_key(const CellSpec& s) {
    return s.framework + "/" + s.model + "/p" + std::to_string(s.precision);
  }

  std::string fp_hex_;
  std::map<std::string, CellSpec> specs_;
  std::map<std::string, std::unique_ptr<ExperimentRunner>> runners_;
  std::optional<ModelContext> ctx_;
};

CorrupterConfig bit_range(std::uint64_t flips, int first_bit, int last_bit,
                          std::uint64_t seed) {
  CorrupterConfig cc;
  cc.injection_attempts = static_cast<double>(flips);
  cc.corruption_mode = CorruptionMode::BitRange;
  cc.first_bit = first_bit;
  cc.last_bit = last_bit;
  cc.seed = seed;
  return cc;
}

/// A row's "log" value: the log's compact text, embedded verbatim. A
/// 1000-record log built as a Json tree would cost ~7x its text in heap.
Json row_log(const InjectionLog& log) {
  std::string text;
  log.write_json(text);
  return Json::raw(std::move(text));
}

Json accuracy_curve(const nn::TrainResult& res) {
  Json a = Json::array();
  for (const auto& s : res.epochs) a.push_back(s.test_accuracy);
  return a;
}

/// The paper's first/middle/last AlexNet layers (figs 5 and 6: one trial
/// per layer).
constexpr const char* kPaperLayers[] = {"conv1", "conv4", "fc8"};

const char* paper_layer(std::size_t trial) {
  require(trial < std::size(kPaperLayers), "trial index past the layer list");
  return kPaperLayers[trial];
}

// Table IV: full-range flips (critical bit included) resumed with probes;
// rows record collapse (N-EV), accuracies and the divergence trace. Cells
// framework/model/rate.
class Table4Campaign final : public GridCampaign {
 public:
  explicit Table4Campaign(CampaignOptions opts)
      : GridCampaign(std::move(opts)) {
    for (const auto& framework : fw::framework_names()) {
      for (const auto& model : models::model_names()) {
        for (const std::uint64_t rate : {1, 10, 100, 1000}) {
          add_cell(framework + "/" + model + "/" + std::to_string(rate),
                   opts_.trainings,
                   {.framework = framework, .model = model, .count = rate});
        }
      }
    }
  }

  void build_cell(const std::string& cell) override {
    // Train the baseline and snapshot the restart checkpoint before the
    // fan-out, so trials start from a warm immutable cache; the clean probed
    // run is likewise memoized up front so trials only read it.
    ExperimentRunner& runner = runner_for(spec(cell));
    runner.restart_checkpoint();
    runner.clean_probed_run(opts_.resume_epochs);
  }

  Json run_trial(const std::string& cell, const TrialContext& trial) override {
    const CellSpec& s = spec(cell);
    ExperimentRunner& runner = this->runner(s);
    mh5::File ckpt = runner.restart_checkpoint();
    const InjectionReport rep =
        Corrupter(bit_range(s.count, 0, 63, trial.seed)).corrupt(ckpt);
    ExperimentRunner::ProbedResume probed =
        runner.resume_training_probed(ckpt, opts_.resume_epochs);
    const ExperimentRunner::CleanProbedRun& clean =
        runner.clean_probed_run(opts_.resume_epochs);
    Json row = trial_row(cell, trial);
    row["collapsed"] = probed.result.collapsed;
    row["final_accuracy"] = probed.result.final_accuracy;
    row["clean_accuracy"] = clean.result.final_accuracy;
    row["log"] = row_log(rep.log);
    row["divergence"] =
        runner.divergence_vs_clean(probed.probes, opts_.resume_epochs)
            .to_json();
    return stamped(std::move(row));
  }
};

// Table V: one flip below the exponent MSB; RWC = the resumed accuracy
// exactly equals the clean probed resume's. Cells framework/model, model-major.
class Table5Campaign final : public GridCampaign {
 public:
  explicit Table5Campaign(CampaignOptions opts)
      : GridCampaign(std::move(opts)) {
    for (const auto& model : models::model_names()) {
      for (const auto& framework : fw::framework_names()) {
        add_cell(framework + "/" + model, opts_.trainings,
                 {.framework = framework, .model = model});
      }
    }
  }

  void build_cell(const std::string& cell) override {
    runner_for(spec(cell)).clean_probed_run(opts_.resume_epochs);
  }

  Json run_trial(const std::string& cell, const TrialContext& trial) override {
    ExperimentRunner& runner = this->runner(spec(cell));
    mh5::File ckpt = runner.restart_checkpoint();
    const InjectionReport rep =
        Corrupter(bit_range(1, 0, float_layout(64).exponent_msb() - 1,
                            trial.seed))
            .corrupt(ckpt);
    ExperimentRunner::ProbedResume probed =
        runner.resume_training_probed(ckpt, opts_.resume_epochs);
    const nn::TrainResult& res = probed.result;
    const ExperimentRunner::CleanProbedRun& clean =
        runner.clean_probed_run(opts_.resume_epochs);
    Json row = trial_row(cell, trial);
    row["rwc"] = res.final_accuracy == clean.result.final_accuracy;
    row["collapsed"] = res.collapsed;
    row["final_accuracy"] = res.final_accuracy;
    row["clean_accuracy"] = clean.result.final_accuracy;
    row["log"] = row_log(rep.log);
    row["divergence"] =
        runner.divergence_vs_clean(probed.probes, opts_.resume_epochs)
            .to_json();
    return stamped(std::move(row));
  }
};

// Table VI: the five DRAM field-study bit masks (Bautista-Gomez et al.,
// SC'16), each applied to 10 weights, on ResNet50 for one resumed epoch;
// plus one error-free baseline trial per framework.
class Table6Campaign final : public GridCampaign {
 public:
  explicit Table6Campaign(CampaignOptions opts)
      : GridCampaign(std::move(opts)) {
    for (const auto& framework : fw::framework_names()) {
      for (const char* mask : {"", "10001010", "01101010", "10110010",
                               "11110001", "11101101"}) {
        const bool baseline = *mask == '\0';
        add_cell(framework + "/resnet50/mask" + (baseline ? "baseline" : mask),
                 baseline ? 1 : opts_.trainings,
                 {.framework = framework, .model = "resnet50",
                  .variant = mask});
      }
    }
  }

  Json run_trial(const std::string& cell, const TrialContext& trial) override {
    const CellSpec& s = spec(cell);
    ExperimentRunner& runner = this->runner(s);
    mh5::File ckpt = runner.restart_checkpoint();
    Json log;
    if (!s.variant.empty()) {
      CorrupterConfig cc;
      cc.corruption_mode = CorruptionMode::BitMask;
      cc.bit_mask = s.variant;
      cc.injection_attempts = 10;  // 10 weights/training (paper)
      cc.seed = trial.seed;
      const InjectionReport rep = Corrupter(cc).corrupt(ckpt);
      log = row_log(rep.log);
    }
    const nn::TrainResult res = runner.resume_training(ckpt, 1);
    Json row = trial_row(cell, trial);
    row["collapsed"] = res.collapsed;
    row["final_accuracy"] = res.final_accuracy;
    row["log"] = std::move(log);
    return stamped(std::move(row));
  }
};

// Table VII: full-range flips into 16/32-bit Chainer checkpoints. The mode
// slot carries the GEMM compute precision the resumed trainings run under;
// Campaign::prepare_cell applies it process-wide, so a fleet worker computes
// the same fp16 rows the bench does.
class Table7Campaign final : public GridCampaign {
 public:
  explicit Table7Campaign(CampaignOptions opts)
      : GridCampaign(std::move(opts)) {
    for (const int precision : {16, 32}) {
      for (const auto& model : models::model_names()) {
        for (const std::uint64_t rate : {1, 10, 100, 1000}) {
          add_cell("chainer/" + model + "/p" + std::to_string(precision) +
                       "/" + std::to_string(rate),
                   opts_.trainings,
                   {.model = model, .precision = precision, .count = rate});
        }
      }
    }
  }

  Json run_trial(const std::string& cell, const TrialContext& trial) override {
    const CellSpec& s = spec(cell);
    ExperimentRunner& runner = this->runner(s);
    mh5::File ckpt = runner.restart_checkpoint();
    // Full bit range at this width.
    CorrupterConfig cc = bit_range(s.count, 0, s.precision - 1, trial.seed);
    cc.float_precision = s.precision;
    const InjectionReport rep = Corrupter(cc).corrupt(ckpt);
    const nn::TrainResult res =
        runner.resume_training(ckpt, opts_.resume_epochs);
    Json row = trial_row(cell, trial);
    row["collapsed"] = res.collapsed;
    row["final_accuracy"] = res.final_accuracy;
    row["log"] = row_log(rep.log);
    return stamped(std::move(row));
  }
};

// Table VIII: inference-only trials on the fully trained checkpoint, each
// predicting a different half of the test set; rate 0 is the one-trial
// error-free baseline.
class Table8Campaign final : public GridCampaign {
 public:
  explicit Table8Campaign(CampaignOptions opts)
      : GridCampaign(std::move(opts)) {
    for (const int precision : {16, 32, 64}) {
      for (const auto& model : models::model_names()) {
        for (const std::uint64_t rate : {0, 1, 10, 100, 1000}) {
          add_cell("chainer/" + model + "/p" + std::to_string(precision) +
                       "/predict" + std::to_string(rate),
                   rate == 0 ? 1 : opts_.trainings,
                   {.model = model, .precision = precision, .count = rate});
        }
      }
    }
  }

  void build_cell(const std::string& cell) override {
    runner_for(spec(cell)).checkpoint_at(opts_.total_epochs);
  }

  Json run_trial(const std::string& cell, const TrialContext& trial) override {
    const CellSpec& s = spec(cell);
    ExperimentRunner& runner = this->runner(s);
    mh5::File ckpt = runner.checkpoint_at(opts_.total_epochs);
    Json log;
    if (s.count > 0) {
      // Spare the exponent MSB: prediction still runs, as in the paper.
      CorrupterConfig cc = bit_range(s.count, 0, s.precision - 2, trial.seed);
      cc.float_precision = s.precision;
      log = row_log(Corrupter(cc).corrupt(ckpt).log);
    }
    const nn::EvalResult res = runner.predict_subset(ckpt, trial.index % 2, 2);
    Json row = trial_row(cell, trial);
    row["nev"] = res.nev;
    row["accuracy"] = res.accuracy;
    row["log"] = std::move(log);
    return stamped(std::move(row));
  }
};

// Figure 2: 1000 flips confined to each bit range of Chainer/AlexNet.
class Fig2Campaign final : public GridCampaign {
 public:
  explicit Fig2Campaign(CampaignOptions opts) : GridCampaign(std::move(opts)) {
    struct Range {
      const char* label;
      int first, last;
    };
    for (const Range& r : {Range{"[0,63] full value", 0, 63},
                           Range{"[0,62] no sign", 0, 62},
                           Range{"[0,61] no sign, no exp MSB", 0, 61},
                           Range{"[52,62] exponent incl MSB", 52, 62},
                           Range{"[52,61] exponent excl MSB", 52, 61},
                           Range{"[0,51] mantissa only", 0, 51},
                           Range{"[62,62] exponent MSB only", 62, 62}}) {
      add_cell(std::string("fig2/") + r.label, opts_.trainings,
               {.first_bit = r.first, .last_bit = r.last});
    }
  }

  Json run_trial(const std::string& cell, const TrialContext& trial) override {
    const CellSpec& s = spec(cell);
    ExperimentRunner& runner = this->runner(s);
    mh5::File ckpt = runner.restart_checkpoint();
    const InjectionReport rep =
        Corrupter(bit_range(1000, s.first_bit, s.last_bit, trial.seed))
            .corrupt(ckpt);
    const nn::TrainResult res =
        runner.resume_training(ckpt, opts_.resume_epochs);
    Json row = trial_row(cell, trial);
    row["collapsed"] = res.collapsed;
    row["final_accuracy"] = res.final_accuracy;
    row["flips_applied"] = rep.log.size();
    return stamped(std::move(row));
  }
};

// Figure 3: accuracy curves (resumed to total_epochs) under 10..1000 flips
// with the exponent MSB excluded, in three framework/model panels.
class Fig3Campaign final : public GridCampaign {
 public:
  explicit Fig3Campaign(CampaignOptions opts) : GridCampaign(std::move(opts)) {
    for (const auto& [framework, model] :
         {std::pair{"chainer", "resnet50"}, std::pair{"pytorch", "vgg16"},
          std::pair{"tensorflow", "alexnet"}}) {
      for (const std::uint64_t rate : {10, 100, 500, 1000}) {
        add_cell(std::string(framework) + "/" + model + "/" +
                     std::to_string(rate),
                 opts_.trainings,
                 {.framework = framework, .model = model, .count = rate});
      }
    }
  }

  void build_cell(const std::string& cell) override {
    runner_for(spec(cell)).clean_resume();
  }

  /// Panel -> error-free per-epoch accuracy curve.
  Json clean_summary() override {
    return per_panel(
        [](ExperimentRunner& r) { return accuracy_curve(r.clean_resume()); });
  }

  Json run_trial(const std::string& cell, const TrialContext& trial) override {
    const CellSpec& s = spec(cell);
    ExperimentRunner& runner = this->runner(s);
    mh5::File ckpt = runner.restart_checkpoint();
    // Exponent MSB excluded (paper Section V-C).
    const InjectionReport rep =
        Corrupter(bit_range(s.count, 0, 61, trial.seed)).corrupt(ckpt);
    const nn::TrainResult res = runner.resume_training(ckpt);
    Json row = trial_row(cell, trial);
    row["curve"] = accuracy_curve(res);
    row["log"] = row_log(rep.log);
    return stamped(std::move(row));
  }
};

// Figure 4: 1000 flips confined to one chainer/alexnet layer per cell. Mode
// "train" resumes training (the paper's trajectories); mode "predict" is the
// inference-only campaign, where every test batch of a deep-layer trial
// reuses the cached prefix when prefix reuse is on — the one trial path
// CampaignOptions::prefix_reuse selects.
class Fig4Campaign final : public GridCampaign {
 public:
  explicit Fig4Campaign(CampaignOptions opts) : GridCampaign(std::move(opts)) {
    std::vector<std::string> layers = opts_.layers;
    if (layers.empty())
      layers.assign(std::begin(kPaperLayers), std::end(kPaperLayers));
    for (const std::string& layer : layers) {
      add_cell((predict() ? "fig4predict/" : "fig4/") + layer, opts_.trainings,
               {.variant = layer});
    }
  }

  void build_cell(const std::string& cell) override {
    ExperimentRunner& runner = runner_for(spec(cell));
    runner.restart_checkpoint();
    if (!predict()) runner.clean_probed_run();
    build_context(runner);
  }

  /// Train mode: the error-free trajectory and its final accuracy.
  Json clean_summary() override {
    if (predict()) return Json();
    const nn::TrainResult& clean = runner_for({}).clean_probed_run().result;
    Json j = Json::object();
    j["trajectory"] = accuracy_curve(clean);
    j["final_accuracy"] = clean.final_accuracy;
    return j;
  }

  Json run_trial(const std::string& cell, const TrialContext& trial) override {
    const CellSpec& s = spec(cell);
    ExperimentRunner& runner = this->runner(s);
    mh5::File ckpt = runner.restart_checkpoint();
    CorrupterConfig cc = bit_range(1000, 0, 61, trial.seed);
    cc.use_random_locations = false;
    cc.locations_to_corrupt = {"predictor/" + s.variant};
    InjectionReport rep = Corrupter(cc).corrupt(ckpt, context());
    Json row = trial_row(cell, trial);

    if (predict()) {
      const nn::EvalResult ev = runner.predict(
          ckpt, opts_.prefix_reuse ? runner.entry_segment(rep.log) : 0);
      row["accuracy"] = ev.accuracy;
      row["nev"] = ev.nev;
      row["log"] = row_log(rep.log);
      return stamped(std::move(row));
    }

    ExperimentRunner::ProbedResume probed = runner.resume_training_probed(ckpt);
    const obs::DivergenceTrace div = runner.divergence_vs_clean(probed.probes);
    if (trial.index == 0) {
      // Trial 0's log is the replayable artifact: it carries the model
      // meta and its divergence trace, so the row alone can seed a replay
      // (core::replay_injection_log) wherever it was produced.
      rep.log.set_meta("framework", "chainer");
      rep.log.set_meta("model", "alexnet");
      rep.log.set_divergence(div.to_json());
    }
    row["collapsed"] = probed.result.collapsed;
    row["final_accuracy"] = probed.result.final_accuracy;
    row["clean_accuracy"] = runner.clean_probed_run().result.final_accuracy;
    row["accuracy"] = accuracy_curve(probed.result);
    row["log"] = row_log(rep.log);
    row["divergence"] = div.to_json();
    return stamped(std::move(row));
  }

 private:
  bool predict() const { return opts_.mode == "predict"; }
};

// Figure 5: a Chainer/AlexNet per-layer injection sequence replayed at the
// equivalent location of PyTorch and TensorFlow checkpoints. The source logs
// are a function of the options alone (one corruption per layer at seed
// seed * 97), so every process that builds them builds the same ones.
class Fig5Campaign final : public GridCampaign {
 public:
  explicit Fig5Campaign(CampaignOptions opts) : GridCampaign(std::move(opts)) {
    for (const char* target : {"pytorch", "tensorflow"}) {
      add_cell(std::string("fig5/") + target, std::size(kPaperLayers),
               {.framework = target});
    }
  }

  void build_cell(const std::string& cell) override {
    runner_for(spec(cell)).clean_resume();
    if (!logs_.empty()) return;
    ExperimentRunner& source = runner_for({});  // chainer/alexnet
    const std::unique_ptr<nn::Model> model = source.make_model();
    const ModelContext ctx = source.make_context(*model);
    for (const char* layer : kPaperLayers) {
      mh5::File ckpt = source.restart_checkpoint();
      CorrupterConfig cc = bit_range(1000, 0, 61, opts_.seed * 97);
      cc.use_random_locations = false;
      cc.locations_to_corrupt = {std::string("predictor/") + layer};
      InjectionReport rep = Corrupter(cc).corrupt(ckpt, &ctx);
      rep.log.set_meta("framework", "chainer");
      rep.log.set_meta("model", "alexnet");
      logs_.emplace(layer, std::move(rep.log));
    }
  }

  /// Panel -> error-free per-epoch accuracy curve of the target framework.
  Json clean_summary() override {
    return per_panel(
        [](ExperimentRunner& r) { return accuracy_curve(r.clean_resume()); });
  }

  Json run_trial(const std::string& cell, const TrialContext& trial) override {
    ExperimentRunner& target = runner(spec(cell));
    const char* layer = paper_layer(trial.index);
    mh5::File ckpt = target.restart_checkpoint();
    // A model per trial: replay reads its parameter table, which a model
    // shared across concurrent trials would rebuild under their feet.
    const std::unique_ptr<nn::Model> model = target.make_model();
    const ReplayStats stats = replay_injection_log(
        logs_.at(layer), ckpt, *model, target.adapter(),
        ReplayMode::SameLayerBit, trial.seed);
    const nn::TrainResult res = target.resume_training(ckpt);
    Json row = trial_row(cell, trial);
    row["layer"] = layer;
    row["replayed"] = stats.replayed;
    row["final_accuracy"] = res.final_accuracy;
    row["accuracy"] = accuracy_curve(res);
    return stamped(std::move(row));
  }

 private:
  std::map<std::string, InjectionLog> logs_;  ///< layer -> source log
};

// Figure 6: 1000 flips into one TensorFlow/AlexNet layer, trained onward and
// diffed weight-by-weight against the clean twin, with the probe divergence
// trace riding along. One cell, one trial per layer.
class Fig6Campaign final : public GridCampaign {
 public:
  explicit Fig6Campaign(CampaignOptions opts) : GridCampaign(std::move(opts)) {
    add_cell("fig6/propagation", std::size(kPaperLayers),
             {.framework = "tensorflow"});
  }

  void build_cell(const std::string& cell) override {
    ExperimentRunner& runner = runner_for(spec(cell));
    // The clean probed resume is both the weight-diff twin (same restart =>
    // same zeroed optimizer velocity, so every nonzero diff is
    // injection-caused) and the divergence baseline.
    runner.clean_probed_run();
    build_context(runner);
  }

  Json run_trial(const std::string& cell, const TrialContext& trial) override {
    ExperimentRunner& runner = this->runner(spec(cell));
    const char* layer = paper_layer(trial.index);
    mh5::File ckpt = runner.restart_checkpoint();
    CorrupterConfig cc = bit_range(1000, 0, 61, trial.seed);
    cc.use_random_locations = false;
    cc.locations_to_corrupt = {std::string("model_weights/") + layer};
    const InjectionReport rep = Corrupter(cc).corrupt(ckpt, context());
    ExperimentRunner::ProbedResume probed = runner.resume_training_probed(ckpt);
    const ExperimentRunner::CleanProbedRun& clean = runner.clean_probed_run();

    // Only weights that differ from the clean twin count (paper).
    std::vector<double> diffs;
    for (const auto& p : probed.model->params()) {
      const auto& clean_w = clean.final_weights.at(p.name);
      for (std::size_t i = 0; i < clean_w.size(); ++i) {
        const double d = (*p.value)[i] - clean_w[i];
        if (d != 0.0 && std::isfinite(d)) diffs.push_back(std::fabs(d));
      }
    }
    const BoxplotStats box =
        diffs.empty() ? BoxplotStats{} : boxplot_stats(diffs);
    Json row = trial_row(cell, trial);
    row["layer"] = layer;
    row["collapsed"] = probed.result.collapsed;
    row["final_accuracy"] = probed.result.final_accuracy;
    row["clean_accuracy"] = clean.result.final_accuracy;
    row["diff_weights"] = diffs.size();
    row["q1"] = box.q1;
    row["median"] = box.median;
    row["q3"] = box.q3;
    row["whisker_lo"] = box.whisker_lo;
    row["whisker_hi"] = box.whisker_hi;
    row["n_outliers"] = box.n_outliers;
    row["divergence"] = runner.divergence_vs_clean(probed.probes).to_json();
    return stamped(std::move(row));
  }
};

// Figure 7: Chainer/ResNet50 weight tensors multiplied by a scaling factor
// (factor x affected-weight-count heat map), predicted from the fully
// trained checkpoint. Row accuracy is in percent.
class Fig7Campaign final : public GridCampaign {
 public:
  explicit Fig7Campaign(CampaignOptions opts) : GridCampaign(std::move(opts)) {
    for (const std::uint64_t n : {10, 100, 500, 1000}) {
      for (const double factor : {1.5, 15.0, 150.0, 1500.0, 4500.0}) {
        add_cell("fig7/" + std::to_string(n) + "x" + format_fixed(factor, 1),
                 opts_.trainings,
                 {.model = "resnet50", .count = n, .factor = factor});
      }
    }
  }

  void build_cell(const std::string& cell) override {
    ExperimentRunner& runner = runner_for(spec(cell));
    runner.checkpoint_at(opts_.total_epochs);
    build_context(runner);
    if (!weight_locations_.empty()) return;
    // The paper scales "values of the model": weight (W) datasets only.
    const ExperimentConfig& cfg = runner.config();
    for (const auto& layer :
         models::make_model(cfg.model, cfg.model_cfg)->weight_layer_names()) {
      weight_locations_.push_back(runner.adapter().dataset_path(
          layer + "/W", layer.rfind("fc", 0) == 0 ? fw::ParamKind::DenseW
                                                  : fw::ParamKind::ConvW));
    }
  }

  /// Panel -> uncorrupted prediction accuracy of the trained checkpoint.
  Json clean_summary() override {
    return per_panel([&](ExperimentRunner& r) {
      return Json(r.predict(r.checkpoint_at(opts_.total_epochs)).accuracy);
    });
  }

  Json run_trial(const std::string& cell, const TrialContext& trial) override {
    const CellSpec& s = spec(cell);
    ExperimentRunner& runner = this->runner(s);
    mh5::File ckpt = runner.checkpoint_at(opts_.total_epochs);
    CorrupterConfig cc;
    cc.corruption_mode = CorruptionMode::ScalingFactor;
    cc.scaling_factor = s.factor;
    cc.injection_attempts = static_cast<double>(s.count);
    cc.use_random_locations = false;
    cc.locations_to_corrupt = weight_locations_;
    cc.seed = trial.seed;
    Corrupter(cc).corrupt(ckpt, context());
    Json row = trial_row(cell, trial);
    row["accuracy"] = 100.0 * runner.predict(ckpt).accuracy;
    return stamped(std::move(row));
  }

 private:
  std::vector<std::string> weight_locations_;
};

// Ablation (paper Discussion VI.1): critical-bit corruption resumed
// unguarded vs behind the Zero/Clamp N-EV repair guard.
class AblationCampaign final : public GridCampaign {
 public:
  explicit AblationCampaign(CampaignOptions opts)
      : GridCampaign(std::move(opts)) {
    for (const std::uint64_t flips : {100, 1000}) {
      for (const char* mode : {"unguarded", "guard: zero", "guard: clamp"}) {
        add_cell("ablation/" + std::to_string(flips) + "/" + mode,
                 opts_.trainings, {.count = flips, .variant = mode});
      }
    }
  }

  /// Panel -> final accuracy of the clean restart resumed resume_epochs.
  Json clean_summary() override {
    return per_panel([&](ExperimentRunner& r) {
      return Json(r.resume_training(r.restart_checkpoint(), opts_.resume_epochs)
                      .final_accuracy);
    });
  }

  Json run_trial(const std::string& cell, const TrialContext& trial) override {
    const CellSpec& s = spec(cell);
    ExperimentRunner& runner = this->runner(s);
    mh5::File ckpt = runner.restart_checkpoint();
    // Critical bit INCLUDED: the collapse regime of Table IV.
    Corrupter(bit_range(s.count, 0, 63, trial.seed)).corrupt(ckpt);
    if (s.variant != "unguarded") {
      GuardConfig gc;
      gc.action = s.variant == "guard: clamp" ? RepairAction::Clamp
                                              : RepairAction::Zero;
      guard_checkpoint(ckpt, gc);
    }
    const nn::TrainResult res =
        runner.resume_training(ckpt, opts_.resume_epochs);
    Json row = trial_row(cell, trial);
    row["collapsed"] = res.collapsed;
    row["final_accuracy"] = res.final_accuracy;
    return stamped(std::move(row));
  }
};

template <class Kind>
std::unique_ptr<Campaign> make_kind(const CampaignOptions& opts) {
  return std::make_unique<Kind>(opts);
}

/// The campaign registry: kind name (CampaignOptions::bench, and the name
/// every row fingerprint was computed with) -> constructor, and the modes
/// the kind runs ('|'-separated).
struct KindEntry {
  const char* name;
  std::unique_ptr<Campaign> (*make)(const CampaignOptions&);
  const char* modes = "train";
};
constexpr KindEntry kKinds[] = {
    {"table4", make_kind<Table4Campaign>},
    {"table5", make_kind<Table5Campaign>},
    {"table6", make_kind<Table6Campaign>},
    {"table7", make_kind<Table7Campaign>, "fp64|fp16"},
    {"table8", make_kind<Table8Campaign>},
    {"fig2", make_kind<Fig2Campaign>},
    {"fig3", make_kind<Fig3Campaign>},
    {"fig4", make_kind<Fig4Campaign>, "train|predict"},
    {"fig5", make_kind<Fig5Campaign>},
    {"fig6", make_kind<Fig6Campaign>},
    {"fig7", make_kind<Fig7Campaign>},
    {"ablation_nev_guard", make_kind<AblationCampaign>},
};

}  // namespace

std::vector<std::string> campaign_kinds() {
  std::vector<std::string> names;
  for (const KindEntry& k : kKinds) names.emplace_back(k.name);
  return names;
}

void Campaign::prepare_cell(const std::string& cell) {
  set_gemm_precision(opts_.bench == "table7" && opts_.mode == "fp16"
                         ? GemmPrecision::kFp16
                         : GemmPrecision::kFp64);
  build_cell(cell);
}

std::unique_ptr<Campaign> Campaign::make(const CampaignOptions& opts) {
  for (const KindEntry& k : kKinds) {
    if (opts.bench != k.name) continue;
    const std::vector<std::string> modes = split_path(k.modes, '|');
    if (std::find(modes.begin(), modes.end(), opts.mode) == modes.end()) {
      throw Error(opts.bench + ": unknown mode '" + opts.mode + "' (runs: " +
                  k.modes + ")");
    }
    // Options no trial can run with are refused here, before any cell
    // trains, instead of surfacing as an exception inside a trial.
    for (const auto& [field, value] :
         {std::pair{"width", opts.width},
          std::pair{"train_images", opts.train_images},
          std::pair{"test_images", opts.test_images}}) {
      if (value == 0) {
        throw Error(opts.bench + ": '" + field + "' must be at least 1");
      }
    }
    if (opts.restart_epoch >= opts.total_epochs) {
      throw Error(opts.bench + ": 'restart_epoch' (" +
                  std::to_string(opts.restart_epoch) +
                  ") must be below 'total_epochs' (" +
                  std::to_string(opts.total_epochs) + ")");
    }
    return k.make(opts);
  }
  std::string names;
  for (const KindEntry& k : kKinds) {
    names += names.empty() ? "" : ", ";
    names += k.name;
  }
  throw Error("unknown campaign kind '" + opts.bench + "' (registered: " +
              names + ")");
}

Json campaign_manifest(const Campaign& campaign) {
  Json j = Json::object();
  j["ckptfi_fleet_manifest"] = 1;
  j["options"] = campaign.options().to_json();
  j["fp"] = campaign.options().fingerprint_hex();
  Json cells = Json::array();
  for (const CampaignCell& c : campaign.cells()) {
    Json cj = Json::object();
    cj["name"] = c.name;
    cj["trials"] = c.trials;
    cells.push_back(std::move(cj));
  }
  j["cells"] = std::move(cells);
  return j;
}

std::unique_ptr<Campaign> campaign_from_manifest(const Json& manifest) {
  if (!manifest.is_object() || !manifest.contains("ckptfi_fleet_manifest") ||
      manifest.at("ckptfi_fleet_manifest").as_int() != 1) {
    throw FormatError("not a ckptfi fleet manifest (version 1)");
  }
  const CampaignOptions opts =
      CampaignOptions::from_json(manifest.at("options"));
  if (manifest.contains("fp") &&
      manifest.at("fp").as_string() != opts.fingerprint_hex()) {
    throw FormatError("manifest fingerprint " +
                      manifest.at("fp").as_string() +
                      " does not match its options (recomputed " +
                      opts.fingerprint_hex() + "); refusing a drifted manifest");
  }
  return Campaign::make(opts);
}

}  // namespace ckptfi::core
