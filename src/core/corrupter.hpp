// Corrupter: the checkpoint-alteration fault injector (paper Section IV-B).
//
// Soft errors are simulated by altering a previously saved checkpoint file
// rather than instrumenting the application: when the training process loads
// the corrupted model it "continues execution normally as if nothing
// happened". The corrupter is application-independent — it sees only an mh5
// container — but can optionally be given a model context so each injection
// is also recorded in canonical model coordinates for equivalent injection.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>

#include "core/corrupter_config.hpp"
#include "core/injection_log.hpp"
#include "frameworks/framework.hpp"
#include "hdf5/file.hpp"
#include "util/rng.hpp"

namespace ckptfi::core {

/// Optional model-awareness: lets the corrupter translate dataset paths and
/// stored indices back to canonical (layer, param, index) coordinates.
class ModelContext {
 public:
  ModelContext(nn::Model& model, const fw::FrameworkAdapter& adapter);

  struct ParamInfo {
    std::string canonical_param;  ///< "conv1_1/W"
    std::string layer;            ///< "conv1_1"
    Shape canonical_dims;
    fw::ParamKind kind;
  };

  /// Info for a checkpoint dataset path; nullptr when the path does not map
  /// to a model parameter.
  const ParamInfo* lookup(const std::string& dataset_path) const;

  const fw::FrameworkAdapter& adapter() const { return adapter_; }

 private:
  const fw::FrameworkAdapter& adapter_;
  std::map<std::string, ParamInfo> by_path_;
};

/// Outcome counters for one corruption run.
struct InjectionReport {
  std::uint64_t attempts = 0;     ///< injection attempts performed
  std::uint64_t injections = 0;   ///< values actually corrupted
  std::uint64_t prob_skipped = 0; ///< attempts skipped by injection_probability
  std::uint64_t nan_retries = 0;  ///< corruptions discarded by the NaN filter
  std::uint64_t nan_gave_up = 0;  ///< attempts abandoned after max retries
  std::uint64_t bytes_scanned = 0; ///< dataset bytes read while corrupting
  InjectionLog log;               ///< ordered record of every injection
};

class Corrupter {
 public:
  explicit Corrupter(CorrupterConfig cfg);

  const CorrupterConfig& config() const { return cfg_; }

  /// Corrupt an in-memory checkpoint. `ctx` (optional) adds canonical
  /// coordinates to the log.
  InjectionReport corrupt(mh5::File& file, const ModelContext* ctx = nullptr);

  /// Load `in_path`, corrupt, save to `out_path` (which may equal in_path).
  InjectionReport corrupt_file(const std::string& in_path,
                               const std::string& out_path,
                               const ModelContext* ctx = nullptr);

  /// The corruptible dataset paths this config resolves to within `file`
  /// (step 1 of the paper's workflow). Exposed for tests/benches.
  std::vector<std::string> resolve_locations(const mh5::File& file) const;

  /// The number of injection attempts this config implies for `file`
  /// (step 2 of the paper's workflow).
  std::uint64_t resolve_attempts(const mh5::File& file) const;

 private:
  /// A resolved location of the current run: its path, its dataset and its
  /// model coordinates (null without a context or for a non-parameter).
  struct Target {
    const std::string* path = nullptr;
    mh5::Dataset* ds = nullptr;
    const ModelContext::ParamInfo* info = nullptr;
  };

  /// One corruption of a float dataset element; returns false if the NaN
  /// filter exhausted its retries.
  bool corrupt_float(const Target& t, std::uint64_t index,
                     const ModelContext* ctx, InjectionReport& report);
  void corrupt_int(const Target& t, std::uint64_t index,
                   const ModelContext* ctx, InjectionReport& report);

  /// Logs one injection; `ctx` maps the stored index when `t.info` is set.
  void record(const Target& t, std::uint64_t stored_index,
              std::vector<int> bits, std::optional<double> scale,
              double old_value, double new_value, const ModelContext* ctx,
              InjectionReport& report);

  CorrupterConfig cfg_;
  Rng rng_;
  /// Start of the current corrupt() run; origin of the log's wall_ms offsets.
  std::chrono::steady_clock::time_point run_start_;
  /// Whether any obs facility was enabled when the current run started;
  /// provenance (wall_ms / rng_draw) is stamped only when true.
  bool provenance_armed_ = false;
};

}  // namespace ckptfi::core
