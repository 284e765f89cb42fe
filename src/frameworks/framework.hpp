// Framework adapters: Chainer / PyTorch / TensorFlow checkpoint conventions.
//
// The paper's cross-framework axis is, from the injector's point of view,
// "same model, different checkpoint layout + independently trained values"
// (see DESIGN.md). Each adapter reproduces a real framework's conventions:
//
//              Chainer                PyTorch                TensorFlow
//   path    predictor/<layer>/W   state_dict/<layer>.weight  model_weights/<layer>/kernel
//   conv W  OIHW                  OIHW                       HWIO
//   dense W [out,in]              [out,in]                   [in,out]
//   BN      gamma/beta/avg_*      weight/bias/running_*      gamma/beta/moving_*
//   init    per-framework stream  per-framework stream       per-framework stream
//
// Canonical engine-side layouts are conv OIHW and dense [in,out].
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hdf5/file.hpp"
#include "nn/model.hpp"

namespace ckptfi::fw {

/// What a parameter is, which decides its checkpoint leaf name and layout.
enum class ParamKind {
  ConvW,
  DenseW,
  Bias,
  Gamma,
  Beta,
  RunningMean,
  RunningVar,
};

/// Classify a canonical parameter by leaf name and rank. Throws on unknown
/// leaf names.
ParamKind classify_param(const std::string& canonical_name,
                         const Tensor& value);

/// Split "layer/leaf" into its parts.
std::pair<std::string, std::string> split_canonical(
    const std::string& canonical_name);

class FrameworkAdapter {
 public:
  virtual ~FrameworkAdapter() = default;

  virtual std::string name() const = 0;

  /// Checkpoint dataset path for a canonical parameter.
  virtual std::string dataset_path(const std::string& canonical_name,
                                   ParamKind kind) const = 0;

  /// Dims of the stored tensor (a permutation of the canonical dims).
  virtual Shape stored_dims(const Shape& canonical_dims,
                            ParamKind kind) const;

  /// Flat index into the stored tensor for canonical flat index `idx`.
  virtual std::uint64_t stored_index(std::uint64_t idx,
                                     const Shape& canonical_dims,
                                     ParamKind kind) const;

  /// Inverse of stored_index.
  virtual std::uint64_t canonical_index(std::uint64_t stored_idx,
                                        const Shape& canonical_dims,
                                        ParamKind kind) const;

  /// Deterministic per-framework initialisation seed. Distinct frameworks
  /// train distinct weights from the same base seed, as on the paper's
  /// testbed where each framework runs its own training.
  std::uint64_t init_seed(std::uint64_t base_seed) const;

  /// Serialize the model into an mh5 checkpoint at `precision_bits`
  /// (16/32/64). Root attributes record framework/model/epoch/precision.
  void save_checkpoint(nn::Model& model, const std::string& path,
                       int precision_bits, std::int64_t epoch) const;

  /// In-memory variant (used by tests and by the experiment runner to avoid
  /// disk churn).
  mh5::File checkpoint_to_file(nn::Model& model, int precision_bits,
                               std::int64_t epoch) const;

  /// Load a checkpoint produced by save_checkpoint back into the model.
  /// Values quantised at save time load exactly; layouts are un-permuted.
  void load_checkpoint(nn::Model& model, const std::string& path) const;
  /// Overwrites every param of `model`, or throws when a dataset is missing
  /// or wrong-sized, so the model need not be initialised first.
  void load_from_file(nn::Model& model, const mh5::File& file) const;

  /// canonical name -> checkpoint dataset path, for every model parameter.
  std::map<std::string, std::string> path_map(nn::Model& model) const;

  /// checkpoint dataset path -> canonical name (inverse of path_map).
  std::map<std::string, std::string> inverse_path_map(nn::Model& model) const;
};

/// Adapter factory: "chainer", "pytorch", "tensorflow".
std::unique_ptr<FrameworkAdapter> make_adapter(const std::string& name);

/// The three studied frameworks, in the paper's column order.
const std::vector<std::string>& framework_names();

/// Epoch recorded in a checkpoint's root attributes.
std::int64_t checkpoint_epoch(const mh5::File& file);
/// Precision (bits) recorded in a checkpoint's root attributes.
int checkpoint_precision(const mh5::File& file);
/// Framework name recorded in a checkpoint's root attributes.
std::string checkpoint_framework(const mh5::File& file);

}  // namespace ckptfi::fw
