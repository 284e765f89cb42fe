// Model: a named network with canonical parameter names and layer metadata.
//
// Canonical parameter names ("conv1_1/W") are the coordinate system shared by
// all framework adapters; the injector's equivalent-injection log records
// locations in this space.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "nn/sequential.hpp"

namespace ckptfi::nn {

class Model {
 public:
  Model(std::string name, Shape input_shape, std::size_t num_classes,
        std::unique_ptr<Sequential> net);

  const std::string& name() const { return name_; }
  const Shape& input_shape() const { return input_shape_; }  ///< [C,H,W]
  std::size_t num_classes() const { return num_classes_; }

  Tensor forward(const Tensor& x, bool training) {
    return net_->forward(x, training);
  }
  Tensor backward(const Tensor& dy) { return net_->backward(dy); }

  /// Initialise all parameters from a seed (deterministic).
  void init(std::uint64_t seed);

  /// All parameters in topological order (stable across calls).
  const std::vector<ParamRef>& params();

  /// Parameter by canonical name; nullptr when absent.
  ParamRef* find_param(const std::string& name);

  /// Canonical layer names in topological order (deduped param-name
  /// prefixes): "conv1_1", "bn1", "fc8", ... Used for first/middle/last
  /// layer targeting (paper Figs. 4-6).
  std::vector<std::string> layer_names();

  /// Layer names that carry weights ("W"), i.e. conv/dense layers — the
  /// paper's notion of the network's layers.
  std::vector<std::string> weight_layer_names();

  /// Total trainable parameter count.
  std::size_t num_parameters();

  /// True if any parameter is NaN/Inf.
  bool has_non_finite_params();

  // --- segment view (prefix-reuse; DESIGN.md "Segment graph") -------------
  // Segments are the root Sequential's top-level layers, in forward order:
  // stable 0-based indices with one boundary activation between consecutive
  // segments. A Residual (with its nested branches) is a single segment —
  // canonical layers inside it map to the containing top-level index, which
  // keeps entry points conservative: entering *at* a segment never splits a
  // container. Both entry points run eval forwards, which are pure, so any
  // segment is a valid entry.

  /// Sentinel for "layer not found" from segment_of_layer.
  static constexpr std::size_t kNoSegment = static_cast<std::size_t>(-1);

  /// Segment owning a canonical layer name ("conv4", "stage2_block1_conv2");
  /// kNoSegment when no parameter-bearing layer matches.
  std::size_t segment_of_layer(const std::string& layer);

  /// Eval-run segments [0, seg) and return the boundary activation entering
  /// `seg` — the prefix-cache build pass.
  Tensor forward_prefix(std::size_t seg, const Tensor& x) {
    return net_->forward_span(0, seg, x, /*training=*/false);
  }

  /// Enter the network at segment `seg` with a cached boundary activation
  /// and eval-run the rest.
  Tensor forward_from(std::size_t seg, const Tensor& boundary);

 private:
  void refresh_params();

  std::string name_;
  Shape input_shape_;
  std::size_t num_classes_;
  std::unique_ptr<Sequential> net_;
  std::vector<ParamRef> params_;
  bool params_dirty_ = true;
  /// canonical layer name -> owning top-level segment (built lazily).
  std::map<std::string, std::size_t> layer_segments_;
  bool layer_segments_built_ = false;
};

}  // namespace ckptfi::nn
