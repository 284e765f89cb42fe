// Layer containers: Sequential chains and Residual (skip-connection) blocks.
#pragma once

#include <memory>
#include <vector>

#include "nn/layer.hpp"
#include "tensor/bitmask.hpp"

namespace ckptfi::nn {

/// Runs layers in order; backward in reverse order.
class Sequential : public Layer {
 public:
  explicit Sequential(std::string name = "seq") : Layer(std::move(name)) {}

  /// Append a layer; returns a reference for chaining.
  Sequential& add(LayerPtr layer);

  /// Convenience: construct in place.
  template <typename L, typename... Args>
  Sequential& emplace(Args&&... args) {
    return add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  std::size_t size() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }
  const Layer& layer(std::size_t i) const { return *layers_.at(i); }

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& dy) override;
  void collect_params(std::vector<ParamRef>& out) override;
  void init_params(Rng& rng) override;

  // --- segment view (prefix-reuse; DESIGN.md "Segment graph") -------------
  // Top-level layers are the segments: stable 0-based indices, one boundary
  // activation between consecutive segments. forward() ≡ forward_span(0,
  // size(), ...), and a prefix-entered trial replays [0, seg) from cache
  // then runs forward_span(seg, size(), ...).

  /// Run layers [from, to); returns the activation leaving layer to-1 (or
  /// `x` when the span is empty). Probe recording matches forward() for the
  /// layers actually run — the caller splices cached stats for the rest.
  Tensor forward_span(std::size_t from, std::size_t to, const Tensor& x,
                      bool training);

  /// True when every layer in [0, end) may be skipped by a prefix-reuse
  /// trial of the given mode (see Layer::prefix_safe).
  bool prefix_safe_upto(std::size_t end, bool training) const;

  /// Capture/restore the forward state of layers [0, end), in layer order
  /// (containers recurse). Restore must consume exactly what capture wrote.
  void capture_state_upto(std::size_t end, PrefixState& out) const;
  void restore_state_upto(std::size_t end, PrefixStateReader& in);

  // Whole-container recursion (a Sequential nested inside a Residual
  // captures all of its layers).
  bool prefix_safe(bool training) const override;
  void capture_forward_state(PrefixState& out) const override;
  void restore_forward_state(PrefixStateReader& in) override;

 private:
  std::vector<LayerPtr> layers_;
};

/// y = relu(main(x) + shortcut(x)); shortcut is identity when null. This is
/// the ResNet building block (paper Section III-A: "skip connections ...
/// input of a previous layer is added directly to the output of another").
class Residual : public Layer {
 public:
  Residual(std::string name, LayerPtr main_path, LayerPtr shortcut = nullptr);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& dy) override;
  void collect_params(std::vector<ParamRef>& out) override;
  void init_params(Rng& rng) override;

  /// A Residual is one segment: prefix-safe iff both branches are, and its
  /// captured footprint is the join ReLU mask plus both branches' state.
  bool prefix_safe(bool training) const override;
  void capture_forward_state(PrefixState& out) const override;
  void restore_forward_state(PrefixStateReader& in) override;

 private:
  LayerPtr main_;
  LayerPtr shortcut_;  // nullptr => identity
  BitMask relu_mask_;
};

}  // namespace ckptfi::nn
