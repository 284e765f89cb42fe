// PrefixState: serializable forward-state snapshots for prefix-reuse trials.
//
// A training trial that enters the network at segment S skips the upstream
// forward pass — but its backward pass still runs through segments [0, S),
// which read the forward caches (input caches, ReLU masks, pool argmaxes,
// BatchNorm batch statistics) those skipped forwards would have written.
// PrefixState is the container a layer's forward state is captured into once
// (from the clean baseline's batch-0 forward) and restored from on every
// trial, so the skipped prefix behaves bitwise-identically to having run.
//
// The representation is deliberately flat — tagged blocks of f64/u64 words
// in capture order — so core::PrefixCache can stream it through the mh5
// Sink/Source layer to spill big prefixes to disk without nn depending on
// the checkpoint format. Capture and restore must traverse layers in the
// same order; the tag check on every take_* catches schema drift loudly
// instead of silently corrupting a trial.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/bitmask.hpp"
#include "tensor/tensor.hpp"

namespace ckptfi::nn {

class PrefixState {
 public:
  enum class Tag : std::uint8_t {
    kTensor = 0,   ///< shape in u64, row-major data in f64
    kMask = 1,     ///< 0/1 per element in u64
    kIndices = 2,  ///< raw indices in u64
    kShape = 3,    ///< dims in u64
    kScalars = 4,  ///< raw doubles in f64
  };

  /// One captured unit of layer state.
  struct Block {
    Tag tag = Tag::kTensor;
    std::vector<double> f64;
    std::vector<std::uint64_t> u64;
  };

  // --- capture side -------------------------------------------------------
  void put_tensor(const Tensor& t);
  void put_mask(const BitMask& m);
  void put_indices(const std::vector<std::size_t>& v);
  void put_shape(const Shape& s);
  void put_scalars(const std::vector<double>& v);

  // --- flat access (serialization + cache accounting) ---------------------
  const std::vector<Block>& blocks() const { return blocks_; }
  void append_block(Block b) { blocks_.push_back(std::move(b)); }
  std::size_t block_count() const { return blocks_.size(); }
  bool empty() const { return blocks_.empty(); }
  void clear() { blocks_.clear(); }

  /// Payload estimate (bytes of f64 + u64 words) for cache budgeting.
  std::size_t byte_size() const;

 private:
  std::vector<Block> blocks_;
};

/// Sequential cursor over a (shared, immutable) PrefixState. Each restoring
/// trial owns its own reader, so concurrent trials can restore from one
/// cached snapshot without synchronisation.
class PrefixStateReader {
 public:
  explicit PrefixStateReader(const PrefixState& state) : state_(&state) {}

  void take_tensor(Tensor& t);
  void take_mask(BitMask& m);
  void take_indices(std::vector<std::size_t>& v);
  void take_shape(Shape& s);
  void take_scalars(std::vector<double>& v);

  /// True once every captured block has been consumed — restore traversed
  /// the same layers as capture.
  bool exhausted() const { return cursor_ == state_->block_count(); }

 private:
  const PrefixState::Block& next(PrefixState::Tag expected);

  const PrefixState* state_;
  std::size_t cursor_ = 0;
};

}  // namespace ckptfi::nn
