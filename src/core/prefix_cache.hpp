// PrefixCache: per-baseline activation prefixes for inference prefix reuse.
//
// A layer-targeted prediction re-runs the network once per trial, but
// everything upstream of the injected layer is bitwise-identical across the
// whole trial group (the corrupted checkpoint's upstream weights equal the
// clean ones, and eval forwards are pure). The cache computes that shared
// upstream work once per (checkpoint epoch, entry segment): the boundary
// activation of every test batch at the entry segment. A prefixed prediction
// then runs only the suffix, for every batch.
//
// Memory bound: a runner holds at most one entry per (checkpoint epoch,
// entry segment), and an entry holds exactly the activations one full
// prediction computes at that boundary — test images × the boundary's
// per-image size, in doubles. Entries live as long as the runner; nothing is
// evicted.
//
// Determinism contract: entries are immutable once built (shared as
// shared_ptr<const>; ckptfi-lint's det-prefix-cache-mutation rule polices
// consumers) and builders are pure functions of the key, so cache hits,
// misses and `--jobs N` scheduling cannot change any trial outcome.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "tensor/tensor.hpp"

namespace ckptfi::core {

/// Identity of one cached prefix.
struct PrefixKey {
  std::size_t epoch = 0;    ///< checkpoint epoch the prefix is built from
  std::size_t segment = 0;  ///< entry segment (prefix covers [0, segment))

  bool operator<(const PrefixKey& o) const {
    if (epoch != o.epoch) return epoch < o.epoch;
    return segment < o.segment;
  }
};

/// One cached prefix (immutable once built).
struct PrefixEntryData {
  /// Boundary activations entering the segment, one per test batch.
  std::vector<Tensor> boundary;
};

class PrefixCache {
 public:
  using Builder = std::function<PrefixEntryData()>;

  /// The entry for `key`, building it via `build` on first touch. One build
  /// per key ever runs: concurrent callers of the same key wait for the
  /// first (builds serialize under the cache lock — once per trial group,
  /// so the steady state is lock-hit-return). The returned entry is
  /// immutable.
  std::shared_ptr<const PrefixEntryData> get_or_build(const PrefixKey& key,
                                                      const Builder& build);

  // Introspection (tests + reporting).
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  /// Bytes of boundary activations held.
  std::size_t bytes_cached() const;

 private:
  mutable std::mutex mu_;
  std::map<PrefixKey, std::shared_ptr<const PrefixEntryData>> entries_;
  std::size_t bytes_cached_ = 0;
  std::uint64_t hits_ = 0, misses_ = 0;
};

}  // namespace ckptfi::core
