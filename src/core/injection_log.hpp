// InjectionLog: the record of every bit-flip an injection run performed.
//
// This is the paper's equivalent-injection log (Section IV-C): it stores, per
// injection, (1) which weight was modified, (2) the bit position(s) flipped,
// and (3) the layer the weight belongs to — in canonical model coordinates,
// so the same sequence can be replayed against a checkpoint produced by a
// different framework.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace ckptfi::core {

/// One performed injection.
struct InjectionRecord {
  /// Dataset path inside the corrupted checkpoint (framework-specific).
  std::string location;
  /// Flat element index inside that dataset (stored layout).
  std::uint64_t index = 0;

  /// Canonical coordinates when the corrupter was given a model context.
  /// Empty/absent otherwise (raw-file corruption has no model to map to).
  std::string canonical_param;  ///< e.g. "conv1_1/W"
  std::string layer;            ///< e.g. "conv1_1"
  std::optional<std::uint64_t> canonical_index;

  /// Bit positions flipped (one for bit_range; the mask's set bits for
  /// bit_mask). Empty for scaling-factor corruption.
  std::vector<int> bits;

  /// Scaling factor applied (scaling_factor mode only).
  std::optional<double> scale;

  /// Value before/after (as doubles decoded at the dataset's precision).
  double old_value = 0.0;
  double new_value = 0.0;

  /// Provenance: wall-clock offset from the start of the corruption run and
  /// the corrupter's raw RNG draw count at the moment of injection — together
  /// they pin where in time and in the random stream an injection happened,
  /// so a replay that diverges can be diagnosed down to the draw instead of
  /// "somewhere in the run". Stamped only while an obs facility is enabled
  /// (the wall clock costs a read per injection); absent otherwise.
  std::optional<double> wall_ms;
  std::optional<std::uint64_t> rng_draw;

  /// Append this record as compact JSON. The one place that knows the
  /// record's keys, their order and which ones are optional.
  void write_json(std::string& out) const;
  /// The parsed write_json() text.
  Json to_json() const;
  static InjectionRecord from_json(const Json& j);
};

/// The ordered sequence of injections for one corruption run.
class InjectionLog {
 public:
  void add(InjectionRecord rec) { records_.push_back(std::move(rec)); }
  const std::vector<InjectionRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  void clear() { records_.clear(); }

  /// Metadata recorded with the log (framework/model that produced it).
  void set_meta(const std::string& key, const std::string& value);
  std::string meta(const std::string& key) const;  ///< "" when absent

  /// Divergence trace of the trial this log's injections produced
  /// (obs::DivergenceTrace::to_json()) — where the corruption went, attached
  /// after the resumed training has been compared against its clean
  /// baseline. Null until set.
  void set_divergence(Json trace) { divergence_ = std::move(trace); }
  const Json& divergence() const { return divergence_; }
  bool has_divergence() const { return !divergence_.is_null(); }

  /// Append the log as compact JSON: the bytes Json::dump() prints for the
  /// same tree, without building one. Campaign rows embed this text as a
  /// Json::raw fragment.
  void write_json(std::string& out) const;
  /// The parsed write_json() text (for save() and in-memory consumers).
  Json to_json() const;
  static InjectionLog from_json(const Json& j);

  void save(const std::string& path) const;
  static InjectionLog load(const std::string& path);

 private:
  std::vector<InjectionRecord> records_;
  std::vector<std::pair<std::string, std::string>> meta_;
  Json divergence_;  ///< null when the trial was not divergence-traced
};

}  // namespace ckptfi::core
