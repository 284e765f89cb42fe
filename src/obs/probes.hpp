// Numeric-health probes: per-layer forward/backward tensor telemetry.
//
// An injection campaign that only observes end-of-training accuracy can say
// *whether* a bit-flip hurt, never *where the corruption went*. Probes turn
// each training step into a fixed-cost stat timeline — per layer, per phase,
// one TensorStats block (L2 norm, max-abs, NaN/Inf counts, zero fraction) —
// and `diverge()` compares a corrupted trial's timeline against the clean
// baseline to produce a DivergenceTrace: first-divergent layer and step,
// NaN/Inf onset coordinates, and propagation depth (how many layers the
// corruption reached).
//
// Determinism contract: the L2 sum is one ascending chain of adds over the
// finite non-zero squares (ckptfi::tensor_stats in tensor/ops.hpp computes
// the block, bitwise the same on every ISA), recording is observation-only
// (never mutates the tensors), and a trial's sink is installed
// thread-locally via Probes::Scope — so timelines are a pure function of the
// trial, bitwise-invariant under `--jobs N`, and probes-on vs probes-off
// trainings produce bit-identical checkpoints.
//
// Cost contract (matches the PR 1 obs budget): with no Scope installed the
// only instrumentation cost is one thread-local pointer load per container
// forward/backward; with probes on, recording allocates only while the
// layout is being learned (step 0) and while growing to the expected step
// count declared up front — steady-state steps are pure pointer-bump
// appends into reserved storage.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace ckptfi::obs {

/// Fixed-cost numeric-health block for one tensor, computed by
/// ckptfi::tensor_stats (tensor/ops.hpp). L2/max-abs cover finite values
/// only (the NaN/Inf counts carry the non-finite story separately).
struct TensorStats {
  double l2 = 0.0;       ///< sqrt(sum of squares of finite values)
  double max_abs = 0.0;  ///< max |v| over finite values
  std::uint64_t nan_count = 0;
  std::uint64_t inf_count = 0;
  std::uint64_t zero_count = 0;
  std::uint64_t numel = 0;

  double zero_fraction() const {
    return numel == 0 ? 0.0
                      : static_cast<double>(zero_count) /
                            static_cast<double>(numel);
  }
  bool non_finite() const { return nan_count + inf_count > 0; }

  /// Exact (bitwise on the doubles) equality — the divergence test. Two
  /// deterministic clean runs compare equal; any inequality is genuine
  /// numeric divergence, not noise.
  bool operator==(const TensorStats& o) const;
  bool operator!=(const TensorStats& o) const { return !(*this == o); }

  Json to_json() const;
};

enum class ProbePhase : std::uint8_t { kForward = 0, kBackward = 1 };
const char* probe_phase_name(ProbePhase phase);

/// One slot in the per-step probe schedule: which layer, which pass.
struct ProbePoint {
  std::string layer;
  ProbePhase phase = ProbePhase::kForward;
};

/// A probe timeline: `num_steps()` training steps, each recording the same
/// fixed sequence of probe points (the layout, learned on step 0 and frozen
/// afterwards). Not thread-safe: one Probes belongs to one trial.
class Probes {
 public:
  /// Capacity hint: reserve storage for `steps` steps when the layout
  /// freezes, so steady-state recording never reallocates. Growing past the
  /// hint still works (amortized vector growth).
  void set_expected_steps(std::size_t steps) { expected_steps_ = steps; }

  /// Open step `step_id` (any monotonic id; the Trainer uses its global
  /// batch counter). The first begin_step learns the layout; the second
  /// freezes it and reserves the expected-steps storage.
  void begin_step(std::uint64_t step_id);

  /// Append the stats of one tensor to the current step. Layer/phase must
  /// follow the same schedule every step (enforced once frozen). Containers
  /// pass the stats of the tensor they just computed; every probed step runs
  /// the whole network, so each step records the full layout live.
  void record_stats(std::string_view layer, ProbePhase phase,
                    const TensorStats& stats);

  std::size_t num_steps() const { return step_ids_.size(); }
  std::size_t points_per_step() const { return layout_.size(); }
  const std::vector<ProbePoint>& layout() const { return layout_; }
  std::uint64_t step_id(std::size_t step) const { return step_ids_[step]; }
  const TensorStats& at(std::size_t step, std::size_t point) const;
  bool empty() const { return step_ids_.empty(); }

  /// True when both timelines record the same (layer, phase) schedule —
  /// the precondition for diverge().
  bool same_layout(const Probes& other) const;

  /// The calling thread's active sink; nullptr when no Scope is installed.
  static Probes* current();

  /// RAII: install this Probes as the calling thread's sink. Nests — the
  /// previous sink returns on destruction. Per-thread, so concurrent
  /// campaign trials on different pool workers never cross-record.
  class Scope {
   public:
    explicit Scope(Probes& probes);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Probes* prev_;
  };

 private:
  std::vector<ProbePoint> layout_;
  std::vector<TensorStats> stats_;  ///< step-major [step * layout + point]
  std::vector<std::uint64_t> step_ids_;
  std::size_t expected_steps_ = 0;
  std::size_t cursor_ = 0;  ///< points recorded in the open step
  bool frozen_ = false;
};

/// Where a NaN/Inf first appeared in a timeline; step < 0 means never.
struct OnsetCoord {
  std::int64_t step = -1;   ///< step id (Trainer global batch counter)
  std::int64_t point = -1;  ///< layout index
  std::string layer;
  ProbePhase phase = ProbePhase::kForward;
};

/// Per-probe-point divergence summary (only points that diverged are kept).
struct PointDivergence {
  std::size_t point = 0;  ///< layout index
  std::string layer;
  ProbePhase phase = ProbePhase::kForward;
  std::int64_t first_step = -1;  ///< step id of first deviation
  double max_rel_dev = 0.0;      ///< max |l2 - clean_l2| / max(clean_l2, eps)
};

/// The forensic record of one corrupted trial vs its clean baseline.
struct DivergenceTrace {
  bool diverged = false;
  std::int64_t first_step = -1;   ///< step id of first deviating probe point
  std::int64_t first_point = -1;  ///< layout index of that point
  std::string first_layer;
  ProbePhase first_phase = ProbePhase::kForward;
  double first_rel_dev = 0.0;
  OnsetCoord nan_onset;  ///< first point where trial NaNs exceed clean's
  OnsetCoord inf_onset;
  /// Distinct layers with any deviating probe point — the propagation depth
  /// the paper's Fig. 6 is after.
  std::size_t depth = 0;
  std::size_t points_diverged = 0;  ///< deviating layout points
  std::size_t steps_compared = 0;
  /// True when the trial timeline is shorter than the clean one (N-EV
  /// early-stop truncated the training).
  bool truncated = false;
  std::vector<PointDivergence> per_point;  ///< deviating points, layout order

  Json to_json() const;
};

/// Compare a trial timeline against the clean baseline. Throws when the two
/// layouts differ (different architecture or probe schedule). Steps are
/// compared up to the shorter timeline.
DivergenceTrace diverge(const Probes& clean, const Probes& trial);

}  // namespace ckptfi::obs
