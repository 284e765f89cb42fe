#include "obs/probes.hpp"

#include <cmath>

#include "util/common.hpp"

namespace ckptfi::obs {

namespace {

thread_local Probes* g_current_probes = nullptr;

/// Relative-deviation floor: clean L2 norms below this are treated as the
/// floor itself, so a dead-zero clean activation does not turn any finite
/// deviation into an infinite relative one.
constexpr double kRelDevFloor = 1e-12;

double rel_dev(double clean_l2, double trial_l2) {
  const double denom = std::fabs(clean_l2) > kRelDevFloor
                           ? std::fabs(clean_l2)
                           : kRelDevFloor;
  return std::fabs(trial_l2 - clean_l2) / denom;
}

Json onset_json(const OnsetCoord& o) {
  if (o.step < 0) return Json();  // null: never happened
  Json j = Json::object();
  j["step"] = o.step;
  j["point"] = o.point;
  j["layer"] = o.layer;
  j["phase"] = probe_phase_name(o.phase);
  return j;
}

}  // namespace

bool TensorStats::operator==(const TensorStats& o) const {
  return l2 == o.l2 && max_abs == o.max_abs && nan_count == o.nan_count &&
         inf_count == o.inf_count && zero_count == o.zero_count &&
         numel == o.numel;
}

Json TensorStats::to_json() const {
  Json j = Json::object();
  j["l2"] = l2;
  j["max_abs"] = max_abs;
  j["nan"] = nan_count;
  j["inf"] = inf_count;
  j["zero_fraction"] = zero_fraction();
  j["numel"] = numel;
  return j;
}

const char* probe_phase_name(ProbePhase phase) {
  return phase == ProbePhase::kForward ? "forward" : "backward";
}

void Probes::begin_step(std::uint64_t step_id) {
  if (!frozen_ && !step_ids_.empty()) {
    // Step 0 is complete: the layout is now the fixed per-step schedule.
    frozen_ = true;
    if (expected_steps_ > 1) {
      stats_.reserve(expected_steps_ * layout_.size());
      step_ids_.reserve(expected_steps_);
    }
  }
  if (frozen_) {
    require(cursor_ == layout_.size(),
            "Probes: step recorded a different probe schedule than step 0");
  }
  step_ids_.push_back(step_id);
  cursor_ = 0;
}

void Probes::record_stats(std::string_view layer, ProbePhase phase,
                          const TensorStats& stats) {
  require(!step_ids_.empty(), "Probes::record_stats before begin_step");
  if (!frozen_) {
    layout_.push_back(ProbePoint{std::string(layer), phase});
  } else {
    require(cursor_ < layout_.size(),
            "Probes: more probe points than the step-0 layout");
    if (layout_[cursor_].layer != layer || layout_[cursor_].phase != phase)
      throw InvalidArgument(
          "Probes: probe schedule changed after step 0 (expected '" +
          layout_[cursor_].layer + "', got '" + std::string(layer) + "')");
  }
  stats_.push_back(stats);
  ++cursor_;
}

const TensorStats& Probes::at(std::size_t step, std::size_t point) const {
  require(step < step_ids_.size() && point < layout_.size(),
          "Probes::at out of range");
  return stats_[step * layout_.size() + point];
}

bool Probes::same_layout(const Probes& other) const {
  if (layout_.size() != other.layout_.size()) return false;
  for (std::size_t i = 0; i < layout_.size(); ++i) {
    if (layout_[i].layer != other.layout_[i].layer ||
        layout_[i].phase != other.layout_[i].phase)
      return false;
  }
  return true;
}

Probes* Probes::current() { return g_current_probes; }

Probes::Scope::Scope(Probes& probes) : prev_(g_current_probes) {
  g_current_probes = &probes;
}

Probes::Scope::~Scope() { g_current_probes = prev_; }

Json DivergenceTrace::to_json() const {
  Json j = Json::object();
  j["diverged"] = diverged;
  j["first_step"] = first_step;
  j["first_point"] = first_point;
  j["first_layer"] = first_layer;
  j["first_phase"] = diverged ? probe_phase_name(first_phase) : "";
  j["first_rel_dev"] = first_rel_dev;
  j["nan_onset"] = onset_json(nan_onset);
  j["inf_onset"] = onset_json(inf_onset);
  j["depth"] = depth;
  j["points_diverged"] = points_diverged;
  j["steps_compared"] = steps_compared;
  j["truncated"] = truncated;
  Json arr = Json::array();
  for (const PointDivergence& p : per_point) {
    Json pj = Json::object();
    pj["point"] = p.point;
    pj["layer"] = p.layer;
    pj["phase"] = probe_phase_name(p.phase);
    pj["first_step"] = p.first_step;
    pj["max_rel_dev"] = p.max_rel_dev;
    arr.push_back(std::move(pj));
  }
  j["per_point"] = std::move(arr);
  return j;
}

DivergenceTrace diverge(const Probes& clean, const Probes& trial) {
  require(clean.same_layout(trial),
          "diverge: probe layouts differ (architecture or schedule mismatch)");
  DivergenceTrace t;
  const std::size_t points = clean.points_per_step();
  const std::size_t steps = std::min(clean.num_steps(), trial.num_steps());
  t.steps_compared = steps;
  t.truncated = trial.num_steps() < clean.num_steps();

  // Dense per-point scratch; compacted into per_point afterwards.
  std::vector<std::int64_t> first_step(points, -1);
  std::vector<double> max_dev(points, 0.0);

  for (std::size_t s = 0; s < steps; ++s) {
    const auto id = static_cast<std::int64_t>(trial.step_id(s));
    for (std::size_t p = 0; p < points; ++p) {
      const TensorStats& c = clean.at(s, p);
      const TensorStats& x = trial.at(s, p);
      if (x != c) {
        if (first_step[p] < 0) first_step[p] = id;
        const double d = rel_dev(c.l2, x.l2);
        if (d > max_dev[p]) max_dev[p] = d;
        if (!t.diverged) {
          t.diverged = true;
          t.first_step = id;
          t.first_point = static_cast<std::int64_t>(p);
          t.first_layer = clean.layout()[p].layer;
          t.first_phase = clean.layout()[p].phase;
          t.first_rel_dev = d;
        }
      }
      if (t.nan_onset.step < 0 && x.nan_count > c.nan_count) {
        t.nan_onset = {id, static_cast<std::int64_t>(p),
                       clean.layout()[p].layer, clean.layout()[p].phase};
      }
      if (t.inf_onset.step < 0 && x.inf_count > c.inf_count) {
        t.inf_onset = {id, static_cast<std::int64_t>(p),
                       clean.layout()[p].layer, clean.layout()[p].phase};
      }
    }
  }

  std::vector<std::string_view> layers_hit;
  for (std::size_t p = 0; p < points; ++p) {
    if (first_step[p] < 0) continue;
    ++t.points_diverged;
    t.per_point.push_back(PointDivergence{p, clean.layout()[p].layer,
                                          clean.layout()[p].phase,
                                          first_step[p], max_dev[p]});
    const std::string_view name = clean.layout()[p].layer;
    bool seen = false;
    for (const std::string_view l : layers_hit) {
      if (l == name) {
        seen = true;
        break;
      }
    }
    if (!seen) layers_hit.push_back(name);
  }
  t.depth = layers_hit.size();
  return t;
}

}  // namespace ckptfi::obs
