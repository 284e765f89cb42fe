// Numeric-health probes: stat blocks, layout freezing, thread-local scopes
// and divergence tracing (obs/probes.hpp).
#include "obs/probes.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "tensor/ops.hpp"
#include "util/common.hpp"

// Heap allocations so far in this binary: test_registry.cpp replaces the
// global operator new with a counting one.
extern std::atomic<std::uint64_t> g_allocations;

namespace ckptfi::obs {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(TensorStats, OnePassCountsAndNorms) {
  const std::vector<double> x = {0.0, 3.0, -4.0, kNan, kInf, 0.0};
  const TensorStats s = tensor_stats(x.data(), x.size());
  EXPECT_EQ(s.numel, 6u);
  EXPECT_EQ(s.nan_count, 1u);
  EXPECT_EQ(s.inf_count, 1u);
  EXPECT_EQ(s.zero_count, 2u);
  EXPECT_DOUBLE_EQ(s.l2, 5.0);  // sqrt(9 + 16), finite values only
  EXPECT_DOUBLE_EQ(s.max_abs, 4.0);
  EXPECT_DOUBLE_EQ(s.zero_fraction(), 2.0 / 6.0);
  EXPECT_TRUE(s.non_finite());
}

TEST(TensorStats, EmptyAndExactEquality) {
  const TensorStats empty = tensor_stats(nullptr, 0);
  EXPECT_EQ(empty.numel, 0u);
  EXPECT_DOUBLE_EQ(empty.l2, 0.0);
  EXPECT_FALSE(empty.non_finite());

  const std::vector<double> x = {1.0, 2.0};
  EXPECT_TRUE(tensor_stats(x.data(), 2) == tensor_stats(x.data(), 2));
  // One-ulp-scale perturbation: exact equality must catch it.
  const std::vector<double> y = {1.0, 2.0 + 1e-15};
  EXPECT_TRUE(tensor_stats(x.data(), 2) != tensor_stats(y.data(), 2));
}

/// Append the stats of x[0..n), as a container does after each layer.
void record(Probes& p, std::string_view layer, ProbePhase phase,
            const double* x, std::size_t n) {
  p.record_stats(layer, phase, tensor_stats(x, n));
}

void record_step(Probes& p, std::uint64_t id, double a, double b) {
  p.begin_step(id);
  const double fwd[2] = {a, a};
  const double bwd[3] = {b, b, b};
  record(p, "dense1", ProbePhase::kForward, fwd, 2);
  record(p, "dense1", ProbePhase::kBackward, bwd, 3);
}

TEST(Probes, LayoutLearnedOnStepZeroThenFrozen) {
  Probes p;
  EXPECT_TRUE(p.empty());
  record_step(p, 0, 1.0, 2.0);
  record_step(p, 1, 3.0, 4.0);
  EXPECT_EQ(p.num_steps(), 2u);
  EXPECT_EQ(p.points_per_step(), 2u);
  EXPECT_EQ(p.layout()[0].layer, "dense1");
  EXPECT_EQ(p.layout()[0].phase, ProbePhase::kForward);
  EXPECT_EQ(p.layout()[1].phase, ProbePhase::kBackward);
  EXPECT_EQ(p.step_id(1), 1u);
  EXPECT_DOUBLE_EQ(p.at(1, 0).l2, std::sqrt(2.0 * 9.0));
  EXPECT_EQ(p.at(1, 1).numel, 3u);
}

TEST(Probes, ScheduleDriftIsRejected) {
  Probes p;
  record_step(p, 0, 1.0, 1.0);
  p.begin_step(1);
  const double v[1] = {1.0};
  record(p, "dense1", ProbePhase::kForward, v, 1);
  // Same slot, different layer name: the frozen schedule must reject it.
  EXPECT_THROW(record(p, "dense2", ProbePhase::kForward, v, 1), Error);

  Probes q;
  record_step(q, 0, 1.0, 1.0);
  q.begin_step(1);
  record(q, "dense1", ProbePhase::kForward, v, 1);
  record(q, "dense1", ProbePhase::kBackward, v, 1);
  // A third point exceeds the step-0 layout.
  EXPECT_THROW(record(q, "dense1", ProbePhase::kBackward, v, 1), Error);
}

// Within set_expected_steps, a step after the layout froze is an append
// into reserved storage (docs/OBSERVABILITY.md): computing the stats
// allocates nothing, and the schedule checks build no message unless they
// throw.
TEST(Probes, FrozenStepsDoNotAllocate) {
  Probes p;
  p.set_expected_steps(10);
  // Step 0 learns the layout; step 1's begin_step freezes it and reserves.
  record_step(p, 0, 1.0, 2.0);
  record_step(p, 1, 1.0, 2.0);
  const std::uint64_t before = g_allocations.load();
  for (std::uint64_t step = 2; step < 10; ++step) {
    record_step(p, step, 1.0 + static_cast<double>(step), -0.0);
  }
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_EQ(p.num_steps(), 10u);
}

TEST(Probes, ScopeInstallsPerThreadAndNests) {
  EXPECT_EQ(Probes::current(), nullptr);
  Probes outer_p, inner_p;
  {
    Probes::Scope outer(outer_p);
    EXPECT_EQ(Probes::current(), &outer_p);
    {
      Probes::Scope inner(inner_p);
      EXPECT_EQ(Probes::current(), &inner_p);
    }
    EXPECT_EQ(Probes::current(), &outer_p);
  }
  EXPECT_EQ(Probes::current(), nullptr);
}

TEST(Diverge, IdenticalTimelinesDoNotDiverge) {
  Probes clean, trial;
  for (std::uint64_t s = 0; s < 3; ++s) {
    record_step(clean, s, 1.0 + static_cast<double>(s), 2.0);
    record_step(trial, s, 1.0 + static_cast<double>(s), 2.0);
  }
  const DivergenceTrace t = diverge(clean, trial);
  EXPECT_FALSE(t.diverged);
  EXPECT_EQ(t.first_step, -1);
  EXPECT_EQ(t.depth, 0u);
  EXPECT_EQ(t.steps_compared, 3u);
  EXPECT_FALSE(t.truncated);
  EXPECT_TRUE(t.per_point.empty());
  EXPECT_LT(t.nan_onset.step, 0);
}

TEST(Diverge, FirstDeviationCoordinatesAndDepth) {
  Probes clean, trial;
  record_step(clean, 10, 1.0, 2.0);
  record_step(clean, 11, 1.0, 2.0);
  record_step(trial, 10, 1.0, 2.0);
  record_step(trial, 11, 1.0, 2.5);  // backward point deviates at step 11
  const DivergenceTrace t = diverge(clean, trial);
  EXPECT_TRUE(t.diverged);
  EXPECT_EQ(t.first_step, 11);
  EXPECT_EQ(t.first_point, 1);
  EXPECT_EQ(t.first_layer, "dense1");
  EXPECT_EQ(t.first_phase, ProbePhase::kBackward);
  EXPECT_GT(t.first_rel_dev, 0.0);
  EXPECT_EQ(t.depth, 1u);  // one distinct layer
  EXPECT_EQ(t.points_diverged, 1u);
  ASSERT_EQ(t.per_point.size(), 1u);
  EXPECT_EQ(t.per_point[0].point, 1u);
  EXPECT_EQ(t.per_point[0].first_step, 11);
}

TEST(Diverge, NanOnsetAndTruncation) {
  Probes clean, trial;
  for (std::uint64_t s = 0; s < 3; ++s) record_step(clean, s, 1.0, 2.0);
  record_step(trial, 0, 1.0, 2.0);
  record_step(trial, 1, kNan, 2.0);  // forward point goes NaN at step 1
  const DivergenceTrace t = diverge(clean, trial);
  EXPECT_TRUE(t.diverged);
  EXPECT_TRUE(t.truncated);  // trial stopped a step early (N-EV style)
  EXPECT_EQ(t.steps_compared, 2u);
  EXPECT_EQ(t.nan_onset.step, 1);
  EXPECT_EQ(t.nan_onset.point, 0);
  EXPECT_EQ(t.nan_onset.layer, "dense1");
  EXPECT_LT(t.inf_onset.step, 0);

  const Json j = t.to_json();
  EXPECT_TRUE(j.at("diverged").as_bool());
  EXPECT_EQ(j.at("nan_onset").at("step").as_int(), 1);
  EXPECT_TRUE(j.at("inf_onset").is_null());
  EXPECT_EQ(j.at("per_point").size(), t.per_point.size());
}

TEST(Diverge, LayoutMismatchThrows) {
  Probes clean, trial;
  record_step(clean, 0, 1.0, 2.0);
  trial.begin_step(0);
  const double v[1] = {1.0};
  record(trial, "other", ProbePhase::kForward, v, 1);
  EXPECT_THROW(diverge(clean, trial), Error);
}

}  // namespace
}  // namespace ckptfi::obs
