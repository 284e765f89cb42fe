// TrialScheduler: bounded-concurrency campaign executor.
//
// Every table and figure in the paper is built from hundreds of independent
// corrupt -> predict/resume trials (250 trainings per experiment cell on the
// paper's testbed). TrialScheduler fans those trials out over the worker
// pool while preserving the serial run bit-for-bit:
//
//   - each trial draws randomness only from its own stream,
//     seed = trial_seed(campaign_seed, index) — never from shared state or
//     from the order trials happen to run in;
//   - trial bodies write results into per-index slots, so reductions are
//     applied in index order by the caller after the campaign drains;
//   - a failing trial does not abort the campaign: every trial runs, and the
//     error with the LOWEST trial index is rethrown once the campaign is
//     done, so which exception the caller sees never depends on scheduling.
//
// Under this contract `--jobs 8` and `--jobs 1` produce identical outcome
// vectors and InjectionLogs — the property the determinism tests assert.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace ckptfi {
class ThreadPool;
}  // namespace ckptfi

namespace ckptfi::core {

/// Deterministic per-trial seed stream: a splitmix64-style mix of
/// (campaign_seed, trial_index) with full avalanche, so adjacent trials (and
/// adjacent campaigns) get decorrelated RNG streams.
std::uint64_t trial_seed(std::uint64_t campaign_seed,
                         std::uint64_t trial_index);

/// What a trial body gets to know about itself.
struct TrialContext {
  std::size_t index = 0;   ///< trial number in [0, n)
  std::uint64_t seed = 0;  ///< trial_seed(campaign_seed, index)
};

class TrialScheduler {
 public:
  struct Config {
    /// Maximum trials in flight. 1 (the default) runs every trial inline on
    /// the calling thread, exactly like the pre-scheduler bench loops.
    /// Effective parallelism is min(jobs, n, pool size).
    std::size_t jobs = 1;
    /// Root of the per-trial seed streams.
    std::uint64_t campaign_seed = 0;
    /// Pool to fan out on; nullptr selects ThreadPool::global(). Tests pass
    /// an explicit pool so fan-out is exercised regardless of host cores.
    ThreadPool* pool = nullptr;
  };

  explicit TrialScheduler(Config cfg);

  const Config& config() const { return cfg_; }

  using TrialFn = std::function<void(const TrialContext&)>;

  /// Run trials 0..n-1. Each trial executes under an obs::ScopedTrialIndex
  /// (events it emits carry {"trial": index}) and feeds the campaign.*
  /// metrics. Blocks until every trial has run; rethrows the lowest-index
  /// trial error, if any. Re-entrant calls (a trial that itself schedules a
  /// campaign) run serially inline instead of deadlocking the pool.
  void run(std::size_t n, const TrialFn& fn) const { run_range(0, n, fn); }

  /// Run the shard [begin, end) of a campaign. Trial indices and seeds are
  /// GLOBAL — trial i gets trial_seed(campaign_seed, i) exactly as it would
  /// inside run(n) — so a fleet worker executing [40, 60) produces the same
  /// rows the single-process campaign produces for those indices.
  void run_range(std::size_t begin, std::size_t end, const TrialFn& fn) const;

 private:
  Config cfg_;
};

}  // namespace ckptfi::core
