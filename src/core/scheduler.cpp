#include "core/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>

#include "obs/events.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/threadpool.hpp"

namespace ckptfi::core {

std::uint64_t trial_seed(std::uint64_t campaign_seed,
                         std::uint64_t trial_index) {
  // splitmix64 finalizer over an odd-multiplier combination of the pair.
  // The +1 keeps trial 0 from collapsing onto the bare campaign seed.
  std::uint64_t z = campaign_seed + 0x9e3779b97f4a7c15ull * (trial_index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

// One trial: attribution scope + latency metrics around the body.
void run_trial(const TrialScheduler::TrialFn& fn, const TrialContext& ctx) {
  obs::ScopedTrialIndex attribution(ctx.index);
  obs::Span span("campaign.trial", "campaign", "campaign.trial_time");
  fn(ctx);
  obs::counter_add("campaign.trials_done");
}

// Lowest-trial-index error wins, independent of completion order.
struct ErrorSlot {
  std::mutex mu;
  std::size_t index;  // init to n (= "none")
  std::exception_ptr error;

  void offer(std::size_t trial, std::exception_ptr e) {
    std::lock_guard lock(mu);
    if (trial < index) {
      index = trial;
      error = std::move(e);
    }
  }
};

}  // namespace

TrialScheduler::TrialScheduler(Config cfg) : cfg_(cfg) {
  if (cfg_.jobs == 0) cfg_.jobs = 1;
  if (cfg_.pool == nullptr) cfg_.pool = &ThreadPool::global();
}

void TrialScheduler::run_range(std::size_t begin, std::size_t end,
                               const TrialFn& fn) const {
  if (begin >= end) return;
  const std::size_t n = end - begin;  // shard size; indices stay global
  ThreadPool& pool = *cfg_.pool;
  obs::gauge_set("campaign.jobs", static_cast<double>(cfg_.jobs));

  ErrorSlot err;
  err.index = end;

  const std::size_t pumps = std::min({cfg_.jobs, n, pool.size()});
  if (pumps <= 1 || pool.in_worker()) {
    // Serial path — same error contract as the parallel one: every trial
    // runs, the lowest-index failure surfaces at the end.
    for (std::size_t i = begin; i < end; ++i) {
      try {
        run_trial(fn, {i, trial_seed(cfg_.campaign_seed, i)});
      } catch (...) {
        err.offer(i, std::current_exception());
      }
    }
  } else {
    // `pumps` pool tasks drain an atomic trial counter. This bounds
    // concurrency at `pumps` without ever parking a worker: a pump that
    // finds the counter exhausted simply exits. The join state is shared
    // with the tasks so a late pump never touches a dead frame (the same
    // shape as ThreadPool::parallel_for's fork/join).
    struct Join {
      std::mutex mu;
      std::condition_variable cv;
      std::size_t active = 0;
      std::atomic<std::size_t> next{0};
    };
    auto join = std::make_shared<Join>();
    join->active = pumps;
    join->next.store(begin, std::memory_order_relaxed);
    for (std::size_t p = 0; p < pumps; ++p) {
      pool.submit([this, join, &fn, &err, end] {
        for (;;) {
          const std::size_t i =
              join->next.fetch_add(1, std::memory_order_relaxed);
          if (i >= end) break;
          try {
            run_trial(fn, {i, trial_seed(cfg_.campaign_seed, i)});
          } catch (...) {
            err.offer(i, std::current_exception());
          }
        }
        bool last = false;
        {
          std::lock_guard lock(join->mu);
          last = (--join->active == 0);
        }
        if (last) join->cv.notify_all();
      });
    }
    std::unique_lock lock(join->mu);
    join->cv.wait(lock, [&] { return join->active == 0; });
  }

  if (err.error) std::rethrow_exception(err.error);
}

}  // namespace ckptfi::core
