// PrefixCache unit tests: hit/miss and byte accounting, and concurrent
// get_or_build collapsing to a single build.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/prefix_cache.hpp"

namespace ckptfi::core {
namespace {

/// Deterministic entry: two boundary tensors (2x3 and 4 doubles).
PrefixEntryData make_entry(double salt) {
  PrefixEntryData e;
  Tensor a({2, 3});
  for (std::size_t i = 0; i < a.numel(); ++i)
    a[i] = salt + static_cast<double>(i) / 7.0;
  Tensor b({4});
  for (std::size_t i = 0; i < b.numel(); ++i)
    b[i] = -salt * static_cast<double>(i + 1) / 3.0;
  e.boundary.push_back(std::move(a));
  e.boundary.push_back(std::move(b));
  return e;
}

TEST(PrefixCache, BuildsOnceThenHits) {
  PrefixCache cache;
  int builds = 0;
  const PrefixKey key{1, 2};
  const auto builder = [&] {
    ++builds;
    return make_entry(2.5);
  };
  const auto first = cache.get_or_build(key, builder);
  const auto again = cache.get_or_build(key, builder);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(first.get(), again.get());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.bytes_cached(), (6u + 4u) * sizeof(double));
  // Distinct keys (another segment, another epoch) are distinct entries.
  cache.get_or_build(PrefixKey{1, 3}, builder);
  cache.get_or_build(PrefixKey{2, 2}, builder);
  EXPECT_EQ(builds, 3);
  EXPECT_EQ(cache.bytes_cached(), 3 * (6u + 4u) * sizeof(double));
}

TEST(PrefixCache, ConcurrentGetOrBuildCollapsesToOneBuild) {
  PrefixCache cache;
  std::atomic<int> builds{0};
  const PrefixKey key{3, 1};
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const PrefixEntryData>> got(8);
  for (std::size_t t = 0; t < got.size(); ++t) {
    threads.emplace_back([&, t] {
      got[t] = cache.get_or_build(key, [&] {
        ++builds;
        return make_entry(6.5);
      });
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(builds.load(), 1);
  for (const auto& e : got) EXPECT_EQ(e.get(), got[0].get());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), got.size() - 1);
}

}  // namespace
}  // namespace ckptfi::core
