// PrefixCache unit tests: spill-format round-trip, hit/miss accounting,
// budget-driven eviction with bitwise-lossless reload, and concurrent
// get_or_build collapsing to a single build.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/prefix_cache.hpp"
#include "hdf5/io.hpp"
#include "obs/probes.hpp"
#include "tensor/ops.hpp"
#include "util/common.hpp"

namespace ckptfi::core {
namespace {

/// Deterministic non-trivial entry: two boundary tensors with irrational
/// payloads (so any lossy encode would show), a mixed-tag PrefixState, and
/// forward/backward probe points.
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

  Tensor running({4});
  for (std::size_t i = 0; i < running.numel(); ++i)
    running[i] = salt / static_cast<double>(i + 2);
  e.state.put_tensor(running);
  e.state.put_scalars({salt, 1.0 / salt});
  e.state.put_shape({2, 3, 5});

  obs::RecordedPoint p1;
  p1.point = {"conv1", obs::ProbePhase::kForward};
  p1.stats = tensor_stats(e.boundary[0].data(), e.boundary[0].numel());
  obs::RecordedPoint p2;
  p2.point = {"conv2", obs::ProbePhase::kBackward};
  p2.stats = tensor_stats(e.boundary[1].data(), e.boundary[1].numel());
  e.probe_prefix = {p1, p2};
  return e;
}

void expect_entries_equal(const PrefixEntryData& a, const PrefixEntryData& b) {
  ASSERT_EQ(a.boundary.size(), b.boundary.size());
  for (std::size_t i = 0; i < a.boundary.size(); ++i) {
    EXPECT_EQ(a.boundary[i].shape(), b.boundary[i].shape());
    EXPECT_EQ(a.boundary[i].vec(), b.boundary[i].vec());
  }
  ASSERT_EQ(a.state.block_count(), b.state.block_count());
  for (std::size_t i = 0; i < a.state.block_count(); ++i) {
    EXPECT_EQ(a.state.blocks()[i].tag, b.state.blocks()[i].tag);
    EXPECT_EQ(a.state.blocks()[i].f64, b.state.blocks()[i].f64);
    EXPECT_EQ(a.state.blocks()[i].u64, b.state.blocks()[i].u64);
  }
  ASSERT_EQ(a.probe_prefix.size(), b.probe_prefix.size());
  for (std::size_t i = 0; i < a.probe_prefix.size(); ++i) {
    EXPECT_EQ(a.probe_prefix[i].point.layer, b.probe_prefix[i].point.layer);
    EXPECT_EQ(a.probe_prefix[i].point.phase, b.probe_prefix[i].point.phase);
    EXPECT_TRUE(a.probe_prefix[i].stats == b.probe_prefix[i].stats);
  }
}

TEST(PrefixEntryFormat, RoundTripIsBitwise) {
  const PrefixEntryData entry = make_entry(0.1234567890123456789);
  std::vector<std::uint8_t> bytes;
  {
    mh5::BufferSink sink(bytes);
    write_prefix_entry(sink, entry);
  }
  mh5::MemorySource src(bytes.data(), bytes.size());
  const PrefixEntryData back = read_prefix_entry(src);
  expect_entries_equal(entry, back);
}

TEST(PrefixEntryFormat, RejectsCorruptMagic) {
  std::vector<std::uint8_t> bytes;
  {
    mh5::BufferSink sink(bytes);
    write_prefix_entry(sink, make_entry(1.5));
  }
  bytes[0] ^= 0xFF;
  mh5::MemorySource src(bytes.data(), bytes.size());
  EXPECT_THROW(read_prefix_entry(src), Error);
}

TEST(PrefixCache, BuildsOnceThenHits) {
  PrefixCache cache(64u << 20);
  int builds = 0;
  const PrefixKey key{1, 2, false};
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
  EXPECT_GT(cache.bytes_cached(), 0u);
  // Distinct key (eval flag differs) is a distinct entry.
  cache.get_or_build(PrefixKey{1, 2, true}, builder);
  EXPECT_EQ(builds, 2);
}

TEST(PrefixCache, EvictsToDiskAndReloadsBitwise) {
  // Budget of 1 byte: every newly inserted entry immediately evicts all
  // others, so the first key's slot must spill and later reload from disk.
  PrefixCache cache(1);
  const PrefixKey k1{0, 1, false};
  const PrefixKey k2{0, 2, false};
  const auto e1 = cache.get_or_build(k1, [] { return make_entry(3.25); });
  cache.get_or_build(k2, [] { return make_entry(4.75); });
  EXPECT_GE(cache.spills(), 1u);

  // The reload must come from the spill file, not a rebuild: a builder that
  // aborts the test proves the cached bytes satisfied the request.
  const auto back = cache.get_or_build(k1, []() -> PrefixEntryData {
    ADD_FAILURE() << "spilled entry was rebuilt instead of reloaded";
    return make_entry(0.0);
  });
  EXPECT_GE(cache.reloads(), 1u);
  expect_entries_equal(*e1, *back);
}

TEST(PrefixCache, KeepsRequestedEntryWhenOverBudget) {
  // A single entry larger than the whole budget must stay usable: eviction
  // never touches the key being served.
  PrefixCache cache(1);
  const auto e = cache.get_or_build(PrefixKey{0, 0, true},
                                    [] { return make_entry(9.5); });
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->boundary.size(), 2u);
}

TEST(PrefixCache, ConcurrentGetOrBuildCollapsesToOneBuild) {
  PrefixCache cache(64u << 20);
  std::atomic<int> builds{0};
  const PrefixKey key{3, 1, false};
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
