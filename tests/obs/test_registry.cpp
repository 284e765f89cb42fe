// Registry semantics: counter/gauge/histogram behavior, concurrent updates
// from ThreadPool workers, and the zero-overhead guarantee that a disabled
// registry performs no allocations on the hot path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/threadpool.hpp"

using namespace ckptfi;

// Allocation counter: replacing global operator new lets the zero-overhead
// tests (here and in test_probes.cpp) observe exactly how many heap
// allocations a code region performs.
std::atomic<std::uint64_t> g_allocations{0};

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

class RegistryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_metrics_enabled(true);
    obs::Registry::global().reset();
  }
  void TearDown() override {
    obs::Registry::global().reset();
    obs::set_metrics_enabled(false);
  }
};

TEST_F(RegistryTest, CounterAddsAndReads) {
  obs::counter_add("t.counter");
  obs::counter_add("t.counter", 41);
  EXPECT_EQ(obs::Registry::global().counter("t.counter").value(), 42u);
}

TEST_F(RegistryTest, GaugeKeepsLastValueAndSupportsDeltas) {
  obs::gauge_set("t.gauge", 2.5);
  obs::gauge_set("t.gauge", 7.0);
  EXPECT_DOUBLE_EQ(obs::Registry::global().gauge("t.gauge").value(), 7.0);
  obs::gauge_add("t.gauge", -3.0);
  EXPECT_DOUBLE_EQ(obs::Registry::global().gauge("t.gauge").value(), 4.0);
}

TEST_F(RegistryTest, HandleIsStableAcrossLookups) {
  obs::Counter& a = obs::Registry::global().counter("t.stable");
  obs::Counter& b = obs::Registry::global().counter("t.stable");
  EXPECT_EQ(&a, &b);
}

TEST_F(RegistryTest, HistogramCountSumMinMax) {
  auto& h = obs::Registry::global().histogram("t.hist", {1.0, 10.0, 100.0});
  for (double v : {0.5, 2.0, 2.0, 50.0, 500.0}) h.observe(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 554.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 500.0);
  EXPECT_DOUBLE_EQ(h.mean(), 554.5 / 5.0);
  const auto buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(buckets[0], 1u);
  EXPECT_EQ(buckets[1], 2u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 1u);
}

TEST_F(RegistryTest, HistogramPercentilesAreMonotoneAndBounded) {
  auto& h = obs::Registry::global().histogram(
      "t.pct", obs::Histogram::default_time_bounds());
  for (int i = 1; i <= 1000; ++i) h.observe(static_cast<double>(i) * 1e-5);
  const double p50 = h.percentile(0.50);
  const double p90 = h.percentile(0.90);
  const double p99 = h.percentile(0.99);
  EXPECT_LE(h.min(), p50);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, h.max());
  // Data is uniform on (0, 1e-2]: p50 should land within a bucket of 5e-3.
  EXPECT_NEAR(p50, 5e-3, 2.6e-3);
}

TEST_F(RegistryTest, EmptyHistogramIsAllZero) {
  auto& h = obs::Registry::global().histogram("t.empty");
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST_F(RegistryTest, SnapshotAndJsonRoundTrip) {
  obs::counter_add("t.c", 3);
  obs::gauge_set("t.g", 1.5);
  obs::histogram_observe("t.h", 0.25);
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].name, "t.c");
  EXPECT_EQ(snap.counters[0].value, 3u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1u);

  const Json j = Json::parse(snap.to_json().dump());
  EXPECT_EQ(j.at("counters").at("t.c").as_int(), 3);
  EXPECT_DOUBLE_EQ(j.at("gauges").at("t.g").as_double(), 1.5);
  EXPECT_EQ(j.at("histograms").at("t.h").at("count").as_int(), 1);
}

TEST_F(RegistryTest, ResetValuesKeepsHandlesValid) {
  obs::Counter& c = obs::Registry::global().counter("t.keep");
  c.add(9);
  obs::Registry::global().reset_values();
  EXPECT_EQ(c.value(), 0u);
  c.add(1);
  EXPECT_EQ(obs::Registry::global().counter("t.keep").value(), 1u);
}

TEST_F(RegistryTest, ConcurrentUpdatesFromThreadPoolWorkers) {
  constexpr std::size_t kN = 200000;
  ThreadPool pool(4);
  pool.parallel_for(kN, [](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      obs::counter_add("t.concurrent");
      obs::histogram_observe("t.concurrent_h", static_cast<double>(i % 7));
    }
  });
  EXPECT_EQ(obs::Registry::global().counter("t.concurrent").value(), kN);
  auto& h = obs::Registry::global().histogram("t.concurrent_h");
  EXPECT_EQ(h.count(), kN);
  std::uint64_t bucket_total = 0;
  for (auto b : h.bucket_counts()) bucket_total += b;
  EXPECT_EQ(bucket_total, kN);  // no lost updates
}

TEST(RegistryDisabled, HotPathMakesNoAllocations) {
  obs::set_metrics_enabled(false);
  obs::set_tracing_enabled(false);
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 10000; ++i) {
    obs::counter_add("d.counter", 2);
    obs::gauge_set("d.gauge", 1.0);
    obs::histogram_observe("d.hist", 0.5);
    obs::Span span("d.span", "test", "d.span_time");
  }
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after, before);
  // And nothing was registered as a side effect.
  obs::set_metrics_enabled(true);
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  for (const auto& c : snap.counters) EXPECT_NE(c.name, "d.counter");
  obs::set_metrics_enabled(false);
}

}  // namespace
