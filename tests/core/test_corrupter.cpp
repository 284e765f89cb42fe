#include "core/corrupter.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <set>

#include "obs/registry.hpp"
#include "util/bitops.hpp"
#include "util/common.hpp"

namespace ckptfi::core {
namespace {

/// A small checkpoint-like file: two float datasets + one int dataset.
mh5::File sample_file(mh5::DType float_dtype = mh5::DType::F64) {
  mh5::File f;
  mh5::Dataset& a = f.create_dataset("model/layer1/W", float_dtype, {4, 4});
  mh5::Dataset& b = f.create_dataset("model/layer2/W", float_dtype, {8});
  for (std::uint64_t i = 0; i < a.num_elements(); ++i)
    a.set_double(i, 0.5 + 0.01 * static_cast<double>(i));
  for (std::uint64_t i = 0; i < b.num_elements(); ++i)
    b.set_double(i, -0.25 - 0.01 * static_cast<double>(i));
  f.create_dataset("meta/steps", mh5::DType::I64, {2}).set_int(0, 100);
  f.dataset("meta/steps").set_int(1, 7);
  return f;
}

std::uint64_t count_diffs(const mh5::File& a, const mh5::File& b) {
  std::uint64_t diffs = 0;
  for (const auto& path : a.dataset_paths()) {
    const auto& da = a.dataset(path);
    const auto& db = b.dataset(path);
    for (std::uint64_t i = 0; i < da.num_elements(); ++i) {
      diffs += (da.element_bits(i) != db.element_bits(i));
    }
  }
  return diffs;
}

CorrupterConfig base_config() {
  CorrupterConfig cfg;
  cfg.corruption_mode = CorruptionMode::BitRange;
  cfg.first_bit = 0;
  cfg.last_bit = 63;
  cfg.seed = 5;
  return cfg;
}

TEST(Corrupter, CountBudgetPerformsExactlyThatManyAttempts) {
  mh5::File f = sample_file();
  const mh5::File orig = mh5::File::deserialize(f.serialize());
  CorrupterConfig cfg = base_config();
  cfg.injection_attempts = 10;
  Corrupter c(cfg);
  const InjectionReport rep = c.corrupt(f);
  EXPECT_EQ(rep.attempts, 10u);
  EXPECT_EQ(rep.injections, 10u);
  EXPECT_EQ(rep.log.size(), 10u);
  // Each injection flips exactly one bit; collisions can cancel, so changed
  // values <= injections.
  EXPECT_LE(count_diffs(orig, f), 10u);
  EXPECT_GT(count_diffs(orig, f), 0u);
}

TEST(Corrupter, PercentageBudgetScalesWithEntries) {
  mh5::File f = sample_file();
  CorrupterConfig cfg = base_config();
  cfg.injection_type = InjectionType::Percentage;
  cfg.injection_attempts = 50.0;  // 50% of 26 entries = 13
  Corrupter c(cfg);
  EXPECT_EQ(c.resolve_attempts(f), 13u);
  const InjectionReport rep = c.corrupt(f);
  EXPECT_EQ(rep.attempts, 13u);
}

TEST(Corrupter, PercentageCountsOnlyResolvedLocations) {
  mh5::File f = sample_file();
  CorrupterConfig cfg = base_config();
  cfg.injection_type = InjectionType::Percentage;
  cfg.injection_attempts = 50.0;
  cfg.use_random_locations = false;
  cfg.locations_to_corrupt = {"model/layer1"};  // 16 entries
  Corrupter c(cfg);
  EXPECT_EQ(c.resolve_attempts(f), 8u);
}

TEST(Corrupter, ProbabilityGatesInjections) {
  mh5::File f = sample_file();
  CorrupterConfig cfg = base_config();
  cfg.injection_attempts = 2000;
  cfg.injection_probability = 0.25;
  Corrupter c(cfg);
  const InjectionReport rep = c.corrupt(f);
  EXPECT_EQ(rep.attempts, 2000u);
  EXPECT_EQ(rep.injections + rep.prob_skipped, 2000u);
  EXPECT_NEAR(static_cast<double>(rep.injections) / 2000.0, 0.25, 0.05);
}

TEST(Corrupter, ZeroProbabilityChangesNothing) {
  mh5::File f = sample_file();
  const mh5::File orig = mh5::File::deserialize(f.serialize());
  CorrupterConfig cfg = base_config();
  cfg.injection_attempts = 100;
  cfg.injection_probability = 0.0;
  Corrupter c(cfg);
  const InjectionReport rep = c.corrupt(f);
  EXPECT_EQ(rep.injections, 0u);
  EXPECT_EQ(count_diffs(orig, f), 0u);
}

TEST(Corrupter, BitRangeRespectsBounds) {
  mh5::File f = sample_file();
  CorrupterConfig cfg = base_config();
  cfg.injection_attempts = 200;
  cfg.first_bit = 52;  // exponent bits only (f64)
  cfg.last_bit = 61;
  Corrupter c(cfg);
  const InjectionReport rep = c.corrupt(f);
  for (const auto& rec : rep.log.records()) {
    if (rec.location == "meta/steps") continue;  // integer rule differs
    ASSERT_EQ(rec.bits.size(), 1u);
    EXPECT_GE(rec.bits[0], 52);
    EXPECT_LE(rec.bits[0], 61);
  }
}

TEST(Corrupter, BitRangeClampedToDatasetWidth) {
  mh5::File f = sample_file(mh5::DType::F32);
  CorrupterConfig cfg = base_config();
  cfg.injection_attempts = 100;
  cfg.first_bit = 0;
  cfg.last_bit = 63;  // wider than f32
  Corrupter c(cfg);
  const InjectionReport rep = c.corrupt(f);
  for (const auto& rec : rep.log.records()) {
    if (rec.location == "meta/steps") continue;
    EXPECT_LT(rec.bits[0], 32);
  }
}

TEST(Corrupter, BitMaskXorsAtRecordedOffset) {
  mh5::File f = sample_file();
  const mh5::File orig = mh5::File::deserialize(f.serialize());
  CorrupterConfig cfg = base_config();
  cfg.corruption_mode = CorruptionMode::BitMask;
  cfg.bit_mask = "101101";
  cfg.injection_attempts = 20;
  Corrupter c(cfg);
  const InjectionReport rep = c.corrupt(f);
  for (const auto& rec : rep.log.records()) {
    if (rec.location == "meta/steps") continue;
    EXPECT_EQ(rec.bits.size(), 4u);  // four set bits in 101101
    // Verify old XOR new equals the mask at the recorded positions —
    // reconstruct from the log alone.
    std::uint64_t expect_delta = 0;
    for (int b : rec.bits) expect_delta |= (1ull << b);
    const std::uint64_t old_bits = encode_float(rec.old_value, 64);
    const std::uint64_t new_bits = encode_float(rec.new_value, 64);
    EXPECT_EQ(old_bits ^ new_bits, expect_delta);
  }
  EXPECT_GT(count_diffs(orig, f), 0u);
}

TEST(Corrupter, ScalingFactorMultiplies) {
  mh5::File f = sample_file();
  CorrupterConfig cfg = base_config();
  cfg.corruption_mode = CorruptionMode::ScalingFactor;
  cfg.scaling_factor = 10.0;
  cfg.injection_attempts = 15;
  cfg.use_random_locations = false;
  cfg.locations_to_corrupt = {"model"};
  Corrupter c(cfg);
  const InjectionReport rep = c.corrupt(f);
  for (const auto& rec : rep.log.records()) {
    EXPECT_TRUE(rec.bits.empty());
    ASSERT_TRUE(rec.scale.has_value());
    EXPECT_DOUBLE_EQ(*rec.scale, 10.0);
    EXPECT_NEAR(rec.new_value, rec.old_value * 10.0,
                1e-9 * std::fabs(rec.new_value));
  }
}

TEST(Corrupter, NanFilterKeepsFileFinite) {
  mh5::File f = sample_file();
  CorrupterConfig cfg = base_config();
  cfg.injection_attempts = 500;
  cfg.allow_nan_values = false;
  cfg.first_bit = 52;
  cfg.last_bit = 63;  // aggressive: exponent + sign
  Corrupter c(cfg);
  const InjectionReport rep = c.corrupt(f);
  (void)rep;
  for (const auto& path : f.dataset_paths()) {
    const auto& ds = f.dataset(path);
    if (!mh5::dtype_is_float(ds.dtype())) continue;
    for (std::uint64_t i = 0; i < ds.num_elements(); ++i) {
      EXPECT_TRUE(std::isfinite(ds.get_double(i))) << path << "[" << i << "]";
    }
  }
}

TEST(Corrupter, NanAllowedLetsNonFiniteThrough) {
  // 1.5 has the all-but-MSB exponent pattern 01111111111: flipping bit 62
  // makes the exponent all ones, i.e. Inf/NaN — deterministically.
  mh5::File f;
  f.create_dataset("w", mh5::DType::F64, {1}).set_double(0, 1.5);
  CorrupterConfig cfg = base_config();
  cfg.injection_attempts = 1;
  cfg.first_bit = 62;
  cfg.last_bit = 62;
  cfg.allow_nan_values = true;
  Corrupter c(cfg);
  const InjectionReport rep = c.corrupt(f);
  EXPECT_EQ(rep.injections, 1u);
  EXPECT_FALSE(std::isfinite(f.dataset("w").get_double(0)));
}

TEST(Corrupter, NanFilterGivesUpWhenEveryCorruptionIsNonFinite) {
  // Same setup, but with the filter on there is no finite outcome in the
  // configured range: the corrupter must abandon the attempt and leave the
  // value untouched.
  mh5::File f;
  f.create_dataset("w", mh5::DType::F64, {1}).set_double(0, 1.5);
  CorrupterConfig cfg = base_config();
  cfg.injection_attempts = 1;
  cfg.first_bit = 62;
  cfg.last_bit = 62;
  cfg.allow_nan_values = false;
  Corrupter c(cfg);
  const InjectionReport rep = c.corrupt(f);
  EXPECT_EQ(rep.injections, 0u);
  EXPECT_EQ(rep.nan_gave_up, 1u);
  EXPECT_GT(rep.nan_retries, 0u);
  EXPECT_DOUBLE_EQ(f.dataset("w").get_double(0), 1.5);
}

TEST(Corrupter, LocationTargetingOnlyTouchesTargets) {
  mh5::File f = sample_file();
  const mh5::File orig = mh5::File::deserialize(f.serialize());
  CorrupterConfig cfg = base_config();
  cfg.injection_attempts = 50;
  cfg.use_random_locations = false;
  cfg.locations_to_corrupt = {"model/layer1"};
  Corrupter c(cfg);
  const InjectionReport rep = c.corrupt(f);
  for (const auto& rec : rep.log.records()) {
    EXPECT_EQ(rec.location, "model/layer1/W");
  }
  // layer2 and meta untouched.
  EXPECT_EQ(f.dataset("model/layer2/W").read_doubles(),
            orig.dataset("model/layer2/W").read_doubles());
  EXPECT_EQ(f.dataset("meta/steps").get_int(0), 100);
}

TEST(Corrupter, GroupLocationExpandsToSublocations) {
  mh5::File f = sample_file();
  CorrupterConfig cfg = base_config();
  cfg.use_random_locations = false;
  cfg.locations_to_corrupt = {"model"};
  Corrupter c(cfg);
  EXPECT_EQ(c.resolve_locations(f),
            (std::vector<std::string>{"model/layer1/W", "model/layer2/W"}));
}

TEST(Corrupter, UnknownLocationThrows) {
  mh5::File f = sample_file();
  CorrupterConfig cfg = base_config();
  cfg.use_random_locations = false;
  cfg.locations_to_corrupt = {"no/such/path"};
  Corrupter c(cfg);
  EXPECT_THROW(c.corrupt(f), InvalidArgument);
}

TEST(Corrupter, RandomLocationsUseWholeFile) {
  mh5::File f = sample_file();
  CorrupterConfig cfg = base_config();
  cfg.injection_attempts = 400;
  Corrupter c(cfg);
  const InjectionReport rep = c.corrupt(f);
  std::set<std::string> touched;
  for (const auto& rec : rep.log.records()) touched.insert(rec.location);
  EXPECT_EQ(touched.size(), 3u);  // both weight datasets and the int dataset
}

TEST(Corrupter, IntegerCorruptionFlipsWithinBitLength) {
  mh5::File f;
  f.create_dataset("ints", mh5::DType::I64, {1}).set_int(0, 5);  // 3 bits
  CorrupterConfig cfg = base_config();
  cfg.injection_attempts = 1;
  Corrupter c(cfg);
  const InjectionReport rep = c.corrupt(f);
  ASSERT_EQ(rep.injections, 1u);
  const std::int64_t v = f.dataset("ints").get_int(0);
  // 5 = 0b101: flipping bit 0,1,2 gives 4, 7, 1.
  EXPECT_TRUE(v == 4 || v == 7 || v == 1) << v;
}

TEST(Corrupter, IntegerZeroFlipsToOne) {
  mh5::File f;
  f.create_dataset("ints", mh5::DType::I64, {1}).set_int(0, 0);
  CorrupterConfig cfg = base_config();
  cfg.injection_attempts = 1;
  Corrupter c(cfg);
  c.corrupt(f);
  EXPECT_EQ(f.dataset("ints").get_int(0), 1);  // bin(0) has one digit
}

TEST(Corrupter, IntegerNegativePreservesSign) {
  mh5::File f;
  f.create_dataset("ints", mh5::DType::I64, {1}).set_int(0, -6);
  CorrupterConfig cfg = base_config();
  cfg.injection_attempts = 1;
  Corrupter c(cfg);
  c.corrupt(f);
  const std::int64_t v = f.dataset("ints").get_int(0);
  EXPECT_LT(v, 0);  // Python bin(-6) = '-0b110': sign sticks to the value
  EXPECT_TRUE(v == -7 || v == -4 || v == -2) << v;
}

TEST(Corrupter, DeterministicForSeed) {
  auto run = [](std::uint64_t seed) {
    mh5::File f = sample_file();
    CorrupterConfig cfg = base_config();
    cfg.injection_attempts = 50;
    cfg.seed = seed;
    Corrupter c(cfg);
    c.corrupt(f);
    return f.serialize();
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

TEST(Corrupter, CorruptFileRoundTrip) {
  namespace fs = std::filesystem;
  const std::string in =
      (fs::temp_directory_path() / "corrupter_in.h5").string();
  const std::string out =
      (fs::temp_directory_path() / "corrupter_out.h5").string();
  sample_file().save(in);
  CorrupterConfig cfg = base_config();
  cfg.injection_attempts = 5;
  Corrupter c(cfg);
  const InjectionReport rep = c.corrupt_file(in, out);
  EXPECT_EQ(rep.injections, 5u);
  const mh5::File orig = mh5::File::load(in);
  const mh5::File corrupted = mh5::File::load(out);
  EXPECT_GE(count_diffs(orig, corrupted), 1u);
  fs::remove(in);
  fs::remove(out);
}

TEST(Corrupter, LogRecordsMatchFileMutations) {
  mh5::File f = sample_file();
  const mh5::File orig = mh5::File::deserialize(f.serialize());
  CorrupterConfig cfg = base_config();
  cfg.injection_attempts = 30;
  Corrupter c(cfg);
  const InjectionReport rep = c.corrupt(f);
  // Replaying the log's bit flips over the original file must reproduce the
  // corrupted file exactly.
  mh5::File replay = mh5::File::deserialize(orig.serialize());
  for (const auto& rec : rep.log.records()) {
    auto& ds = replay.dataset(rec.location);
    if (mh5::dtype_is_float(ds.dtype())) {
      std::uint64_t repr = ds.element_bits(rec.index);
      for (int b : rec.bits) repr = flip_bit(repr, b);
      ds.set_element_bits(rec.index, repr);
    } else {
      ds.set_int(rec.index, static_cast<std::int64_t>(rec.new_value));
    }
  }
  EXPECT_EQ(replay.serialize(), f.serialize());
}

TEST(Corrupter, LazyCorruptionCycleFaultsInOnlyTheTargetedDataset) {
  // The streaming-I/O acceptance bar: corrupting one dataset of a
  // multi-dataset checkpoint must deserialize only that dataset's payload,
  // and the rewrite must copy every other payload verbatim.
  namespace fs = std::filesystem;
  const std::string in =
      (fs::temp_directory_path() / "corrupter_lazy_in.h5").string();
  const std::string out =
      (fs::temp_directory_path() / "corrupter_lazy_out.h5").string();
  sample_file().save(in);

  const bool metrics_were_on = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  auto counter = [](const char* name) {
    return obs::Registry::global().counter(name).value();
  };
  const auto faulted0 = counter("mh5.bytes_faulted_in");
  const auto faults0 = counter("mh5.lazy_faults");
  const auto verbatim0 = counter("mh5.bytes_copied_verbatim");

  CorrupterConfig cfg = base_config();
  cfg.injection_attempts = 5;
  cfg.use_random_locations = false;
  cfg.locations_to_corrupt = {"model/layer2/W"};
  Corrupter c(cfg);
  const InjectionReport rep = c.corrupt_file(in, out);
  obs::set_metrics_enabled(metrics_were_on);
  EXPECT_EQ(rep.injections, 5u);

  // layer2/W is 8 F64 elements = 64 bytes: the only payload deserialized.
  EXPECT_EQ(counter("mh5.bytes_faulted_in") - faulted0, 64u);
  EXPECT_EQ(counter("mh5.lazy_faults") - faults0, 1u);
  // layer1/W (16 F64 = 128 bytes) + meta/steps (2 I64 = 16 bytes) streamed
  // through save without ever being decoded.
  EXPECT_EQ(counter("mh5.bytes_copied_verbatim") - verbatim0, 128u + 16u);

  const mh5::File orig = mh5::File::load(in);
  const mh5::File corrupted = mh5::File::load(out);
  EXPECT_GE(count_diffs(orig, corrupted), 1u);
  EXPECT_EQ(corrupted.dataset("model/layer1/W").read_doubles(),
            orig.dataset("model/layer1/W").read_doubles());
  fs::remove(in);
  fs::remove(out);
}

}  // namespace
}  // namespace ckptfi::core
