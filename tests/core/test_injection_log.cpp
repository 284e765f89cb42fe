#include "core/injection_log.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "util/common.hpp"

namespace ckptfi::core {
namespace {

InjectionRecord sample_record() {
  InjectionRecord r;
  r.location = "predictor/conv1/W";
  r.index = 42;
  r.canonical_param = "conv1/W";
  r.layer = "conv1";
  r.canonical_index = 42;
  r.bits = {3, 7, 52};
  r.old_value = 0.25;
  r.new_value = -17.5;
  return r;
}

TEST(InjectionRecord, JsonRoundTrip) {
  const InjectionRecord r = sample_record();
  const InjectionRecord back = InjectionRecord::from_json(r.to_json());
  EXPECT_EQ(back.location, r.location);
  EXPECT_EQ(back.index, r.index);
  EXPECT_EQ(back.canonical_param, r.canonical_param);
  EXPECT_EQ(back.layer, r.layer);
  EXPECT_EQ(back.canonical_index, r.canonical_index);
  EXPECT_EQ(back.bits, r.bits);
  EXPECT_FALSE(back.scale.has_value());
  EXPECT_DOUBLE_EQ(back.old_value, 0.25);
  EXPECT_DOUBLE_EQ(back.new_value, -17.5);
}

TEST(InjectionRecord, ScaleRoundTrip) {
  InjectionRecord r;
  r.location = "x";
  r.scale = 4500.0;
  const InjectionRecord back = InjectionRecord::from_json(r.to_json());
  ASSERT_TRUE(back.scale.has_value());
  EXPECT_DOUBLE_EQ(*back.scale, 4500.0);
  EXPECT_TRUE(back.bits.empty());
}

TEST(InjectionRecord, MinimalFieldsOmitOptionals) {
  InjectionRecord r;
  r.location = "x";
  const Json j = r.to_json();
  EXPECT_FALSE(j.contains("canonical_param"));
  EXPECT_FALSE(j.contains("layer"));
  EXPECT_FALSE(j.contains("canonical_index"));
  EXPECT_FALSE(j.contains("scale"));
}

TEST(InjectionLog, OrderPreserved) {
  InjectionLog log;
  for (int i = 0; i < 5; ++i) {
    InjectionRecord r = sample_record();
    r.index = static_cast<std::uint64_t>(i);
    log.add(std::move(r));
  }
  const InjectionLog back = InjectionLog::from_json(log.to_json());
  ASSERT_EQ(back.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(back.records()[i].index, i);
  }
}

TEST(InjectionLog, Meta) {
  InjectionLog log;
  log.set_meta("framework", "chainer");
  log.set_meta("model", "alexnet");
  log.set_meta("framework", "pytorch");  // overwrite
  EXPECT_EQ(log.meta("framework"), "pytorch");
  EXPECT_EQ(log.meta("model"), "alexnet");
  EXPECT_EQ(log.meta("absent"), "");
  const InjectionLog back = InjectionLog::from_json(log.to_json());
  EXPECT_EQ(back.meta("framework"), "pytorch");
}

TEST(InjectionLog, FileSaveLoad) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "inj_log.json").string();
  InjectionLog log;
  log.set_meta("framework", "chainer");
  log.add(sample_record());
  log.save(path);
  const InjectionLog back = InjectionLog::load(path);
  EXPECT_EQ(back.size(), 1u);
  EXPECT_EQ(back.records()[0].location, "predictor/conv1/W");
  EXPECT_EQ(back.meta("framework"), "chainer");
  std::filesystem::remove(path);
}

TEST(InjectionLog, LoadMissingFileThrows) {
  EXPECT_THROW(InjectionLog::load("/nonexistent/log.json"), Error);
}

TEST(InjectionLog, FromJsonRequiresInjections) {
  EXPECT_THROW(InjectionLog::from_json(Json::object()), InvalidArgument);
}

TEST(InjectionLog, ClearAndEmpty) {
  InjectionLog log;
  EXPECT_TRUE(log.empty());
  log.add(sample_record());
  EXPECT_FALSE(log.empty());
  log.clear();
  EXPECT_TRUE(log.empty());
}

TEST(InjectionLog, DivergenceTraceRoundTrip) {
  InjectionLog log;
  log.add(sample_record());
  EXPECT_FALSE(log.has_divergence());
  EXPECT_FALSE(log.to_json().contains("divergence"));

  Json trace = Json::object();
  trace["diverged"] = true;
  trace["first_step"] = 12;
  trace["first_layer"] = "conv1";
  trace["depth"] = 3;
  log.set_divergence(trace);
  ASSERT_TRUE(log.has_divergence());

  const InjectionLog back = InjectionLog::from_json(log.to_json());
  ASSERT_TRUE(back.has_divergence());
  EXPECT_TRUE(back.divergence().at("diverged").as_bool());
  EXPECT_EQ(back.divergence().at("first_step").as_int(), 12);
  EXPECT_EQ(back.divergence().at("first_layer").as_string(), "conv1");
  EXPECT_EQ(back.divergence().at("depth").as_int(), 3);
}

/// A log exercising every optional field, meta, divergence, the non-finite
/// and signed-zero/subnormal values a flip produces, u64 fields past
/// INT64_MAX, and a location holding '"', '\' and a control byte.
InjectionLog golden_log() {
  InjectionLog log;
  log.set_meta("framework", "chainer");
  log.set_meta("note", "a \"quoted\"\tvalue");
  InjectionRecord full;
  full.location = "predictor/\"odd\\path\x01/W";
  full.index = 42;
  full.canonical_param = "conv1/W";
  full.layer = "conv1";
  full.canonical_index = 9223372036854775813ull;
  full.bits = {3, 62};
  full.old_value = 0.25;
  full.new_value = -0.0;
  full.wall_ms = 0.125;
  full.rng_draw = std::numeric_limits<std::uint64_t>::max();
  log.add(full);
  InjectionRecord scaled;
  scaled.location = "predictor/fc8/b";
  scaled.index = 7;
  scaled.scale = 4500.0;
  scaled.old_value = std::numeric_limits<double>::quiet_NaN();
  scaled.new_value = std::numeric_limits<double>::infinity();
  log.add(scaled);
  InjectionRecord tiny;
  tiny.location = "x";
  tiny.bits = {63};
  tiny.old_value = -std::numeric_limits<double>::infinity();
  tiny.new_value = std::numeric_limits<double>::denorm_min();
  log.add(tiny);
  InjectionRecord integral;
  integral.location = "y";
  integral.index = 1;
  integral.bits = {52};
  integral.old_value = 1e16;
  integral.new_value = -std::numeric_limits<double>::min() / 3;
  log.add(integral);
  Json div = Json::object();
  div["diverged"] = true;
  div["first_step"] = 12;
  div["first_layer"] = "conv1";
  div["max_rel"] = std::numeric_limits<double>::quiet_NaN();
  div["deviation"] = 1e-320;
  log.set_divergence(div);
  return log;
}

// The log's row text, pinned: every artifact row that embeds a log prints
// these bytes, so write_json must keep printing exactly them.
constexpr const char* kGoldenCompact =
    R"({"version":1,"meta":{"framework":"chainer","note":"a \"quoted\"\tvalue"},)"
    R"("injections":[{"location":"predictor/\"odd\\path\u0001/W","index":42,)"
    R"("canonical_param":"conv1/W","layer":"conv1",)"
    R"("canonical_index":-9223372036854775803,"bits":[3,62],"old_value":0.25,)"
    R"("new_value":-0,"wall_ms":0.125,"rng_draw":-1},)"
    R"({"location":"predictor/fc8/b","index":7,"bits":[],"scale":4500,)"
    R"("old_value":"NaN","new_value":"Inf"},)"
    R"({"location":"x","index":0,"bits":[63],"old_value":"-Inf",)"
    R"("new_value":4.9406564584124654e-324},)"
    R"({"location":"y","index":1,"bits":[52],"old_value":10000000000000000,)"
    R"("new_value":-7.4169128616906696e-309}],)"
    R"("divergence":{"diverged":true,"first_step":12,"first_layer":"conv1",)"
    R"("max_rel":"NaN","deviation":9.9998886718268301e-321}})";

TEST(InjectionLog, WriterPrintsTheGoldenBytes) {
  const InjectionLog log = golden_log();
  std::string text = "prefix:";  // write_json appends
  log.write_json(text);
  EXPECT_EQ(text, std::string("prefix:") + kGoldenCompact);
  EXPECT_EQ(log.to_json().dump(), kGoldenCompact);

  // Per record, and for a default record (every optional field absent).
  std::string rec;
  log.records()[0].write_json(rec);
  EXPECT_EQ(rec, log.to_json().at("injections").at(0).dump());
  EXPECT_EQ(log.records()[0].to_json().dump(), rec);
  InjectionLog plain;
  plain.add(InjectionRecord{});
  std::string minimal;
  plain.write_json(minimal);
  EXPECT_EQ(minimal,
            R"({"version":1,"meta":{},"injections":[{"location":"","index":0,)"
            R"("bits":[],"old_value":0,"new_value":0}]})");
}

TEST(InjectionLog, SaveWritesTheGoldenIndentedText) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "inj_log_golden.json")
          .string();
  const InjectionLog log = golden_log();
  log.save(path);
  std::ifstream in(path);
  std::stringstream saved;
  saved << in.rdbuf();
  EXPECT_EQ(saved.str(), R"({
  "version": 1,
  "meta": {
    "framework": "chainer",
    "note": "a \"quoted\"\tvalue"
  },
  "injections": [
    {
      "location": "predictor/\"odd\\path\u0001/W",
      "index": 42,
      "canonical_param": "conv1/W",
      "layer": "conv1",
      "canonical_index": -9223372036854775803,
      "bits": [
        3,
        62
      ],
      "old_value": 0.25,
      "new_value": -0,
      "wall_ms": 0.125,
      "rng_draw": -1
    },
    {
      "location": "predictor/fc8/b",
      "index": 7,
      "bits": [],
      "scale": 4500,
      "old_value": "NaN",
      "new_value": "Inf"
    },
    {
      "location": "x",
      "index": 0,
      "bits": [
        63
      ],
      "old_value": "-Inf",
      "new_value": 4.9406564584124654e-324
    },
    {
      "location": "y",
      "index": 1,
      "bits": [
        52
      ],
      "old_value": 10000000000000000,
      "new_value": -7.4169128616906696e-309
    }
  ],
  "divergence": {
    "diverged": true,
    "first_step": 12,
    "first_layer": "conv1",
    "max_rel": "NaN",
    "deviation": 9.9998886718268301e-321
  }
}
)");
  // A saved sign-bit flip loads back with its sign.
  const InjectionLog back = InjectionLog::load(path);
  ASSERT_EQ(back.size(), log.size());
  EXPECT_TRUE(std::signbit(back.records()[0].new_value));
  EXPECT_EQ(back.records()[0].new_value, 0.0);
  EXPECT_EQ(back.records()[0].canonical_index, log.records()[0].canonical_index);
  EXPECT_EQ(back.records()[0].rng_draw, log.records()[0].rng_draw);
  EXPECT_EQ(back.records()[0].location, log.records()[0].location);
  std::filesystem::remove(path);
}

TEST(InjectionLog, NonFiniteValuesSerializable) {
  // Corrupted values are frequently NaN/Inf: the log must still round-trip
  // (values become strings; the replay only needs location/index/bits).
  InjectionRecord r = sample_record();
  r.new_value = std::nan("");
  InjectionLog log;
  log.add(r);
  const InjectionLog back = InjectionLog::from_json(log.to_json());
  EXPECT_EQ(back.records()[0].bits, r.bits);
}

}  // namespace
}  // namespace ckptfi::core
