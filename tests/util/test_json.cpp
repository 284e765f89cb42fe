#include "util/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "util/common.hpp"
#include "util/rng.hpp"

namespace ckptfi {
namespace {

TEST(Json, ScalarConstruction) {
  EXPECT_TRUE(Json().is_null());
  EXPECT_TRUE(Json(true).as_bool());
  EXPECT_EQ(Json(42).as_int(), 42);
  EXPECT_DOUBLE_EQ(Json(2.5).as_double(), 2.5);
  EXPECT_EQ(Json("hi").as_string(), "hi");
}

TEST(Json, IntDoubleInterop) {
  EXPECT_DOUBLE_EQ(Json(3).as_double(), 3.0);
  EXPECT_EQ(Json(3.7).as_int(), 3);
}

TEST(Json, TypeMismatchThrows) {
  EXPECT_THROW(Json(1).as_string(), FormatError);
  EXPECT_THROW(Json("x").as_int(), FormatError);
  EXPECT_THROW(Json().as_bool(), FormatError);
}

TEST(Json, ArrayOps) {
  Json a = Json::array();
  a.push_back(1);
  a.push_back("two");
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.at(0).as_int(), 1);
  EXPECT_EQ(a.at(1).as_string(), "two");
  EXPECT_THROW(a.at(2), FormatError);
}

TEST(Json, ObjectPreservesInsertionOrder) {
  Json o = Json::object();
  o["zeta"] = 1;
  o["alpha"] = 2;
  o["mid"] = 3;
  const auto& m = o.members();
  ASSERT_EQ(m.size(), 3u);
  EXPECT_EQ(m[0].first, "zeta");
  EXPECT_EQ(m[1].first, "alpha");
  EXPECT_EQ(m[2].first, "mid");
}

TEST(Json, ObjectAccess) {
  Json o = Json::object();
  o["k"] = 9;
  EXPECT_TRUE(o.contains("k"));
  EXPECT_FALSE(o.contains("absent"));
  EXPECT_EQ(o.at("k").as_int(), 9);
  EXPECT_THROW(o.at("absent"), FormatError);
}

TEST(Json, DumpCompact) {
  Json o = Json::object();
  o["a"] = 1;
  o["b"] = Json::array();
  o["b"].push_back(true);
  EXPECT_EQ(o.dump(), R"({"a":1,"b":[true]})");
}

TEST(Json, DumpStringEscapes) {
  EXPECT_EQ(Json("a\"b\\c\nd").dump(), R"("a\"b\\c\nd")");
}

TEST(Json, ParseScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_EQ(Json::parse("-17").as_int(), -17);
  EXPECT_DOUBLE_EQ(Json::parse("2.5e3").as_double(), 2500.0);
  EXPECT_EQ(Json::parse(R"("s")").as_string(), "s");
}

TEST(Json, ParseNested) {
  const Json j = Json::parse(R"({"a":[1,2,{"b":"c"}],"d":null})");
  EXPECT_EQ(j.at("a").size(), 3u);
  EXPECT_EQ(j.at("a").at(2).at("b").as_string(), "c");
  EXPECT_TRUE(j.at("d").is_null());
}

TEST(Json, ParseEscapes) {
  EXPECT_EQ(Json::parse(R"("a\n\t\"\\")").as_string(), "a\n\t\"\\");
  EXPECT_EQ(Json::parse(R"("A")").as_string(), "A");
}

TEST(Json, ParseErrors) {
  EXPECT_THROW(Json::parse(""), FormatError);
  EXPECT_THROW(Json::parse("{"), FormatError);
  EXPECT_THROW(Json::parse("[1,]"), FormatError);
  EXPECT_THROW(Json::parse("tru"), FormatError);
  EXPECT_THROW(Json::parse("1 2"), FormatError);
  EXPECT_THROW(Json::parse(R"({"a" 1})"), FormatError);
}

TEST(Json, RoundTripPrettyAndCompact) {
  Json o = Json::object();
  o["name"] = "ckpt";
  o["vals"] = Json::array();
  for (int i = 0; i < 5; ++i) o["vals"].push_back(i * 1.5);
  o["nested"] = Json::object();
  o["nested"]["flag"] = false;
  // The values a corrupted weight takes: ±0 (a sign-bit flip of 0.0),
  // subnormals, NaN/±Inf, and integral doubles that print without a '.' or
  // an exponent; plus int64 extremes and every control byte in a string.
  Json edge = Json::array();
  for (const double d :
       {0.0, -0.0, std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min() / 3,
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(), 1e16, -1e16,
        12345678901234568.0, 1e17, 9.2233720368547758e18, 1e300})
    edge.push_back(d);
  edge.push_back(std::numeric_limits<std::int64_t>::min());
  edge.push_back(std::numeric_limits<std::int64_t>::max());
  std::string control;
  for (int b = 0; b < 0x20; ++b) control += static_cast<char>(b);
  control += "\x7f\"\\";
  edge.push_back(control);
  o["edge"] = std::move(edge);

  for (int indent : {-1, 2, 4}) {
    const std::string text = o.dump(indent);
    const Json back = Json::parse(text);
    EXPECT_EQ(back.dump(), o.dump());
    // A re-dump is a fixed point: parse loses nothing dump() wrote.
    EXPECT_EQ(back.dump(indent), text) << "indent " << indent;
  }
  // The sign of a zero survives the trip, as a double.
  const Json zero = Json::parse(Json(-0.0).dump());
  ASSERT_EQ(zero.type(), Json::Type::Double);
  EXPECT_TRUE(std::signbit(zero.as_double()));
}

TEST(Json, RawIsDumpedVerbatimAndOpaque) {
  const std::string text = "{\"b\":[1,-0,\"NaN\"],\"a\":{}}";
  Json row = Json::object();
  row["id"] = 7;
  row["log"] = Json::raw(text);
  row["after"] = true;
  EXPECT_EQ(row.dump(), "{\"id\":7,\"log\":" + text + ",\"after\":true}");
  // Indented dumps copy the fragment as is, compact inside.
  EXPECT_EQ(row.dump(2), "{\n  \"id\": 7,\n  \"log\": " + text +
                             ",\n  \"after\": true\n}");
  EXPECT_EQ(Json::raw(text).dump(4), text);
  // The text parses back to the tree it spells.
  EXPECT_EQ(Json::parse(row.dump()).at("log").dump(), text);

  const Json raw = Json::raw(text);
  EXPECT_EQ(raw.type(), Json::Type::Raw);
  EXPECT_FALSE(raw.is_null() || raw.is_number() || raw.is_string() ||
               raw.is_array() || raw.is_object());
  EXPECT_THROW(raw.as_bool(), FormatError);
  EXPECT_THROW(raw.as_int(), FormatError);
  EXPECT_THROW(raw.as_double(), FormatError);
  EXPECT_THROW(raw.as_string(), FormatError);
  EXPECT_THROW(raw.size(), FormatError);
  EXPECT_THROW(raw.at(0), FormatError);
  EXPECT_THROW(raw.at("b"), FormatError);
  EXPECT_THROW(raw.items(), FormatError);
  EXPECT_THROW(raw.members(), FormatError);
  EXPECT_FALSE(raw.contains("b"));
  Json mutable_raw = Json::raw(text);
  EXPECT_THROW(mutable_raw["b"], FormatError);
  EXPECT_THROW(mutable_raw.push_back(1), FormatError);
}

TEST(Json, CompactDumpIsAllocatedOnce) {
  // A campaign row's shape: a few scalars around a large raw log. Its text
  // is allocated at about its length, not grown to up to twice that.
  std::string log = "[0.5";
  for (int i = 1; i < 20000; ++i) log += ",0.5";
  log += ']';
  Json row = Json::object();
  row["cell"] = "alexnet/fc8";
  row["trial"] = 12345;
  row["accuracy"] = 0.1;
  row["log"] = Json::raw(log);
  row["fp"] = "07e5bab9";
  const std::string text = row.dump();
  EXPECT_EQ(text, "{\"cell\":\"alexnet/fc8\",\"trial\":12345,"
                  "\"accuracy\":0.10000000000000001,\"log\":" +
                      log + ",\"fp\":\"07e5bab9\"}");
  EXPECT_LE(text.capacity(), text.size() + 64);
}

TEST(Json, LargeIntsPreserved) {
  const std::int64_t big = 9007199254740993;  // not representable in double
  EXPECT_EQ(Json::parse(Json(big).dump()).as_int(), big);
}

// --- the text format every artifact row is written in ----------------------

std::string printf_17g(double d) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  return buf;
}

TEST(JsonFormat, DoublesMatchPrintf17g) {
  std::vector<double> cases = {
      0.0,
      -0.0,
      1.0,
      -1.0,
      100.0,
      1e16,
      1e17,
      123456789012345678.0,
      0.1,
      1.0 / 3.0,
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::epsilon(),
  };
  for (int e = -1074; e <= 1023; ++e) cases.push_back(std::ldexp(1.0, e));
  for (int k = 0; k < 1000; ++k) cases.push_back(static_cast<double>(k * 7919));
  Rng rng(20211013);
  for (int k = 0; k < 100000; ++k) {
    // Random bit patterns cover every exponent, subnormals included.
    const double d = std::bit_cast<double>(rng.next_u64());
    if (std::isfinite(d)) cases.push_back(d);
  }
  for (int k = 0; k < 20000; ++k) {
    // Random subnormals: exponent field zero, random mantissa and sign.
    cases.push_back(std::bit_cast<double>(rng.next_u64() &
                                          0x800fffffffffffffull));
  }
  for (const double d : cases) {
    ASSERT_EQ(Json(d).dump(), printf_17g(d)) << std::hexfloat << d;
  }
}

TEST(JsonFormat, NonFiniteDoublesAreStrings) {
  EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).dump(), "\"NaN\"");
  EXPECT_EQ(Json(-std::numeric_limits<double>::quiet_NaN()).dump(), "\"NaN\"");
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "\"Inf\"");
  EXPECT_EQ(Json(-std::numeric_limits<double>::infinity()).dump(), "\"-Inf\"");
}

TEST(JsonFormat, Int64Extremes) {
  const std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  const std::int64_t hi = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(Json(lo).dump(), "-9223372036854775808");
  EXPECT_EQ(Json(hi).dump(), "9223372036854775807");
  EXPECT_EQ(Json(std::int64_t{0}).dump(), "0");
  EXPECT_EQ(Json::parse(Json(lo).dump()).as_int(), lo);
  EXPECT_EQ(Json::parse(Json(hi).dump()).as_int(), hi);
}

TEST(JsonFormat, EveryByteEscapedOrPassedThrough) {
  std::string all;
  for (int b = 0; b < 256; ++b) all += static_cast<char>(b);
  std::string expected = "\"";
  for (int b = 0; b < 256; ++b) {
    if (b == '"') {
      expected += "\\\"";
    } else if (b == '\\') {
      expected += "\\\\";
    } else if (b == '\n') {
      expected += "\\n";
    } else if (b == '\r') {
      expected += "\\r";
    } else if (b == '\t') {
      expected += "\\t";
    } else if (b < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", b);
      expected += buf;
    } else {
      expected += static_cast<char>(b);  // 0x7f and >= 0x80 unchanged
    }
  }
  expected += '"';
  EXPECT_EQ(Json(all).dump(), expected);
  // Escaped control bytes and the raw high bytes read back verbatim.
  EXPECT_EQ(Json::parse(Json(all).dump()).as_string(), all);
}

TEST(JsonParse, DeepNestingThrowsInsteadOfOverflowing) {
  // A megabyte of '[' once recursed until the stack overflowed.
  EXPECT_THROW(Json::parse(std::string(1000000, '[')), FormatError);
  EXPECT_THROW(Json::parse(std::string(1000000, '{')), FormatError);
  std::string mixed;
  for (int i = 0; i < 500000; ++i) mixed += "[{\"k\":";
  EXPECT_THROW(Json::parse(mixed), FormatError);
}

TEST(JsonParse, NestingUpToTheLimitParses) {
  const int limit = 256;
  const std::string ok =
      std::string(limit, '[') + std::string(limit, ']');
  EXPECT_EQ(Json::parse(ok).dump(), ok);
  const std::string deep =
      std::string(limit + 1, '[') + std::string(limit + 1, ']');
  EXPECT_THROW(Json::parse(deep), FormatError);
}

}  // namespace
}  // namespace ckptfi
