// serve::ParseJson — the strict, bounded parser behind the front door.
// Every rejection case here is something RFC 8259 rejects or a bound the
// serving layer imposes; every acceptance case checks the parsed value,
// not just the ok() bit.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/json.h"

namespace msq::serve {
namespace {

StatusOr<JsonValue> P(const std::string& text) { return ParseJson(text); }

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE(P("null").value().is_null());
  EXPECT_TRUE(P("true").value().AsBool());
  EXPECT_FALSE(P("false").value().AsBool());
  EXPECT_DOUBLE_EQ(P("42").value().AsNumber(), 42.0);
  EXPECT_DOUBLE_EQ(P("-0.5e2").value().AsNumber(), -50.0);
  EXPECT_DOUBLE_EQ(P("0").value().AsNumber(), 0.0);
  EXPECT_EQ(P("\"hi\"").value().AsString(), "hi");
}

TEST(JsonTest, ParsesContainersWithWhitespace) {
  const JsonValue v =
      P(" { \"a\" : [ 1 , 2.5 , true , null ] , \"b\" : { } } ").value();
  ASSERT_TRUE(v.is_object());
  const JsonValue* a = v.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->AsArray().size(), 4u);
  EXPECT_DOUBLE_EQ(a->AsArray()[0].AsNumber(), 1.0);
  EXPECT_DOUBLE_EQ(a->AsArray()[1].AsNumber(), 2.5);
  EXPECT_TRUE(a->AsArray()[2].AsBool());
  EXPECT_TRUE(a->AsArray()[3].is_null());
  ASSERT_NE(v.Find("b"), nullptr);
  EXPECT_TRUE(v.Find("b")->is_object());
  EXPECT_EQ(v.Find("missing"), nullptr);
}

TEST(JsonTest, ObjectPreservesInsertionOrder) {
  const JsonValue v = P("{\"z\":1,\"a\":2,\"m\":3}").value();
  ASSERT_EQ(v.AsObject().size(), 3u);
  EXPECT_EQ(v.AsObject()[0].first, "z");
  EXPECT_EQ(v.AsObject()[1].first, "a");
  EXPECT_EQ(v.AsObject()[2].first, "m");
}

TEST(JsonTest, StringEscapes) {
  EXPECT_EQ(P("\"a\\\"b\\\\c\\/d\\b\\f\\n\\r\\t\"").value().AsString(),
            "a\"b\\c/d\b\f\n\r\t");
  // BMP escape, and an astral pair (U+1F600) via surrogates.
  EXPECT_EQ(P("\"\\u0041\\u00e9\"").value().AsString(), "A\xc3\xa9");
  EXPECT_EQ(P("\"\\ud83d\\ude00\"").value().AsString(),
            "\xf0\x9f\x98\x80");
  // Raw UTF-8 passes through untouched.
  EXPECT_EQ(P("\"h\xc3\xa9llo\"").value().AsString(), "h\xc3\xa9llo");
}

TEST(JsonTest, RejectsRfcViolations) {
  const char* cases[] = {
      "",              // empty input
      "  ",            // whitespace only
      "{",             // unterminated object
      "[1,2",          // unterminated array
      "[1,]",          // trailing comma
      "{\"a\":1,}",    // trailing comma in object
      "{'a':1}",       // single quotes
      "{a:1}",         // unquoted key
      "{\"a\" 1}",     // missing colon
      "01",            // leading zero
      "+1",            // leading plus
      "1.",            // bare decimal point
      ".5",            // missing integer part
      "1e",            // empty exponent
      "NaN",           // not a JSON token
      "Infinity",      // not a JSON token
      "truth",         // keyword prefix with garbage
      "\"unterminated",
      "\"bad escape \\q\"",
      "\"tab\tliteral\"",  // unescaped control character
      "\"\\ud800\"",       // lone high surrogate
      "\"\\ude00\"",       // lone low surrogate
      "\"\\ud83d x\"",     // high surrogate without a pair
      "{\"a\":1} tail",    // trailing garbage
      "[1] [2]",           // two top-level values
      "{\"a\":1,\"a\":2}", // duplicate key
  };
  for (const char* text : cases) {
    const StatusOr<JsonValue> result = P(text);
    EXPECT_FALSE(result.ok()) << "accepted: " << text;
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
          << text;
    }
  }
}

TEST(JsonTest, RejectsOverlargeNumbers) {
  // 1e999 overflows double to infinity — must be rejected, not accepted
  // as inf.
  EXPECT_FALSE(P("1e999").ok());
  EXPECT_FALSE(P("-1e999").ok());
  // Largest finite double still parses.
  EXPECT_TRUE(std::isfinite(P("1.7976931348623157e308").value().AsNumber()));
}

TEST(JsonTest, ByteLimit) {
  JsonLimits limits;
  limits.max_bytes = 8;
  EXPECT_TRUE(ParseJson("[1,2,3]", limits).ok());
  EXPECT_FALSE(ParseJson("[1,2,3,4]", limits).ok());
  EXPECT_EQ(ParseJson("[1,2,3,4]", limits).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(JsonTest, DepthLimit) {
  JsonLimits limits;
  limits.max_depth = 4;
  EXPECT_TRUE(ParseJson("[[[[1]]]]", limits).ok());
  EXPECT_FALSE(ParseJson("[[[[[1]]]]]", limits).ok());
  // Nesting through objects counts too: five levels pass (the innermost
  // empty object sits at depth 4), six do not.
  EXPECT_TRUE(ParseJson("{\"a\":{\"a\":{\"a\":{\"a\":{}}}}}", limits).ok());
  EXPECT_FALSE(
      ParseJson("{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":{}}}}}}", limits).ok());
}

TEST(JsonTest, ValueCountLimit) {
  JsonLimits limits;
  limits.max_values = 4;
  EXPECT_TRUE(ParseJson("[1,2,3]", limits).ok());  // array + 3 numbers
  EXPECT_FALSE(ParseJson("[1,2,3,4]", limits).ok());
}

TEST(JsonTest, ErrorsCarryByteOffset) {
  const StatusOr<JsonValue> result = P("{\"a\": @}");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("at byte"), std::string::npos);
}

TEST(JsonTest, AppendJsonStringEscapes) {
  std::string out;
  AppendJsonString(&out, "a\"b\\c\n\x01");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\n\\u0001\"");
  // Round trip: everything the encoder emits, the parser accepts.
  EXPECT_EQ(P(out).value().AsString(), "a\"b\\c\n\x01");
}

TEST(JsonTest, AppendJsonNumberForms) {
  std::string out;
  AppendJsonNumber(&out, 42.0);
  EXPECT_EQ(out, "42");
  out.clear();
  AppendJsonNumber(&out, 0.25);
  EXPECT_DOUBLE_EQ(P(out).value().AsNumber(), 0.25);
  out.clear();
  AppendJsonNumber(&out, 1.0 / 3.0);
  EXPECT_EQ(out, "0.3333333333333333");  // shortest, not %.17g's 17 digits
  out.clear();
  AppendJsonNumber(&out, -0.0);
  EXPECT_EQ(out, "0");
  out.clear();
  AppendJsonNumber(&out, 1e15);  // past the integer branch
  EXPECT_EQ(out, "1e+15");
}

// Bit-for-bit, not within an ulp: every double the encoder writes parses
// back to the same 64 bits, over random bit patterns (subnormals included)
// and the values replies carry most.
TEST(JsonTest, AppendJsonNumberRoundTripsBitForBit) {
  std::vector<double> values = {1.0 / 3.0,
                                0.1,
                                2.0 / 3.0,
                                std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::max(),
                                std::nextafter(1.0, 2.0),
                                -1e-310,
                                123456789.125,
                                9007199254740993.0};
  std::mt19937_64 rng(20261020);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t bits = rng();
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    if (std::isfinite(value)) values.push_back(value);
    // Subnormals: exponent bits cleared.
    const std::uint64_t sub = bits & 0x800fffffffffffffULL;
    std::memcpy(&value, &sub, sizeof(value));
    values.push_back(value);
  }
  int subnormals = 0;
  for (const double value : values) {
    if (std::fpclassify(value) == FP_SUBNORMAL) ++subnormals;
    std::string out;
    AppendJsonNumber(&out, value);
    const StatusOr<JsonValue> parsed = P(out);
    ASSERT_TRUE(parsed.ok()) << out;
    const double back = parsed.value().AsNumber();
    std::uint64_t want;
    std::uint64_t got;
    std::memcpy(&want, &value, sizeof(want));
    std::memcpy(&got, &back, sizeof(got));
    // -0.0 is written as the integer 0.
    if (value == 0.0) {
      EXPECT_EQ(back, 0.0) << out;
    } else {
      EXPECT_EQ(got, want) << out;
    }
  }
  EXPECT_GT(subnormals, 10000);
}

}  // namespace
}  // namespace msq::serve
