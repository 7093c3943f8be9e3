// support/json.hpp: the runner's JSON writer. What matters for
// BENCH_<name>.json: deterministic bytes (insertion-ordered keys, fixed
// number rule), lossless doubles, correct escaping.
#include "support/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <random>
#include <vector>

namespace sdem {
namespace {

TEST(Json, ScalarsRender) {
  EXPECT_EQ(Json().dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(-7).dump(), "-7");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
  EXPECT_EQ(Json(std::string("hi")).dump(), "\"hi\"");
}

TEST(Json, IntegralDoublesPrintBare) {
  EXPECT_EQ(Json(8.0).dump(), "8");
  EXPECT_EQ(Json(-3.0).dump(), "-3");
  EXPECT_EQ(Json(0.0).dump(), "0");
  EXPECT_EQ(Json(1e12).dump(), "1000000000000");
}

TEST(Json, DoublesRoundTripExactly) {
  const double values[] = {0.1,
                           1.0 / 3.0,
                           2.5307e-10,
                           -123.456789012345678,
                           std::numeric_limits<double>::denorm_min(),
                           6.62607015e-34,
                           0.30000000000000004};
  for (double v : values) {
    const std::string s = Json::number_to_string(v);
    double back = 0.0;
    ASSERT_EQ(std::sscanf(s.c_str(), "%lf", &back), 1) << s;
    EXPECT_EQ(back, v) << s;
  }
}

TEST(Json, NonFiniteRendersNull) {
  EXPECT_EQ(Json(std::nan("")).dump(), "null");
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_EQ(Json(-std::numeric_limits<double>::infinity()).dump(), "null");
}

TEST(Json, StringEscaping) {
  EXPECT_EQ(Json("a\"b").dump(), "\"a\\\"b\"");
  EXPECT_EQ(Json("back\\slash").dump(), "\"back\\\\slash\"");
  EXPECT_EQ(Json("line\nbreak\ttab").dump(), "\"line\\nbreak\\ttab\"");
  EXPECT_EQ(Json(std::string("ctrl\x01")).dump(), "\"ctrl\\u0001\"");
  // UTF-8 passes through untouched.
  EXPECT_EQ(Json("\xc3\xa9").dump(), "\"\xc3\xa9\"");
}

TEST(Json, ObjectKeepsInsertionOrderAndOverwrites) {
  Json o = Json::object();
  o.set("z", 1);
  o.set("a", 2);
  o.set("m", 3);
  EXPECT_EQ(o.dump(), "{\"z\": 1, \"a\": 2, \"m\": 3}");
  o.set("a", 9);  // overwrite keeps the original position
  EXPECT_EQ(o.dump(), "{\"z\": 1, \"a\": 9, \"m\": 3}");
  EXPECT_EQ(o.size(), 3u);
}

TEST(Json, ArraysAndNesting) {
  Json arr = Json::array();
  arr.push_back(1);
  Json inner = Json::object();
  inner.set("k", "v");
  arr.push_back(std::move(inner));
  EXPECT_EQ(arr.dump(), "[1, {\"k\": \"v\"}]");
  EXPECT_EQ(arr.size(), 2u);
  EXPECT_EQ(Json::array().dump(), "[]");
  EXPECT_EQ(Json::object().dump(), "{}");
}

TEST(Json, NullPromotesOnFirstUse) {
  Json a;  // null
  a.push_back(1);
  EXPECT_EQ(a.kind(), Json::Kind::kArray);
  Json o;  // null
  o.set("k", 1);
  EXPECT_EQ(o.kind(), Json::Kind::kObject);
  EXPECT_THROW(a.set("k", 1), std::logic_error);
  EXPECT_THROW(o.push_back(1), std::logic_error);
}

TEST(Json, PrettyPrintIsStable) {
  Json doc = Json::object();
  doc.set("name", "fig6a");
  Json rows = Json::array();
  Json row = Json::object();
  row.set("u", 2);
  row.set("saving", 0.105625);
  rows.push_back(std::move(row));
  doc.set("rows", std::move(rows));
  EXPECT_EQ(doc.dump(2),
            "{\n"
            "  \"name\": \"fig6a\",\n"
            "  \"rows\": [\n"
            "    {\n"
            "      \"u\": 2,\n"
            "      \"saving\": 0.105625\n"
            "    }\n"
            "  ]\n"
            "}\n");
  // Identical documents produce identical bytes (what the determinism
  // acceptance check diffs).
  Json doc2 = Json::object();
  doc2.set("name", "fig6a");
  Json rows2 = Json::array();
  Json row2 = Json::object();
  row2.set("u", 2);
  row2.set("saving", 0.105625);
  rows2.push_back(std::move(row2));
  doc2.set("rows", std::move(rows2));
  EXPECT_EQ(doc.dump(2), doc2.dump(2));
}

/// A document carrying "solver_seconds" at the top level and one level down.
Json timed_document() {
  Json doc = Json::object();
  doc.set("keep", 1);
  doc.set("solver_seconds", 0.5);
  Json arr = Json::array();
  Json row = Json::object();
  row.set("solver_seconds", 0.25);
  row.set("value", 2);
  arr.push_back(std::move(row));
  doc.set("rows", std::move(arr));
  return doc;
}

TEST(Json, WithoutKeyStripsRecursively) {
  const Json doc = timed_document();
  const Json stripped = doc.without_key("solver_seconds");
  EXPECT_EQ(stripped.dump(),
            "{\"keep\": 1, \"rows\": [{\"value\": 2}]}");
  // The original is untouched.
  EXPECT_NE(doc.dump().find("solver_seconds"), std::string::npos);
}

TEST(Json, EraseKeyStripsRecursivelyInPlace) {
  Json doc = timed_document();
  doc.erase_key("solver_seconds");
  EXPECT_EQ(doc.dump(), "{\"keep\": 1, \"rows\": [{\"value\": 2}]}");
  EXPECT_EQ(doc.dump(), timed_document().without_key("solver_seconds").dump());
}

// ------------------------------------------------------ frozen number codec

/// The number rule as first written with snprintf and strtod, kept verbatim
/// as the reference the <charconv> codec must match byte for byte.
std::string reference_number_to_string(double v) {
  if (!std::isfinite(v)) return "null";
  // Integers (within double's exact range) print bare: 8, not 8.0. Written
  // by hand rather than snprintf("%.0f") — this runs per number in every
  // response envelope and bench row, and the digits are identical (signbit
  // keeps "-0" for negative zero).
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[24];
    char* q = buf + sizeof buf;
    std::uint64_t mag = static_cast<std::uint64_t>(std::fabs(v));
    do {
      *--q = static_cast<char>('0' + mag % 10);
      mag /= 10;
    } while (mag != 0);
    if (std::signbit(v)) *--q = '-';
    return std::string(q, static_cast<std::size_t>(buf + sizeof buf - q));
  }
  // Shortest representation that round-trips: try increasing precision.
  // strtod (not sscanf) for the round-trip check — same parse, no format
  // string machinery.
  char buf[40];
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

/// Over a million doubles from the shapes the repository prints (seconds
/// in [0, 1), frequencies in MHz, tiny energies) and the shapes that stress
/// the rule (random bit patterns, powers of two, subnormals, the %g layout
/// switches near 1e-5/1e-4 and 1e15..1e17, negative zero).
std::vector<double> codec_corpus() {
  std::mt19937_64 rng(20150309);
  std::vector<double> out;
  out.reserve(1100000);
  const auto both_signs = [&](double v) {
    out.push_back(v);
    out.push_back(-v);
  };
  for (int i = 0; i < 400000; ++i) out.push_back(std::bit_cast<double>(rng()));
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int i = 0; i < 200000; ++i) out.push_back(unit(rng));
  std::uniform_real_distribution<double> mhz(0.0, 2000.0);
  for (int i = 0; i < 200000; ++i) out.push_back(mhz(rng));
  std::uniform_real_distribution<double> mantissa(1.0, 10.0);
  std::uniform_int_distribution<int> tiny_exp(-320, -5);
  for (int i = 0; i < 100000; ++i)
    out.push_back(mantissa(rng) * std::pow(10.0, tiny_exp(rng)));
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    both_signs(p);
    both_signs(std::nextafter(p, 0.0));
    both_signs(std::nextafter(p, 2.0 * p));
  }
  std::uniform_int_distribution<std::uint64_t> subnormal(
      1, (std::uint64_t{1} << 52) - 1);
  for (int i = 0; i < 50000; ++i)
    both_signs(std::bit_cast<double>(subnormal(rng)));
  for (const int k : {-6, -5, -4, -3, 14, 15, 16, 17, 18}) {
    const double edge = std::pow(10.0, k);
    double up = edge, down = edge;
    for (int i = 0; i < 1000; ++i) {
      both_signs(up);
      both_signs(down);
      up = std::nextafter(up, 2.0 * edge);
      down = std::nextafter(down, 0.0);
    }
    std::uniform_real_distribution<double> decade(edge / 2.0, edge * 2.0);
    for (int i = 0; i < 5000; ++i) out.push_back(decade(rng));
  }
  out.push_back(-0.0);
  return out;
}

TEST(JsonCodec, MatchesTheSnprintfStrtodRuleByteForByte) {
  const std::vector<double> corpus = codec_corpus();
  ASSERT_GE(corpus.size(), 1000000u);
  std::size_t mismatches = 0, misparses = 0;
  for (const double v : corpus) {
    const std::string want = reference_number_to_string(v);
    const std::string got = Json::number_to_string(v);
    if (got != want && mismatches++ == 0)
      ADD_FAILURE() << std::hexfloat << v << ": " << got << " != " << want;
    if (!std::isfinite(v)) continue;
    // Parsing the text gives what strtod gives, bit for bit.
    const double back = Json::parse(want).as_number();
    const double ref = std::strtod(want.c_str(), nullptr);
    if (std::bit_cast<std::uint64_t>(back) !=
            std::bit_cast<std::uint64_t>(ref) &&
        misparses++ == 0)
      ADD_FAILURE() << want << " parses to " << std::hexfloat << back
                    << ", strtod reads " << ref;
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(misparses, 0u);
  EXPECT_EQ(Json::number_to_string(-0.0), "-0");
  EXPECT_EQ(Json::number_to_string(1e-4), "0.0001");  // %g, not "1e-04"
  EXPECT_EQ(Json::number_to_string(1e-5), "1e-05");
  EXPECT_EQ(Json::number_to_string(1e15), "1e+15");
}

TEST(JsonParse, ScalarsAndContainers) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_EQ(Json::parse("42").as_number(), 42.0);
  EXPECT_EQ(Json::parse("-1.5e3").as_number(), -1500.0);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");

  const Json arr = Json::parse("[1, 2, 3]");
  ASSERT_TRUE(arr.is_array());
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_EQ(arr.at(2).as_number(), 3.0);

  const Json obj = Json::parse(R"({"a": 1, "b": {"c": [true]}})");
  ASSERT_TRUE(obj.is_object());
  EXPECT_TRUE(obj.has("a"));
  EXPECT_FALSE(obj.has("z"));
  EXPECT_EQ(obj.at("b").at("c").at(0).as_bool(), true);
  EXPECT_EQ(obj.number_or("a", -1.0), 1.0);
  EXPECT_EQ(obj.number_or("z", -1.0), -1.0);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(Json::parse(R"("a\"b\\c\n\t")").as_string(), "a\"b\\c\n\t");
  EXPECT_EQ(Json::parse(R"("A")").as_string(), "A");
}

TEST(JsonParse, WriterOutputRoundTrips) {
  Json doc = Json::object();
  doc.set("pi", 3.141592653589793);
  doc.set("tiny", 2.53e-10);
  doc.set("neg", -0.1);
  Json arr = Json::array();
  arr.push_back(1e308);
  arr.push_back(std::string("x \"quoted\""));
  doc.set("arr", std::move(arr));
  const std::string text = doc.dump(2);
  const Json back = Json::parse(text);
  // Shortest-round-trip rendering + strtod parsing: bytes are stable.
  EXPECT_EQ(back.dump(2), text);
  EXPECT_EQ(back.at("pi").as_number(), 3.141592653589793);
  EXPECT_EQ(back.at("tiny").as_number(), 2.53e-10);
}

TEST(JsonParse, NumberSpellingsKeepTheirStrtodMeaning) {
  // JSON number text parses with from_chars; every other spelling strtod
  // accepts keeps its strtod parse, and what it rejects stays rejected.
  const double inf = std::numeric_limits<double>::infinity();
  const struct {
    const char* text;
    bool accepted;
    double value;
  } cases[] = {
      {"+1", true, 1.0},      {"0x10", true, 16.0},   {"inf", true, inf},
      {"nan", false, 0.0},    {"1e999", true, inf},   {"1e-400", true, 0.0},
      {"0123", true, 123.0},  {"-0", true, -0.0},     {"1.", true, 1.0},
      {".5", true, 0.5},      {"1e", false, 0.0},     {"1e+", false, 0.0},
      {"[1.]", true, 1.0},    {"[1e]", false, 0.0},   {"1E5", true, 1e5},
  };
  for (const auto& c : cases) {
    if (!c.accepted) {
      EXPECT_THROW(Json::parse(c.text), std::invalid_argument) << c.text;
      continue;
    }
    const Json doc = Json::parse(c.text);
    const Json& v = doc.is_array() ? doc.at(0) : doc;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(v.as_number()),
              std::bit_cast<std::uint64_t>(c.value))
        << c.text;
  }
}

TEST(JsonParse, NestingIsBounded) {
  const auto arrays = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_NO_THROW(Json::parse(arrays(Json::kMaxDepth - 1)));
  EXPECT_THROW(Json::parse(arrays(Json::kMaxDepth)), std::invalid_argument);
  // Objects count too, and the error names the offending byte.
  std::string objects;
  for (int i = 0; i < Json::kMaxDepth; ++i) objects += "{\"a\":";
  try {
    Json::parse(objects);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "byte " + std::to_string(5 * (Json::kMaxDepth - 1))),
              std::string::npos)
        << e.what();
  }
  // A hostile line fails fast instead of overflowing the stack.
  EXPECT_THROW(Json::parse(std::string(200000, '[')), std::invalid_argument);
}

TEST(JsonParse, MalformedInputThrowsWithOffset) {
  EXPECT_THROW(Json::parse(""), std::invalid_argument);
  EXPECT_THROW(Json::parse("{"), std::invalid_argument);
  EXPECT_THROW(Json::parse("[1, ]"), std::invalid_argument);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), std::invalid_argument);
  EXPECT_THROW(Json::parse("tru"), std::invalid_argument);
  EXPECT_THROW(Json::parse("1 2"), std::invalid_argument);  // trailing junk
  try {
    Json::parse("[1, oops]");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("byte"), std::string::npos);
  }
}

TEST(JsonParse, TypeMismatchesThrow) {
  const Json n = Json::parse("3");
  EXPECT_THROW(n.as_string(), std::logic_error);
  EXPECT_THROW(n.at("k"), std::logic_error);
  const Json obj = Json::parse("{}");
  EXPECT_THROW(obj.at("missing"), std::logic_error);
}

}  // namespace
}  // namespace sdem
