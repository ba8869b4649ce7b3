#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>

#include "test_helpers.hpp"
#include "util/check.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/sha256.hpp"
#include "util/stats.hpp"

namespace orev {
namespace {

// ------------------------------------------------------------------ check

TEST(Check, PassingConditionDoesNotThrow) {
  EXPECT_NO_THROW(OREV_CHECK(1 + 1 == 2, "math"));
}

TEST(Check, FailingConditionThrowsCheckError) {
  EXPECT_THROW(OREV_CHECK(false, "boom"), CheckError);
}

TEST(Check, MessageContainsExpressionAndContext) {
  try {
    OREV_CHECK(2 > 3, "custom context");
    FAIL() << "expected throw";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 > 3"), std::string::npos);
    EXPECT_NE(what.find("custom context"), std::string::npos);
  }
}

// ----------------------------------------------------------------- sha256

// NIST FIPS 180-4 test vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(Sha256::hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(Sha256::hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(Sha256::hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnop"
                        "nopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(Sha256::to_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Sha256 h;
  h.update("hello ");
  h.update("world");
  EXPECT_EQ(Sha256::to_hex(h.finish()), Sha256::hex("hello world"));
}

TEST(Sha256, ExactBlockBoundary) {
  const std::string block(64, 'x');
  Sha256 h;
  h.update(block);
  // Should equal the one-shot digest of the same content.
  EXPECT_EQ(Sha256::to_hex(h.finish()), Sha256::hex(block));
}

TEST(Sha256, DifferentInputsDiffer) {
  EXPECT_NE(Sha256::hex("a"), Sha256::hex("b"));
}

TEST(Sha256, UpdateAfterFinishThrows) {
  Sha256 h;
  h.update("data");
  h.finish();
  EXPECT_THROW(h.update("more"), CheckError);
}

TEST(Sha256, ResetAllowsReuse) {
  Sha256 h;
  h.update("first");
  h.finish();
  h.reset();
  h.update("abc");
  EXPECT_EQ(Sha256::to_hex(h.finish()), Sha256::hex("abc"));
}

// -------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i)
    if (a.uniform() != b.uniform()) any_diff = true;
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformWithinBounds) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const float v = r.uniform(-2.0f, 5.0f);
    EXPECT_GE(v, -2.0f);
    EXPECT_LT(v, 5.0f);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng r(4);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const int v = r.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalHasApproxMoments) {
  Rng r(5);
  double sum = 0.0, sq = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double v = r.normal(2.0f, 3.0f);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / kN;
  const double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.5);
}

TEST(Rng, InvertedBoundsThrow) {
  Rng r(6);
  EXPECT_THROW(r.uniform(1.0f, 0.0f), CheckError);
  EXPECT_THROW(r.uniform_int(5, 2), CheckError);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(7);
  Rng child = a.fork();
  // Child stream should not replay the parent's next values.
  Rng b(7);
  b.fork();
  EXPECT_EQ(a.uniform(), b.uniform());  // parents stay in sync
  (void)child;
}

TEST(Rng, ShuffleKeepsElements) {
  Rng r(8);
  std::vector<int> v = {1, 2, 3, 4, 5};
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, (std::vector<int>{1, 2, 3, 4, 5}));
}

// ------------------------------------------------------------------ stats

TEST(Stats, SummaryOfKnownSample) {
  const Summary s = summarize({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
}

TEST(Stats, SummaryEmptyIsZero) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Stats, MedianEvenCount) {
  EXPECT_DOUBLE_EQ(summarize({1.0, 2.0, 3.0, 4.0}).median, 2.5);
}

TEST(Stats, PercentileEndpointsAndMiddle) {
  std::vector<double> xs = {10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 25.0);
}

TEST(Stats, PercentileValidation) {
  EXPECT_THROW(percentile({}, 50.0), CheckError);
  EXPECT_THROW(percentile({1.0}, 101.0), CheckError);
}

TEST(Stats, CdfMonotoneAndBounded) {
  EmpiricalCdf cdf({3.0, 1.0, 2.0, 2.0});
  EXPECT_DOUBLE_EQ(cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf(2.0), 0.75);
  EXPECT_DOUBLE_EQ(cdf(3.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf(99.0), 1.0);
}

TEST(Stats, CdfTableSpansRange) {
  EmpiricalCdf cdf({0.0, 10.0});
  const auto table = cdf.table(11);
  ASSERT_EQ(table.size(), 11u);
  EXPECT_DOUBLE_EQ(table.front().first, 0.0);
  EXPECT_DOUBLE_EQ(table.back().first, 10.0);
  EXPECT_DOUBLE_EQ(table.back().second, 1.0);
}

TEST(Stats, CdfEmptyThrows) {
  EXPECT_THROW(EmpiricalCdf({}), CheckError);
}

// -------------------------------------------------------------------- csv

TEST(Csv, PlainRows) {
  CsvWriter w;
  w.header({"a", "b"});
  w.row(1, 2.5);
  EXPECT_EQ(w.str(), "a,b\n1,2.5\n");
}

TEST(Csv, QuotesSpecialCharacters) {
  CsvWriter w;
  w.row(std::string("hello, world"), std::string("quote\"inside"));
  EXPECT_EQ(w.str(), "\"hello, world\",\"quote\"\"inside\"\n");
}

TEST(Csv, MixedTypes) {
  CsvWriter w;
  w.row("name", 42, 3.14);
  EXPECT_EQ(w.str(), "name,42,3.14\n");
}

// ------------------------------------------------------------------- json

TEST(JsonWriter, EscapesQuoteBackslashAndControlCharacters) {
  json::Writer w;
  w.begin_object().field("k\"ey", "a\"b\\c\nd\te\r\x01\x1f/").end_object();
  EXPECT_EQ(w.str(),
            "{\n  \"k\\\"ey\": \"a\\\"b\\\\c\\nd\\te\\r\\u0001\\u001f/\"\n}\n");
  EXPECT_TRUE(test::JsonValidator(w.str()).valid()) << w.str();
}

TEST(JsonWriter, NonFiniteDoublesAreNull) {
  json::Writer w;
  w.begin_array()
      .value(std::nan(""))
      .value(std::numeric_limits<double>::infinity())
      .value(-std::numeric_limits<double>::infinity())
      .value(0.1)
      .end_array();
  EXPECT_EQ(w.str(), "[\n  null,\n  null,\n  null,\n  0.1\n]\n");
}

TEST(JsonWriter, DoublesRoundTripInShortestForm) {
  for (const double v : {0.1, 1.0 / 3.0, 2.5e-310, 1e21, -123456.789}) {
    json::Writer w;
    w.begin_array().value(v).end_array();
    const std::string doc = w.str();
    EXPECT_EQ(std::strtod(doc.c_str() + 4, nullptr), v) << doc;
  }
  json::Writer w;
  w.begin_array().value(0.1).value(3.0).value(-0.0).end_array();
  EXPECT_EQ(w.str(), "[\n  0.1,\n  3,\n  -0\n]\n");
}

TEST(JsonWriter, NestingAndCommaPlacement) {
  json::Writer w;
  w.begin_object().field("a", 1);
  w.key("b").begin_object().key("c").begin_array().value(1).value(2);
  w.end_array().key("d").begin_object().key("e").begin_array().end_array();
  w.key("f").begin_object().end_object().end_object().end_object();
  w.key("g").begin_array().end_array();
  w.key("h").begin_array().begin_object().field("x", true).end_object();
  w.end_array().field("i", false).end_object();
  EXPECT_EQ(w.str(),
            "{\n"
            "  \"a\": 1,\n"
            "  \"b\": {\n"
            "    \"c\": [1, 2],\n"
            "    \"d\": {\"e\": [], \"f\": {}}\n"
            "  },\n"
            "  \"g\": [],\n"
            "  \"h\": [\n"
            "    {\"x\": true}\n"
            "  ],\n"
            "  \"i\": false\n"
            "}\n");
  EXPECT_TRUE(test::JsonValidator(w.str()).valid());
}

TEST(JsonWriter, IntegersAreExact) {
  json::Writer w;
  w.begin_object()
      .field("max", std::numeric_limits<std::uint64_t>::max())
      .field("min", std::numeric_limits<std::int64_t>::min())
      .end_object();
  EXPECT_EQ(w.str(),
            "{\n  \"max\": 18446744073709551615,\n"
            "  \"min\": -9223372036854775808\n}\n");
}

TEST(JsonWriter, RawSplicesADocumentInline) {
  json::Writer inner;
  inner.begin_object().field("seed", 7).key("sites").begin_object();
  inner.key("a").begin_object().field("ops", 1).end_object();
  inner.key("b").begin_object().end_object().end_object().end_object();
  json::Writer w;
  w.begin_object().key("run").begin_object().key("faults").raw(inner.str());
  w.end_object().end_object();
  EXPECT_EQ(w.str(),
            "{\n  \"run\": {\n    \"faults\": {\"seed\": 7, \"sites\": "
            "{\"a\": {\"ops\": 1}, \"b\": {}}}\n  }\n}\n");
}

TEST(JsonWriter, MisuseThrows) {
  json::Writer unclosed;
  unclosed.begin_object();
  EXPECT_THROW(unclosed.str(), CheckError);
  json::Writer keyless;
  keyless.begin_object();
  EXPECT_THROW(keyless.value(1), CheckError);
  json::Writer key_in_array;
  key_in_array.begin_array();
  EXPECT_THROW(key_in_array.key("k"), CheckError);
  json::Writer mismatched;
  mismatched.begin_array();
  EXPECT_THROW(mismatched.end_object(), CheckError);
}

}  // namespace
}  // namespace orev
