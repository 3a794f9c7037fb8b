#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/rng.h"
#include "wire/tunnel.h"

// Counts every operator new in this test binary, so the allocation tests
// below can pin what a control-plane payload costs.
namespace {
std::size_t g_allocations = 0;
}  // namespace

// GCC flags free() on memory from operator new even when both are replaced.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace rnl::util {
namespace {

TEST(Json, ParsePrimitives) {
  EXPECT_TRUE(Json::parse("null")->is_null());
  EXPECT_TRUE(Json::parse("true")->as_bool());
  EXPECT_FALSE(Json::parse("false")->as_bool(true));
  EXPECT_DOUBLE_EQ(Json::parse("3.5")->as_number(), 3.5);
  EXPECT_EQ(Json::parse("-42")->as_int(), -42);
  EXPECT_EQ(Json::parse("\"hi\"")->as_string(), "hi");
}

TEST(Json, ParseNested) {
  auto parsed = Json::parse(R"({"a": [1, 2, {"b": "c"}], "d": null})");
  ASSERT_TRUE(parsed.ok());
  const Json& json = *parsed;
  EXPECT_EQ(json["a"].size(), 3u);
  EXPECT_EQ(json["a"].at(2)["b"].as_string(), "c");
  EXPECT_TRUE(json["d"].is_null());
  EXPECT_TRUE(json["missing"].is_null());
}

TEST(Json, StringEscapes) {
  auto parsed = Json::parse(R"("a\n\t\"\\A")");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->as_string(), "a\n\t\"\\A");
}

TEST(Json, UnicodeEscapeUtf8) {
  auto parsed = Json::parse(R"("é€")");  // é €
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->as_string(), "\xC3\xA9\xE2\x82\xAC");
}

TEST(Json, RejectsMalformed) {
  EXPECT_FALSE(Json::parse("").ok());
  EXPECT_FALSE(Json::parse("{").ok());
  EXPECT_FALSE(Json::parse("[1,]").ok());
  EXPECT_FALSE(Json::parse("{\"a\" 1}").ok());
  EXPECT_FALSE(Json::parse("tru").ok());
  EXPECT_FALSE(Json::parse("1 2").ok());
  EXPECT_FALSE(Json::parse("\"\\ud800\"").ok());  // surrogate: unsupported
}

TEST(Json, RejectsDeepNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(Json::parse(deep).ok());
}

TEST(Json, DumpCompactAndPretty) {
  Json obj = Json::object();
  obj.set("b", 2);
  obj.set("a", Json(JsonArray{1, 2}));
  EXPECT_EQ(obj.dump(), R"({"a":[1,2],"b":2})");
  EXPECT_NE(obj.dump_pretty().find("\n  \"a\""), std::string::npos);
}

TEST(Json, IntegersSerializeWithoutDecimalPoint) {
  EXPECT_EQ(Json(7).dump(), "7");
  EXPECT_EQ(Json(-3).dump(), "-3");
  EXPECT_EQ(Json(2.5).dump(), "2.5");
}

TEST(Json, CopyOnWriteIsolation) {
  Json a = Json::object();
  a.set("x", 1);
  Json b = a;  // shares storage
  b.set("x", 2);
  EXPECT_EQ(a["x"].as_int(), 1);
  EXPECT_EQ(b["x"].as_int(), 2);

  Json arr = Json::array();
  arr.push_back(1);
  Json arr2 = arr;
  arr2.push_back(2);
  EXPECT_EQ(arr.size(), 1u);
  EXPECT_EQ(arr2.size(), 2u);
}

TEST(Json, SetConvertsNullToObject) {
  Json j;
  j.set("k", "v");
  EXPECT_TRUE(j.is_object());
  EXPECT_EQ(j["k"].as_string(), "v");
}

TEST(Json, Equality) {
  auto a = Json::parse(R"({"x":[1,2],"y":"z"})");
  auto b = Json::parse(R"({ "y" : "z", "x" : [ 1, 2 ] })");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

// Property: any value built from the generator survives dump -> parse.
Json random_json(Rng& rng, int depth) {
  switch (depth <= 0 ? rng.below(4) : rng.below(6)) {
    case 0:
      return Json(nullptr);
    case 1:
      return Json(rng.chance(0.5));
    case 2:
      return Json(static_cast<std::int64_t>(rng.range(-1'000'000, 1'000'000)));
    case 3: {
      std::string s;
      std::size_t len = rng.below(12);
      for (std::size_t i = 0; i < len; ++i) {
        s.push_back(static_cast<char>(rng.range(32, 126)));
      }
      return Json(s);
    }
    case 4: {
      Json arr = Json::array();
      std::size_t n = rng.below(4);
      for (std::size_t i = 0; i < n; ++i) {
        arr.push_back(random_json(rng, depth - 1));
      }
      return arr;
    }
    default: {
      Json obj = Json::object();
      std::size_t n = rng.below(4);
      for (std::size_t i = 0; i < n; ++i) {
        obj.set("k" + std::to_string(i), random_json(rng, depth - 1));
      }
      return obj;
    }
  }
}

class JsonRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JsonRoundTrip, DumpParseIdentity) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    Json original = random_json(rng, 4);
    auto reparsed = Json::parse(original.dump());
    ASSERT_TRUE(reparsed.ok()) << original.dump();
    EXPECT_EQ(original, *reparsed) << original.dump();
    auto repretty = Json::parse(original.dump_pretty());
    ASSERT_TRUE(repretty.ok());
    EXPECT_EQ(original, *repretty);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- Adversarial-input edges (PR 4) ---------------------------------------

TEST(JsonAdversarial, NestingDepthLimitEnforced) {
  // At the limit: accepted. kMaxDepth is 128, the outermost value is depth
  // 0, and rejection triggers at depth > 128 — so 129 brackets still parse.
  std::string at_limit(129, '[');
  at_limit.append(129, ']');
  EXPECT_TRUE(Json::parse(at_limit).ok());

  // One past the limit: rejected, not a stack overflow.
  std::string over_limit(130, '[');
  over_limit.append(130, ']');
  auto rejected = Json::parse(over_limit);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.error().find("nesting"), std::string::npos);

  // Unclosed deep nesting (the classic fuzzer find) must also bail out.
  EXPECT_FALSE(Json::parse(std::string(100000, '[')).ok());
  std::string deep_obj;
  for (int i = 0; i < 200; ++i) deep_obj += "{\"a\":";
  deep_obj += "1";
  deep_obj.append(200, '}');
  EXPECT_FALSE(Json::parse(deep_obj).ok());
}

TEST(JsonAdversarial, NumericOverflowRejected) {
  // strtod maps 1e999 to +inf; accepting it would make dump() emit a
  // non-JSON token ("inf"). The parser must reject non-finite results.
  EXPECT_FALSE(Json::parse("1e999").ok());
  EXPECT_FALSE(Json::parse("-1e999").ok());
  // The largest finite double is still fine.
  auto max_finite = Json::parse("1.7976931348623157e308");
  ASSERT_TRUE(max_finite.ok());
  EXPECT_TRUE(Json::parse(max_finite->dump()).ok());
}

TEST(JsonAdversarial, AsIntClampsOutOfRangeDoubles) {
  // llround on a double outside int64's range is UB; as_int must clamp.
  Json huge(1e300);
  EXPECT_EQ(huge.as_int(), std::numeric_limits<std::int64_t>::max());
  Json negative_huge(-1e300);
  EXPECT_EQ(negative_huge.as_int(), std::numeric_limits<std::int64_t>::min());
  // 2^63 is exactly representable as a double but not as int64.
  Json edge(9223372036854775808.0);
  EXPECT_EQ(edge.as_int(), std::numeric_limits<std::int64_t>::max());
  Json in_range(-42.4);
  EXPECT_EQ(in_range.as_int(), -42);
}

TEST(JsonAdversarial, NonFiniteValuesSerializeAsNull) {
  // A non-finite number can still be constructed programmatically; the
  // serializer must not emit an invalid token for it.
  Json inf(std::numeric_limits<double>::infinity());
  EXPECT_EQ(inf.dump(), "null");
  Json nan(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(nan.dump(), "null");
}

TEST(JsonAdversarial, TruncatedEscapesRejected) {
  EXPECT_FALSE(Json::parse("\"abc\\").ok());        // backslash at EOF
  EXPECT_FALSE(Json::parse("\"\\u00").ok());        // \u with 2 of 4 digits
  EXPECT_FALSE(Json::parse("\"\\u00zz\"").ok());    // non-hex digits
  EXPECT_FALSE(Json::parse("\"abc").ok());          // unterminated string
  EXPECT_FALSE(Json::parse("\"\\q\"").ok());        // unknown escape
}

TEST(JsonAdversarial, SurrogateEscapesRejected) {
  // The parser handles BMP escapes only; surrogate code units — lone or
  // paired — are rejected rather than emitted as invalid UTF-8 (CESU-8).
  EXPECT_FALSE(Json::parse("\"\\ud800\"").ok());
  EXPECT_FALSE(Json::parse("\"\\udfff\"").ok());
  EXPECT_FALSE(Json::parse("\"\\ud83d\\ude00\"").ok());
  // The BMP boundary neighbours still work.
  EXPECT_TRUE(Json::parse("\"\\ud7ff\"").ok());
  EXPECT_TRUE(Json::parse("\"\\ue000\"").ok());
}

TEST(JsonAdversarial, DuplicateKeysLastWins) {
  auto parsed = Json::parse(R"({"k":1,"k":2,"k":3})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->size(), 1u);
  EXPECT_EQ((*parsed)["k"].as_int(), 3);
}

// --- Parser quirks that stay as they are ------------------------------------
// Numbers go through strtod, which accepts more spellings than RFC 8259;
// tightening that is a grammar change, not a speed-up, and these pin it.

TEST(JsonQuirks, LenientNumberFormsAreRejected) {
  // strtod reads each of these; RFC 8259's number grammar does not.
  const char* const forms[] = {"+1", ".5",  "1.", "01",  "-.5",
                               "1.e3", "00", "-01", "1e", "1e+", "1.5e"};
  for (const char* text : forms) {
    auto parsed = Json::parse(text);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_NE(parsed.error().find("invalid number"), std::string::npos)
        << text << ": " << parsed.error();
  }
  auto in_array = Json::parse("[1,+1]");
  ASSERT_FALSE(in_array.ok());
  EXPECT_EQ(in_array.error(),
            "json parse error at offset 5: invalid number '+1'");
  // Every form the grammar allows still parses.
  const std::pair<const char*, double> valid[] = {
      {"0", 0.0},      {"-0", 0.0},   {"10", 10.0},    {"0.5", 0.5},
      {"-0.25", -0.25}, {"1E2", 100.0}, {"1e+2", 100.0}, {"25e-1", 2.5},
  };
  for (const auto& [text, value] : valid) {
    auto parsed = Json::parse(text);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.error();
    EXPECT_EQ(parsed->as_number(), value) << text;
  }
}

TEST(JsonQuirks, SignsWithoutDigitsAreInvalidNumbers) {
  auto minus = Json::parse("-");
  ASSERT_FALSE(minus.ok());
  EXPECT_EQ(minus.error(), "json parse error at offset 1: invalid number '-'");
  auto double_minus = Json::parse("--1");
  ASSERT_FALSE(double_minus.ok());
  EXPECT_EQ(double_minus.error(),
            "json parse error at offset 3: invalid number '--1'");
}

TEST(JsonQuirks, DuplicateKeyKeepsTheLastValue) {
  auto parsed = Json::parse(R"({"a":1,"a":2})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->dump(), R"({"a":2})");
}

TEST(JsonQuirks, NumbersPrintAsToday) {
  const std::pair<const char*, const char*> cases[] = {
      {"0.1", "0.10000000000000001"},
      {"1e16", "10000000000000000"},
      {"123456789012345678", "1.2345678901234568e+17"},
      {"9007199254740993", "9007199254740992"},
      {"-0", "0"},
      {"999999999999999", "999999999999999"},
  };
  for (const auto& [text, printed] : cases) {
    auto parsed = Json::parse(text);
    ASSERT_TRUE(parsed.ok()) << text;
    EXPECT_EQ(parsed->dump(), printed) << text;
  }
}

TEST(JsonQuirks, OverflowIsOutOfRange) {
  auto parsed = Json::parse("1e999");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error(),
            "json parse error at offset 5: number out of range '1e999'");
}

// --- Golden corpus ----------------------------------------------------------
// Every input in tests/corpus/json/ has a record in tests/golden/json/: the
// exact error text of a rejection, or the exact dump() and dump_pretty()
// bytes of an acceptance. The records pin the parser and printer as they
// were when written. A missing record is written and the test fails, so
// deleting a record and running this test at the chosen commit rewrites it.

std::string golden_record(std::string_view text) {
  auto parsed = Json::parse(text);
  if (!parsed.ok()) return "reject " + parsed.error() + "\n";
  const std::string compact = parsed->dump();
  const std::string pretty = parsed->dump_pretty();
  return "dump " + std::to_string(compact.size()) + "\n" + compact +
         "\npretty " + std::to_string(pretty.size()) + "\n" + pretty + "\n";
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

TEST(JsonGolden, CorpusMatchesCheckedInRecords) {
  const std::filesystem::path source(RNL_SOURCE_DIR);
  const auto corpus = source / "tests" / "corpus" / "json";
  const auto golden = source / "tests" / "golden" / "json";
  std::vector<std::filesystem::path> inputs;
  for (const auto& entry : std::filesystem::directory_iterator(corpus)) {
    if (entry.is_regular_file()) inputs.push_back(entry.path());
  }
  std::sort(inputs.begin(), inputs.end());
  ASSERT_GE(inputs.size(), 26u);
  for (const auto& input : inputs) {
    const std::string record = golden_record(read_file(input));
    const auto record_path = golden / (input.filename().string() + ".golden");
    if (!std::filesystem::exists(record_path)) {
      std::filesystem::create_directories(golden);
      std::ofstream(record_path, std::ios::binary) << record;
      ADD_FAILURE() << "wrote missing golden record " << record_path;
      continue;
    }
    EXPECT_EQ(record, read_file(record_path)) << input.filename();
  }
}

// --- Allocations ------------------------------------------------------------
// Heap allocations per control-plane payload, pinned so a later change
// cannot quietly give them back. Each is measured after one warm-up call:
// the parser reuses its scratch stack from one document to the next.

template <typename Op>
std::size_t allocations_of(Op&& op) {
  op();
  const std::size_t before = g_allocations;
  op();
  return g_allocations - before;
}

std::string corpus_text(const char* name) {
  return read_file(std::filesystem::path(RNL_SOURCE_DIR) / "tests" /
                   "corpus" / "json" / name);
}

TEST(JsonAllocations, FleetJoinParseAndDecode) {
  const std::string text = corpus_text("fleet_join.json");
  std::size_t ports = 0;
  const std::size_t allocations = allocations_of([&] {
    auto parsed = Json::parse(text);
    auto join = wire::JoinRequest::from_json(*parsed);
    ports = join->routers.at(0).ports.size();
  });
  EXPECT_EQ(ports, 2u);
  // 39 before the single-pass parser: one per array growth step, one per
  // string longer than the small-string buffer pushed a byte at a time.
  EXPECT_EQ(allocations, 33u);
}

TEST(JsonAllocations, JoinAckParseAndDecode) {
  const std::string text = corpus_text("join_ack.json");
  std::uint32_t epoch = 0;
  const std::size_t allocations = allocations_of([&] {
    auto parsed = Json::parse(text);
    epoch = wire::JoinAck::from_json(*parsed)->epoch;
  });
  EXPECT_EQ(epoch, 3u);
  EXPECT_EQ(allocations, 12u);  // 14 before
}

TEST(JsonAllocations, JoinAckEncode) {
  wire::JoinAck ack;
  ack.epoch = 3;
  ack.routers.push_back({514, {1027, 1028}});
  std::string text;
  const std::size_t allocations =
      allocations_of([&] { text = ack.to_json().dump(); });
  EXPECT_EQ(text, corpus_text("join_ack.json"));
  EXPECT_EQ(allocations, 11u);  // 14 before
}

// --- Scale ------------------------------------------------------------------

TEST(JsonScale, ShuffledSetsBuildASortedObject) {
  // A soak snapshot holds one member per site; members arrive in any order.
  constexpr int kMembers = 20'000;
  std::vector<int> order(kMembers);
  for (int i = 0; i < kMembers; ++i) order[i] = i;
  Rng rng(2024);
  for (int i = kMembers - 1; i > 0; --i) {
    std::swap(order[i], order[rng.below(static_cast<std::uint64_t>(i) + 1)]);
  }
  auto key = [](int i) { return "site-" + std::to_string(i); };
  Json object = Json::object();
  for (int i : order) object.set(key(i), i);
  ASSERT_EQ(object.size(), static_cast<std::size_t>(kMembers));
  for (int i = 0; i < kMembers; ++i) {
    ASSERT_TRUE(object.contains(key(i))) << i;
    ASSERT_EQ(object[key(i)].as_int(), i);
  }
  EXPECT_FALSE(object.contains("site-"));

  std::vector<std::string> keys;
  for (int i = 0; i < kMembers; ++i) keys.push_back(key(i));
  std::sort(keys.begin(), keys.end());
  std::string expected = "{";
  for (const std::string& k : keys) {
    if (expected.size() > 1) expected += ',';
    expected += '"' + k + "\":" + k.substr(5);
  }
  expected += '}';
  EXPECT_EQ(object.dump(), expected);
}

}  // namespace
}  // namespace rnl::util
