// The serve JSON layer: strict parsing of untrusted request bodies,
// compact single-line encoding, resource limits.
#include "synat/serve/json.h"

#include <gtest/gtest.h>

#include "synat/driver/json.h"
#include "synat/obs/events.h"
#include "synat/obs/export.h"

namespace synat::serve {
namespace {

JsonValue parse_ok(std::string_view text) {
  JsonParse p = parse_json(text);
  EXPECT_TRUE(p.ok) << text << " -> " << p.error;
  return std::move(p.value);
}

std::string parse_fail(std::string_view text, const JsonLimits& limits = {}) {
  JsonParse p = parse_json(text, limits);
  EXPECT_FALSE(p.ok) << text << " unexpectedly parsed";
  return p.error;
}

TEST(ServeJson, Scalars) {
  EXPECT_TRUE(parse_ok("null").is_null());
  EXPECT_TRUE(parse_ok("true").boolean);
  EXPECT_FALSE(parse_ok("false").boolean);
  EXPECT_EQ(parse_ok("42").number, 42);
  EXPECT_EQ(parse_ok("-3.5e2").number, -350);
  EXPECT_EQ(parse_ok("\"hi\"").str, "hi");
  EXPECT_EQ(parse_ok("  0  ").number, 0);
}

TEST(ServeJson, Containers) {
  JsonValue v = parse_ok("{\"a\":[1,2,{\"b\":null}],\"c\":\"d\"}");
  ASSERT_TRUE(v.is_object());
  const JsonValue* a = v.get("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->items.size(), 3u);
  EXPECT_TRUE(a->items[2].get("b")->is_null());
  EXPECT_EQ(v.get("c")->str, "d");
  EXPECT_EQ(v.get("missing"), nullptr);
  EXPECT_TRUE(parse_ok("[]").is_array());
  EXPECT_TRUE(parse_ok("{}").is_object());
}

TEST(ServeJson, StringEscapes) {
  EXPECT_EQ(parse_ok(R"("a\"b\\c\/d\b\f\n\r\t")").str,
            "a\"b\\c/d\b\f\n\r\t");
  EXPECT_EQ(parse_ok(R"("Aé")").str, "A\xc3\xa9");
  // Surrogate pair: U+1F600.
  EXPECT_EQ(parse_ok(R"("😀")").str, "\xf0\x9f\x98\x80");
}

TEST(ServeJson, Rejects) {
  parse_fail("");
  parse_fail("{");
  parse_fail("[1,]");
  parse_fail("{\"a\":}");
  parse_fail("{\"a\" 1}");
  parse_fail("nul");
  parse_fail("01");
  parse_fail("1.");
  parse_fail("1e");
  parse_fail("\"unterminated");
  parse_fail("\"raw\ncontrol\"");
  parse_fail(R"("\ud83d")");    // unpaired high surrogate
  parse_fail(R"("\ude00")");    // unpaired low surrogate
  parse_fail(R"("\ux000")");
  parse_fail("1 2");            // trailing garbage
  parse_fail("1e999");          // overflow to inf
  EXPECT_NE(parse_fail("{]").find("offset"), std::string::npos);
}

TEST(ServeJson, Limits) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  JsonLimits limits;
  limits.max_depth = 64;
  parse_fail(deep, limits);
  limits.max_depth = 128;
  EXPECT_TRUE(parse_json(deep, limits).ok);

  limits.max_bytes = 4;
  EXPECT_NE(parse_fail("\"hello\"", limits).find("byte limit"),
            std::string::npos);
}

TEST(ServeJson, EncodeCompactSingleLine) {
  JsonValue doc = JsonValue::make_object();
  doc.add("s", JsonValue::make_string(std::string("a\nb\t\"c\"") + '\x01'));
  doc.add("n", JsonValue::make_number(int64_t{-7}));
  JsonValue arr = JsonValue::make_array();
  arr.push(JsonValue::make_bool(true));
  arr.push(JsonValue::make_null());
  doc.add("a", std::move(arr));
  std::string enc = encode_json(doc);
  EXPECT_EQ(enc, R"({"s":"a\nb\t\"c\"\u0001","n":-7,"a":[true,null]})");
  EXPECT_EQ(enc.find('\n'), std::string::npos);
}

TEST(ServeJson, NumberRoundTrip) {
  // Integer ids round-trip through num_raw without double formatting.
  JsonValue v = parse_ok("{\"id\":9007199254740993}");
  EXPECT_EQ(encode_json(*v.get("id")), "9007199254740993");
  EXPECT_EQ(encode_json(JsonValue::make_number(uint64_t{18446744073709551615u})),
            "18446744073709551615");
  EXPECT_EQ(encode_json(parse_ok("1.5e300")), "1.5e300");
}

TEST(ServeJson, ParseEncodeFixpoint) {
  const char* docs[] = {
      R"({"jsonrpc":"2.0","id":1,"method":"analyze","params":{"program":"x"}})",
      R"([1,2.5,"three",{"four":[]},null,true])",
  };
  for (const char* d : docs) {
    std::string once = encode_json(parse_ok(d));
    EXPECT_EQ(once, d);
    EXPECT_EQ(encode_json(parse_ok(once)), once);
  }
}

// Every JSON output goes through obs::append_json_escaped; whatever bytes a
// string holds, each writer's document must parse back to them.
TEST(JsonEscape, EveryWriterRoundTripsThroughTheParser) {
  std::string hostile;
  for (int c = 0; c < 0x20; ++c) hostile += static_cast<char>(c);
  hostile += "\"\\\x7f" "A\xc3\xa9\xf0\x9f\x98\x80";

  driver::JsonWriter w;
  w.begin_object();
  w.key(hostile).value(hostile);
  w.end_object();
  JsonValue report = parse_ok(w.str());
  ASSERT_EQ(report.members.size(), 1u);
  EXPECT_EQ(report.members[0].first, hostile) << "JsonWriter key";
  EXPECT_EQ(report.members[0].second.str, hostile) << "JsonWriter value";

  JsonValue rpc = JsonValue::make_object();
  rpc.add(hostile, JsonValue::make_string(hostile));
  JsonValue reply = parse_ok(encode_json(rpc));
  ASSERT_EQ(reply.members.size(), 1u);
  EXPECT_EQ(reply.members[0].first, hostile) << "encode_json key";
  EXPECT_EQ(reply.members[0].second.str, hostile) << "encode_json value";

  obs::Event ev;
  ev.name = hostile;
  ev.error_kind = hostile;
  JsonValue line = parse_ok(obs::render_event(ev));
  EXPECT_EQ(line.get("name")->str, hostile) << "event field";
  EXPECT_EQ(line.get("error_kind")->str, hostile) << "event field";

  JsonValue trace = parse_ok(obs::to_chrome_trace({}, {{0, hostile}}));
  const JsonValue* events = trace.get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_FALSE(events->items.empty());
  EXPECT_EQ(events->items[0].get("args")->get("name")->str, hostile)
      << "chrome-trace lane name";
}

}  // namespace
}  // namespace synat::serve
