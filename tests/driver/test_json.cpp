#include "synat/driver/json.h"

#include <gtest/gtest.h>

#include <string>

#include "synat/obs/export.h"

namespace synat::driver {
namespace {

/// `s` as obs::append_json_escaped renders it, quotes included.
std::string escaped(std::string_view s) {
  std::string out;
  obs::append_json_escaped(out, s);
  return out;
}

TEST(JsonEscape, PassesPlainText) {
  EXPECT_EQ(escaped("hello world"), "\"hello world\"");
}

TEST(JsonEscape, EscapesSpecials) {
  EXPECT_EQ(escaped("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(escaped("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(escaped("a\nb\tc"), "\"a\\nb\\tc\"");
  EXPECT_EQ(escaped(std::string_view("\x01", 1)), "\"\\u0001\"");
}

TEST(JsonEscape, EveryControlByteHasOneSpelling) {
  // Indexed by byte: the short forms where RFC 8259 has one, lower-case
  // \u00XX otherwise.
  static const char* const kControl[0x20] = {
      "\\u0000", "\\u0001", "\\u0002", "\\u0003", "\\u0004", "\\u0005",
      "\\u0006", "\\u0007", "\\b",     "\\t",     "\\n",     "\\u000b",
      "\\f",     "\\r",     "\\u000e", "\\u000f", "\\u0010", "\\u0011",
      "\\u0012", "\\u0013", "\\u0014", "\\u0015", "\\u0016", "\\u0017",
      "\\u0018", "\\u0019", "\\u001a", "\\u001b", "\\u001c", "\\u001d",
      "\\u001e", "\\u001f"};
  for (int c = 0; c < 0x20; ++c)
    EXPECT_EQ(escaped(std::string(1, static_cast<char>(c))),
              std::string("\"") + kControl[c] + "\"")
        << "byte " << c;
  EXPECT_EQ(escaped("\""), "\"\\\"\"");
  EXPECT_EQ(escaped("\\"), "\"\\\\\"");
  // DEL and UTF-8 are legal inside a JSON string and pass through as bytes.
  EXPECT_EQ(escaped("\x7f"), "\"\x7f\"");
  EXPECT_EQ(escaped("A\xc3\xa9\xf0\x9f\x98\x80"),
            "\"A\xc3\xa9\xf0\x9f\x98\x80\"");
}

TEST(JsonWriter, EmptyObject) {
  JsonWriter w;
  w.begin_object().end_object();
  EXPECT_EQ(std::move(w).str(), "{}");
}

TEST(JsonWriter, NestedStructure) {
  JsonWriter w;
  w.begin_object();
  w.key("name").value("x");
  w.key("n").value(3);
  w.key("ok").value(true);
  w.key("items").begin_array();
  w.value(uint64_t{1});
  w.begin_object();
  w.key("inner").value("y");
  w.end_object();
  w.end_array();
  w.end_object();
  EXPECT_EQ(std::move(w).str(),
            "{\n"
            "  \"name\": \"x\",\n"
            "  \"n\": 3,\n"
            "  \"ok\": true,\n"
            "  \"items\": [\n"
            "    1,\n"
            "    {\n"
            "      \"inner\": \"y\"\n"
            "    }\n"
            "  ]\n"
            "}");
}

TEST(JsonWriter, EmptyArrayStaysOnOneLine) {
  JsonWriter w;
  w.begin_object();
  w.key("xs").begin_array().end_array();
  w.end_object();
  EXPECT_EQ(std::move(w).str(), "{\n  \"xs\": []\n}");
}

TEST(JsonWriter, RawReindentsFragment) {
  JsonWriter inner;
  inner.begin_object();
  inner.key("a").value(1);
  inner.end_object();
  JsonWriter w;
  w.begin_object();
  w.key("frag").raw(inner.str());
  w.end_object();
  EXPECT_EQ(std::move(w).str(),
            "{\n  \"frag\": {\n    \"a\": 1\n  }\n}");
}

}  // namespace
}  // namespace synat::driver
