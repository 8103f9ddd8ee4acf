// util/json: the one string escaper and the minimal reader every JSON
// consumer in the repository (oodb top, the trace/series checks) uses.

#include <gtest/gtest.h>

#include <string>

#include "util/json.h"

namespace oodb {
namespace {

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("l1\nl2\tx"), "l1\\nl2\\tx");
  EXPECT_EQ(JsonEscape(std::string("\x01\r", 2)), "\\u0001\\u000d");
  EXPECT_EQ(JsonEscape("caf\xc3\xa9"), "caf\xc3\xa9");  // UTF-8 passes
}

TEST(JsonReaderTest, ParsesTheSamplerShapes) {
  JsonValue v;
  ASSERT_TRUE(ParseJson(
      R"( {"type":"sample","tick":3,"neg":-1,"f":0.25,"ok":true,)"
      R"("none":null,"arr":[[1,2],[3,4]],"obj":{"b":1,"a":2}} )",
      &v));
  ASSERT_EQ(v.type, JsonValue::Type::kObject);
  EXPECT_EQ(v.Find("type")->str, "sample");
  EXPECT_EQ(v.Find("tick")->u, 3u);
  EXPECT_EQ(v.Find("neg")->i, -1);
  EXPECT_EQ(v.Find("f")->type, JsonValue::Type::kNumber);
  EXPECT_TRUE(v.Find("ok")->b);
  EXPECT_EQ(v.Find("none")->type, JsonValue::Type::kNull);
  ASSERT_EQ(v.Find("arr")->arr.size(), 2u);
  EXPECT_EQ(v.Find("arr")->arr[1].arr[0].u, 3u);
  // Members keep file order.
  EXPECT_EQ(v.Find("obj")->obj[0].first, "b");
  EXPECT_EQ(v.Find("missing"), nullptr);
}

TEST(JsonReaderTest, UnescapesWhatTheEscaperWrites) {
  const std::string raw = std::string("q\"b\\n\nt\t\x01 end");
  JsonValue v;
  ASSERT_TRUE(ParseJson("\"" + JsonEscape(raw) + "\"", &v));
  EXPECT_EQ(v.str, raw);
  ASSERT_TRUE(ParseJson(R"("\u00e9\/\r")", &v));
  EXPECT_EQ(v.str, "\xc3\xa9/\r");
}

TEST(JsonReaderTest, RejectsMalformedDocuments) {
  JsonValue v;
  for (const char* bad :
       {"", "{", "{\"a\":}", "{\"a\" 1}", "[1,]", "\"open", "tru", "{} x",
        "{\"a\":1,}", "\"\\u12\"", "\"s11:\"smoke\"\""}) {
    EXPECT_FALSE(ParseJson(bad, &v)) << bad;
  }
}

}  // namespace
}  // namespace oodb
