/**
 * @file
 * Tests for `JsonReader`, the pull reader the artifact deserializers
 * drive: reading records in writer order (exact doubles, escapes,
 * nested arrays), the integer rules, strict shape checking (wrong or
 * extra members, missing separators, values without keys), offset-
 * carrying errors, `nextKey`/`skipValue`, and the nesting bound.
 */

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/logging.h"

namespace souffle {
namespace {

TEST(JsonReader, ReadsRecordsInWriterOrder)
{
    JsonWriter w(JsonWriter::Style::kCompact);
    w.setDoublePrecision(17);
    w.beginObject();
    w.field("name", "a \"quoted\"\n\\name");
    w.field("count", int64_t{-42});
    w.field("ratio", 1.0 / 3.0);
    w.field("flag", true);
    w.key("rows").beginArray();
    for (int r = 0; r < 3; ++r) {
        w.beginArray();
        for (int c = 0; c <= r; ++c)
            w.value(r * 10 + c);
        w.endArray();
    }
    w.endArray();
    w.newline().endObject();

    JsonReader r(w.str());
    r.beginObject();
    r.key("name");
    EXPECT_EQ(r.readString(), "a \"quoted\"\n\\name");
    r.key("count");
    EXPECT_EQ(r.readInt(), -42);
    r.key("ratio");
    EXPECT_EQ(r.readDouble(), 1.0 / 3.0); // bit-exact at 17 digits
    r.key("flag");
    EXPECT_TRUE(r.readBool());
    r.key("rows");
    std::vector<std::vector<int64_t>> rows;
    r.beginArray();
    while (r.hasNext()) {
        rows.emplace_back();
        r.beginArray();
        while (r.hasNext())
            rows.back().push_back(r.readInt());
        r.endArray();
    }
    r.endArray();
    r.endObject();
    r.finish();
    EXPECT_EQ(rows, (std::vector<std::vector<int64_t>>{
                        {0}, {10, 11}, {20, 21, 22}}));
}

TEST(JsonReader, IntegerRules)
{
    const auto readInt = [](const std::string &text) {
        JsonReader r(text);
        const int64_t value = r.readInt();
        r.finish();
        return value;
    };
    EXPECT_EQ(readInt("0"), 0);
    EXPECT_EQ(readInt(" -7 "), -7);
    EXPECT_EQ(readInt("9223372036854775807"),
              std::numeric_limits<int64_t>::max());
    EXPECT_EQ(readInt("-9223372036854775808"),
              std::numeric_limits<int64_t>::min());
    // Integral values spelled with a fraction or exponent are fine.
    EXPECT_EQ(readInt("1e3"), 1000);
    EXPECT_EQ(readInt("2.0"), 2);
    EXPECT_THROW(readInt("1.5"), FatalError);
    EXPECT_THROW(readInt("9223372036854775808"), FatalError);
    EXPECT_THROW(readInt("1e999"), FatalError);
    EXPECT_THROW(readInt("01"), FatalError);
    EXPECT_THROW(readInt("-"), FatalError);
    EXPECT_THROW(readInt("\"1\""), FatalError);
}

TEST(JsonReader, RejectsShapeMismatches)
{
    const auto readPair = [](const std::string &text) {
        JsonReader r(text);
        r.beginObject();
        r.key("a");
        r.readInt();
        r.key("b");
        r.readInt();
        r.endObject();
        r.finish();
    };
    EXPECT_NO_THROW(readPair(R"({"a":1,"b":2})"));
    EXPECT_NO_THROW(readPair(" {\n \"a\" : 1 ,\t\"b\":2 } \n"));
    EXPECT_THROW(readPair(R"({"b":2,"a":1})"), FatalError);   // order
    EXPECT_THROW(readPair(R"({"a":1})"), FatalError);         // missing
    EXPECT_THROW(readPair(R"({"a":1,"b":2,"c":3})"), FatalError);
    EXPECT_THROW(readPair(R"({"a":1 "b":2})"), FatalError);   // comma
    EXPECT_THROW(readPair(R"({"a":1,"b":2}})"), FatalError);  // trailing
    EXPECT_THROW(readPair(R"({"a" 1,"b":2})"), FatalError);   // colon
    EXPECT_THROW(readPair(R"({"a":true,"b":2})"), FatalError); // kind
    EXPECT_THROW(readPair(R"({"a":1,"b":2)"), FatalError);    // truncated

    // A value inside an object needs a key; arrays reject keys.
    JsonReader no_key("{1}");
    no_key.beginObject();
    EXPECT_THROW(no_key.readInt(), FatalError);
    JsonReader key_in_array(R"(["a":1])");
    key_in_array.beginArray();
    EXPECT_THROW(key_in_array.key("a"), FatalError);
    // Trailing separators are errors.
    JsonReader trailing("[1,]");
    trailing.beginArray();
    ASSERT_TRUE(trailing.hasNext());
    trailing.readInt();
    EXPECT_THROW(
        {
            while (trailing.hasNext())
                trailing.readInt();
        },
        FatalError);
}

TEST(JsonReader, ErrorsCarryTheByteOffset)
{
    JsonReader r(R"({"version":1,"model":"x"})");
    r.beginObject();
    r.key("version");
    r.readInt();
    try {
        r.key("modle");
        FAIL() << "expected a FatalError";
    } catch (const FatalError &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("offset 13"), std::string::npos) << what;
        EXPECT_NE(what.find("'modle'"), std::string::npos) << what;
        EXPECT_NE(what.find("'model'"), std::string::npos) << what;
    }
}

TEST(JsonReader, NextKeyAndSkipValue)
{
    JsonReader r(R"({"v":1.5,"skip":{"x":[1,"two",null,false,{}]},)"
                 R"("vs":"inf"})");
    r.beginObject();
    EXPECT_EQ(r.nextKey(), "v");
    EXPECT_EQ(r.peekKind(), JsonReader::Kind::kNumber);
    EXPECT_EQ(r.readDouble(), 1.5);
    EXPECT_EQ(r.nextKey(), "skip");
    EXPECT_EQ(r.peekKind(), JsonReader::Kind::kObject);
    r.skipValue();
    r.key("vs");
    EXPECT_EQ(r.readString(), "inf");
    EXPECT_FALSE(r.hasNext());
    r.endObject();
    r.finish();
}

TEST(JsonReader, BoundsNestingDepth)
{
    // Deep enough to overflow a recursive consumer's stack if it were
    // not bounded; rejected with FatalError instead.
    const std::string deep =
        std::string(100000, '[') + std::string(100000, ']');
    JsonReader r(deep);
    EXPECT_THROW(r.skipValue(), FatalError);
    // Ordinary nesting is unaffected.
    const std::string shallow =
        std::string(64, '[') + std::string(64, ']');
    JsonReader ok(shallow);
    EXPECT_NO_THROW(ok.skipValue());
    EXPECT_NO_THROW(ok.finish());
}

} // namespace
} // namespace souffle
