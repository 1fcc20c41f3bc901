/**
 * @file
 * Edge-case tests for the shared JSON module: writer escaping
 * (control characters, quotes, backslashes), non-finite double
 * sanitization, empty containers, nesting, precision control, and the
 * parser (round-trips, unicode escapes, malformed-input rejection).
 */

#include <cmath>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace souffle {
namespace {

// ----- writer ---------------------------------------------------------------

TEST(JsonWriter, EscapesQuotesBackslashesAndControlChars)
{
    JsonWriter json;
    json.beginObject()
        .field("k\"ey", "a\\b\"c\nd\te\rf")
        .field("ctl", std::string("\x01\x1f"))
        .endObject();
    EXPECT_EQ(json.str(),
              "{\"k\\\"ey\": \"a\\\\b\\\"c\\nd\\te\\rf\","
              "\"ctl\": \"\\u0001\\u001f\"}");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull)
{
    JsonWriter json;
    json.beginArray()
        .value(std::numeric_limits<double>::infinity())
        .value(-std::numeric_limits<double>::infinity())
        .value(std::numeric_limits<double>::quiet_NaN())
        .value(1.5)
        .endArray();
    EXPECT_EQ(json.str(), "[null,null,null,1.5]");
}

TEST(JsonWriter, EmptyContainers)
{
    JsonWriter json;
    json.beginObject()
        .key("arr")
        .beginArray()
        .endArray()
        .key("obj")
        .beginObject()
        .endObject()
        .endObject();
    EXPECT_EQ(json.str(), "{\"arr\": [],\"obj\": {}}");
}

TEST(JsonWriter, DeepNestingAndCompactStyle)
{
    JsonWriter json(JsonWriter::Style::kCompact);
    json.beginObject()
        .key("a")
        .beginArray()
        .beginObject()
        .field("b", 1)
        .endObject()
        .beginArray()
        .value(true)
        .value(false)
        .endArray()
        .endArray()
        .endObject();
    EXPECT_EQ(json.str(), "{\"a\":[{\"b\":1},[true,false]]}");
}

TEST(JsonWriter, DoublePrecisionControl)
{
    JsonWriter coarse;
    coarse.beginArray().value(1.0 / 3.0).endArray();
    EXPECT_EQ(coarse.str(), "[0.3333333333]");

    JsonWriter exact;
    exact.setDoublePrecision(17);
    exact.beginArray().value(1.0 / 3.0).endArray();
    EXPECT_EQ(exact.str(), "[0.33333333333333331]");

    JsonWriter bad;
    EXPECT_THROW(bad.setDoublePrecision(0), FatalError);
    EXPECT_THROW(bad.setDoublePrecision(18), FatalError);
}

// ----- parser ---------------------------------------------------------------
//
// JsonReader is the only parser. These cases drive it the way its
// callers do: in writer order, or member by member via nextKey.

/** Validate one whole document (any shape), as a loader would. */
void
parseDocument(std::string_view text)
{
    JsonReader reader(text);
    reader.skipValue();
    reader.finish();
}

std::string
parseString(std::string_view text)
{
    JsonReader reader(text);
    std::string value = reader.readString();
    reader.finish();
    return value;
}

TEST(JsonParse, Document)
{
    JsonReader r("  {\"a\": [1, -2.5, 1e3], \"b\": {\"c\": null}, "
                 "\"t\": true, \"f\": false, \"s\": \"x\"}  ");
    r.beginObject();
    r.key("a");
    r.beginArray();
    ASSERT_TRUE(r.hasNext());
    EXPECT_EQ(r.readInt(), 1);
    ASSERT_TRUE(r.hasNext());
    EXPECT_EQ(r.readDouble(), -2.5);
    ASSERT_TRUE(r.hasNext());
    EXPECT_EQ(r.readDouble(), 1000.0);
    EXPECT_FALSE(r.hasNext());
    r.endArray();
    r.key("b");
    r.beginObject();
    r.key("c");
    EXPECT_EQ(r.peekKind(), JsonReader::Kind::kNull);
    r.readNull();
    r.endObject();
    r.key("t");
    EXPECT_TRUE(r.readBool());
    r.key("f");
    EXPECT_FALSE(r.readBool());
    r.key("s");
    EXPECT_EQ(r.readString(), "x");
    EXPECT_FALSE(r.hasNext());
    r.endObject();
    r.finish();

    JsonReader missing("{\"s\": \"x\"}");
    missing.beginObject();
    EXPECT_THROW(missing.key("missing"), FatalError);
}

TEST(JsonParse, StringEscapes)
{
    EXPECT_EQ(parseString("\"a\\\"b\\\\c\\/d\\n\\t\\r\\b\\f\\u0041\""),
              "a\"b\\c/d\n\t\r\b\fA");
}

TEST(JsonParse, UnicodeEscapes)
{
    // BMP char (é = U+00E9), 3-byte char (U+20AC €), and a surrogate
    // pair (U+1D11E musical G clef).
    EXPECT_EQ(parseString("\"\\u00e9\""), "\xc3\xa9");
    EXPECT_EQ(parseString("\"\\u20ac\""), "\xe2\x82\xac");
    EXPECT_EQ(parseString("\"\\ud834\\udd1e\""), "\xf0\x9d\x84\x9e");
    // Lone surrogate decodes to U+FFFD, not an exception.
    EXPECT_EQ(parseString("\"\\ud834\""), "\xef\xbf\xbd");
}

TEST(JsonParse, RejectsMalformed)
{
    EXPECT_NO_THROW(parseDocument(" {\"a\": [1, {}, null]} "));
    EXPECT_THROW(parseDocument(""), FatalError);
    EXPECT_THROW(parseDocument("{"), FatalError);
    EXPECT_THROW(parseDocument("[1,]"), FatalError);
    EXPECT_THROW(parseDocument("{\"a\" 1}"), FatalError);
    EXPECT_THROW(parseDocument("{\"a\": 1} trailing"), FatalError);
    EXPECT_THROW(parseDocument("\"unterminated"), FatalError);
    EXPECT_THROW(parseDocument("\"bad\\escape\""), FatalError);
    EXPECT_THROW(parseDocument("\"ctl \x01\""), FatalError);
    EXPECT_THROW(parseDocument("01"), FatalError);
    EXPECT_THROW(parseDocument("1."), FatalError);
    EXPECT_THROW(parseDocument("1e"), FatalError);
    EXPECT_THROW(parseDocument("truthy"), FatalError);
    EXPECT_THROW(parseDocument("\"bad\\uZZZZ\""), FatalError);
}

TEST(JsonParse, AccessorKindChecks)
{
    // Every typed read of a number that is not one throws.
    const auto readAs = [](auto read) {
        JsonReader r("{\"n\": 1.5}");
        r.beginObject();
        r.key("n");
        read(r);
    };
    EXPECT_THROW(readAs([](JsonReader &r) { r.readString(); }),
                 FatalError);
    EXPECT_THROW(readAs([](JsonReader &r) { r.readBool(); }),
                 FatalError);
    EXPECT_THROW(readAs([](JsonReader &r) { r.beginArray(); }),
                 FatalError);
    EXPECT_THROW(readAs([](JsonReader &r) { r.beginObject(); }),
                 FatalError);
    // 1.5 is not an exact integer.
    EXPECT_THROW(readAs([](JsonReader &r) { r.readInt(); }),
                 FatalError);
    EXPECT_NO_THROW(readAs([](JsonReader &r) { r.readDouble(); }));
}

TEST(JsonParse, WriterRoundTripWithExactDoubles)
{
    // Write with 17-digit precision, parse back, compare bit-exact —
    // the invariant the on-disk schedule cache depends on.
    const double values[] = {1.0 / 3.0, 0.1, 1234567.89012345,
                             6.62607015e-34, -2.718281828459045,
                             9.007199254740991e15};
    JsonWriter json;
    json.setDoublePrecision(17);
    json.beginArray();
    for (double v : values)
        json.value(v);
    json.endArray();

    JsonReader r(json.str());
    std::vector<double> read;
    r.beginArray();
    while (r.hasNext())
        read.push_back(r.readDouble());
    r.endArray();
    r.finish();
    ASSERT_EQ(read.size(), std::size(values));
    for (size_t i = 0; i < std::size(values); ++i)
        EXPECT_EQ(read[i], values[i]) << i;
}

TEST(JsonParse, ObjectPreservesMemberOrder)
{
    JsonReader r("{\"z\": 1, \"a\": 2, \"m\": 3}");
    std::vector<std::pair<std::string, int64_t>> members;
    r.beginObject();
    while (r.hasNext()) {
        std::string name = r.nextKey();
        members.emplace_back(std::move(name), r.readInt());
    }
    r.endObject();
    r.finish();
    EXPECT_EQ(members, (std::vector<std::pair<std::string, int64_t>>{
                           {"z", 1}, {"a", 2}, {"m", 3}}));
}

} // namespace
} // namespace souffle
