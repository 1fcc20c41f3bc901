#include "common/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/logging.h"
#include "common/string_util.h"

namespace souffle {

void
JsonWriter::beginElement()
{
    if (afterKey) {
        // The comma (if any) was emitted before the key.
        afterKey = false;
        return;
    }
    if (!counts.empty() && counts.back() > 0)
        out += ',';
    if (!counts.empty())
        ++counts.back();
    if (pendingNewline) {
        pendingNewline = false;
        out += '\n';
        out.append(2 * counts.size(), ' ');
    }
}

JsonWriter &
JsonWriter::beginObject()
{
    beginElement();
    out += '{';
    counts.push_back(0);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    counts.pop_back();
    if (pendingNewline) {
        pendingNewline = false;
        out += '\n';
        out.append(2 * counts.size(), ' ');
    }
    out += '}';
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    beginElement();
    out += '[';
    counts.push_back(0);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    counts.pop_back();
    if (pendingNewline) {
        pendingNewline = false;
        out += '\n';
        out.append(2 * counts.size(), ' ');
    }
    out += ']';
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &name)
{
    beginElement();
    out += '"';
    out += jsonEscape(name);
    out += style == Style::kSpaced ? "\": " : "\":";
    afterKey = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &text)
{
    beginElement();
    out += '"';
    out += jsonEscape(text);
    out += '"';
    return *this;
}

JsonWriter &
JsonWriter::value(const char *text)
{
    return value(std::string(text));
}

JsonWriter &
JsonWriter::value(double number)
{
    beginElement();
    // JSON has no inf/nan literals; clamp to null.
    if (!std::isfinite(number)) {
        out += "null";
        return *this;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.*g", doubleDigits, number);
    out += buf;
    return *this;
}

JsonWriter &
JsonWriter::value(int64_t number)
{
    beginElement();
    out += std::to_string(number);
    return *this;
}

JsonWriter &
JsonWriter::value(int number)
{
    return value(static_cast<int64_t>(number));
}

JsonWriter &
JsonWriter::value(size_t number)
{
    return value(static_cast<int64_t>(number));
}

JsonWriter &
JsonWriter::value(bool flag)
{
    beginElement();
    out += flag ? "true" : "false";
    return *this;
}

JsonWriter &
JsonWriter::newline()
{
    pendingNewline = true;
    return *this;
}

JsonWriter &
JsonWriter::setDoublePrecision(int digits)
{
    SOUFFLE_REQUIRE(digits >= 1 && digits <= 17,
                    "JSON double precision must be in [1, 17], got "
                        << digits);
    doubleDigits = digits;
    return *this;
}

// --------------------------------------------------------------------
// Pull reader.

namespace {

/** Deeper documents are rejected rather than risking the stack of a
 *  recursive consumer (the tree builder, the expression reader). */
constexpr size_t kMaxDepth = 4096;

bool
isDigit(char ch)
{
    return ch >= '0' && ch <= '9';
}

/** An integral double that converts to int64 exactly (|x| <= 2^53). */
bool
isExactInt(double number)
{
    return std::nearbyint(number) == number
           && number >= -9.007199254740992e15
           && number <= 9.007199254740992e15;
}

} // namespace

void
JsonReader::fail(std::string_view what) const
{
    SOUFFLE_FATAL("JSON parse error at offset " << pos << ": " << what);
}

void
JsonReader::failExpected(char wanted) const
{
    fail(std::string("expected '") + wanted + "'");
}

void
JsonReader::beginRoot()
{
    if (rootSeen)
        fail("trailing characters after JSON document");
    rootSeen = true;
}

void
JsonReader::openContainer(bool object)
{
    beginValue();
    expect(object ? '{' : '[');
    if (levels.size() >= kMaxDepth)
        fail("nesting too deep");
    levels.push_back(Level{object, false});
}

void
JsonReader::closeContainer(bool object)
{
    if (levels.empty() || levels.back().object != object)
        fail(object ? "no object to close" : "no array to close");
    if (afterKey || elementPending)
        fail("expected a value");
    expect(object ? '}' : ']');
    levels.pop_back();
}

void
JsonReader::keySlow(std::string_view expected)
{
    const size_t start = pos;
    std::string name;
    parseString(name);
    if (name != expected) {
        pos = start;
        fail("expected member '" + std::string(expected) + "', found '"
             + name + "'");
    }
}

std::string
JsonReader::nextKey()
{
    beginKey();
    std::string name;
    parseString(name);
    expect(':');
    afterKey = true;
    return name;
}

JsonReader::Kind
JsonReader::peekKind()
{
    switch (peekChar()) {
      case '{':
        return Kind::kObject;
      case '[':
        return Kind::kArray;
      case '"':
        return Kind::kString;
      case 't':
      case 'f':
        return Kind::kBool;
      case 'n':
        return Kind::kNull;
      default:
        return Kind::kNumber;
    }
}

std::string_view
JsonReader::scanNumber(bool &integral)
{
    skipWhitespace();
    const size_t start = pos;
    integral = true;
    if (pos < text.size() && text[pos] == '-')
        ++pos;
    if (pos >= text.size() || !isDigit(text[pos]))
        fail("invalid number");
    if (text[pos] == '0')
        ++pos;
    else
        while (pos < text.size() && isDigit(text[pos]))
            ++pos;
    if (pos < text.size() && text[pos] == '.') {
        integral = false;
        ++pos;
        if (pos >= text.size() || !isDigit(text[pos]))
            fail("digit required after decimal point");
        while (pos < text.size() && isDigit(text[pos]))
            ++pos;
    }
    if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
        integral = false;
        ++pos;
        if (pos < text.size() && (text[pos] == '+' || text[pos] == '-'))
            ++pos;
        if (pos >= text.size() || !isDigit(text[pos]))
            fail("digit required in exponent");
        while (pos < text.size() && isDigit(text[pos]))
            ++pos;
    }
    return text.substr(start, pos - start);
}

double
JsonReader::readDouble()
{
    beginValue();
    bool integral = false;
    const std::string_view token = scanNumber(integral);
    double value = 0.0;
    const auto [end, err] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (err == std::errc::result_out_of_range) {
        // Overflow to +-inf and underflow to 0, as strtod rounds.
        return std::strtod(std::string(token).c_str(), nullptr);
    }
    if (err != std::errc() || end != token.data() + token.size())
        fail("invalid number");
    return value;
}

int64_t
JsonReader::readInt()
{
    beginValue();
    skipWhitespace();
    const size_t start = pos;
    // Fast path: up to 18 plain digits cannot overflow int64.
    size_t at = pos;
    const bool negative = at < text.size() && text[at] == '-';
    at += negative ? 1 : 0;
    const size_t first = at;
    int64_t magnitude = 0;
    while (at < text.size() && at - first < 18 && isDigit(text[at]))
        magnitude = magnitude * 10 + (text[at++] - '0');
    const bool plain = at > first
                       && (text[first] != '0' || at == first + 1)
                       && (at == text.size()
                           || (!isDigit(text[at]) && text[at] != '.'
                               && text[at] != 'e' && text[at] != 'E'));
    if (plain) {
        pos = at;
        return negative ? -magnitude : magnitude;
    }

    bool integral = false;
    const std::string_view token = scanNumber(integral);
    if (integral) {
        int64_t value = 0;
        const auto [end, err] = std::from_chars(
            token.data(), token.data() + token.size(), value);
        if (err == std::errc() && end == token.data() + token.size())
            return value;
        pos = start;
        fail("integer out of int64 range");
    }
    double number = 0.0;
    const auto [end, err] = std::from_chars(
        token.data(), token.data() + token.size(), number);
    if (err != std::errc() || end != token.data() + token.size()
        || !isExactInt(number)) {
        pos = start;
        fail("number is not an exact int64");
    }
    return static_cast<int64_t>(number);
}

bool
JsonReader::readBool()
{
    beginValue();
    const char first = peekChar();
    if (first == 't' && text.compare(pos, 4, "true") == 0) {
        pos += 4;
        return true;
    }
    if (first == 'f' && text.compare(pos, 5, "false") == 0) {
        pos += 5;
        return false;
    }
    fail("expected a bool");
}

void
JsonReader::readNull()
{
    beginValue();
    if (peekChar() != 'n' || text.compare(pos, 4, "null") != 0)
        fail("expected null");
    pos += 4;
}

std::string
JsonReader::readString()
{
    beginValue();
    std::string out;
    parseString(out);
    return out;
}

void
JsonReader::skipValue()
{
    switch (peekKind()) {
      case Kind::kObject:
        beginObject();
        while (hasNext()) {
            nextKey();
            skipValue();
        }
        endObject();
        return;
      case Kind::kArray:
        beginArray();
        while (hasNext())
            skipValue();
        endArray();
        return;
      case Kind::kString:
        readString();
        return;
      case Kind::kBool:
        readBool();
        return;
      case Kind::kNull:
        readNull();
        return;
      case Kind::kNumber:
        readDouble();
        return;
    }
}

void
JsonReader::finish()
{
    if (!levels.empty() || !rootSeen)
        fail("unexpected end of input");
    skipWhitespace();
    if (pos != text.size())
        fail("trailing characters after JSON document");
}

void
JsonReader::parseString(std::string &out)
{
    expect('"');
    while (true) {
        // Copy the run up to the next quote, escape or control
        // character in one append.
        const size_t run = pos;
        while (pos < text.size() && text[pos] != '"' && text[pos] != '\\'
               && static_cast<unsigned char>(text[pos]) >= 0x20)
            ++pos;
        out.append(text.data() + run, pos - run);
        if (pos >= text.size())
            fail("unterminated string");
        const char ch = text[pos++];
        if (ch == '"')
            return;
        if (ch != '\\') {
            --pos;
            fail("unescaped control character in string");
        }
        if (pos >= text.size())
            fail("unterminated escape sequence");
        switch (text[pos++]) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': parseUnicodeEscape(out); break;
          default: fail("invalid escape sequence");
        }
    }
}

/**
 * \uXXXX escape, encoded back to UTF-8. Surrogate pairs are accepted;
 * lone surrogates become U+FFFD, matching the common lenient-decoder
 * behavior (the writer never emits them).
 */
void
JsonReader::parseUnicodeEscape(std::string &out)
{
    uint32_t code = parseHex4();
    if (code >= 0xd800 && code <= 0xdbff) {
        if (pos + 1 < text.size() && text[pos] == '\\'
            && text[pos + 1] == 'u') {
            pos += 2;
            const uint32_t low = parseHex4();
            if (low >= 0xdc00 && low <= 0xdfff)
                code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
            else
                code = 0xfffd;
        } else {
            code = 0xfffd;
        }
    } else if (code >= 0xdc00 && code <= 0xdfff) {
        code = 0xfffd;
    }
    if (code < 0x80) {
        out += static_cast<char>(code);
    } else if (code < 0x800) {
        out += static_cast<char>(0xc0 | (code >> 6));
        out += static_cast<char>(0x80 | (code & 0x3f));
    } else if (code < 0x10000) {
        out += static_cast<char>(0xe0 | (code >> 12));
        out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
        out += static_cast<char>(0x80 | (code & 0x3f));
    } else {
        out += static_cast<char>(0xf0 | (code >> 18));
        out += static_cast<char>(0x80 | ((code >> 12) & 0x3f));
        out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
        out += static_cast<char>(0x80 | (code & 0x3f));
    }
}

uint32_t
JsonReader::parseHex4()
{
    uint32_t code = 0;
    for (int i = 0; i < 4; ++i) {
        if (pos >= text.size())
            fail("unexpected end of input");
        const char ch = text[pos++];
        code <<= 4;
        if (ch >= '0' && ch <= '9')
            code |= static_cast<uint32_t>(ch - '0');
        else if (ch >= 'a' && ch <= 'f')
            code |= static_cast<uint32_t>(ch - 'a' + 10);
        else if (ch >= 'A' && ch <= 'F')
            code |= static_cast<uint32_t>(ch - 'A' + 10);
        else
            fail("invalid \\u escape digit");
    }
    return code;
}

} // namespace souffle
