#pragma once

/**
 * @file
 * Minimal JSON support shared by every JSON-speaking component.
 *
 * `JsonWriter` is a streaming writer used by the lint report
 * renderer, the chrome-trace exporter, the serving-simulator metrics,
 * the artifact cache and the benchmark binaries. It handles comma
 * placement, string escaping (via `jsonEscape`) and non-finite double
 * sanitization so callers never hand-assemble punctuation.
 *
 * Two layout styles are supported: `kSpaced` puts a space after each
 * key (`"key": value`, the lint-report house style) and `kCompact`
 * does not (`"key":value`, the chrome-trace style). Neither emits
 * newlines; callers that want them insert `newline()` markers.
 *
 * `JsonReader` is the matching pull reader: a cursor over the text
 * that callers drive token by token (begin/end containers, expected
 * keys, typed scalars). It is the only JSON parser: the compiled-
 * artifact deserializers and the on-disk artifact cache read in writer
 * order, and fleet traces take members in any order through
 * `nextKey`/`skipValue`. Every reader builds its result in one pass
 * with no intermediate tree. It owns the JSON grammar, escape handling
 * and number rules.
 */

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace souffle {

/** Streaming JSON document builder. */
class JsonWriter
{
  public:
    enum class Style : uint8_t {
        kSpaced,  ///< `"key": value`
        kCompact, ///< `"key":value`
    };

    explicit JsonWriter(Style style = Style::kSpaced) : style(style) {}

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Emit a key inside an object; must be followed by a value. */
    JsonWriter &key(const std::string &name);

    JsonWriter &value(const std::string &text);
    JsonWriter &value(const char *text);
    JsonWriter &value(double number);
    JsonWriter &value(int64_t number);
    JsonWriter &value(int number);
    JsonWriter &value(size_t number);
    JsonWriter &value(bool flag);

    /** `key(name).value(v)` in one call. */
    template <typename T>
    JsonWriter &
    field(const std::string &name, const T &v)
    {
        key(name);
        return value(v);
    }

    /**
     * Cosmetic newline + indentation (two spaces per nesting level),
     * emitted before the next element. No-op on document validity.
     */
    JsonWriter &newline();

    /**
     * Significant digits used for double values (default 10, enough
     * for reports). Pass 17 for exact IEEE-754 round-trips — the
     * artifact cache uses this so a schedule read back from disk is
     * bit-identical to the one written.
     */
    JsonWriter &setDoublePrecision(int digits);

    /** The document so far. */
    const std::string &str() const { return out; }

  private:
    /** Comma bookkeeping before an element begins. */
    void beginElement();

    Style style;
    std::string out;
    /** Elements emitted so far at each open nesting level. */
    std::vector<int> counts;
    int doubleDigits = 10;
    bool afterKey = false;
    bool pendingNewline = false;
};

/**
 * Pull reader over one JSON document.
 *
 * The caller walks the document in the order it was written:
 *
 *     r.beginObject();
 *     r.key("version"); int64_t v = r.readInt();
 *     r.key("items"); r.beginArray();
 *     while (r.hasNext()) items.push_back(r.readDouble());
 *     r.endArray();
 *     r.endObject();
 *     r.finish();
 *
 * Every deviation from the expected shape (a different key, a missing
 * comma, a truncated document, a value of the wrong kind) throws
 * FatalError carrying the byte offset. Nothing is buffered: the
 * reader keeps only a position and one entry per open container, and
 * views the text, which must outlive it.
 */
class JsonReader
{
  public:
    /** Kind of the value at the cursor (see `peekKind`). */
    enum class Kind : uint8_t {
        kNull,
        kBool,
        kNumber,
        kString,
        kArray,
        kObject,
    };

    explicit JsonReader(std::string_view text) : text(text) {}

    void beginObject() { openContainer(true); }
    void endObject() { closeContainer(true); }
    void beginArray() { openContainer(false); }
    void endArray() { closeContainer(false); }

    /**
     * True when the innermost open container has another element
     * (consuming the ',' before it); false at its closing bracket.
     * Inside an object the element starts with `key`/`nextKey`.
     */
    bool
    hasNext()
    {
        if (elementPending)
            return true;
        if (levels.empty() || afterKey)
            fail("no container element to read");
        if (peekChar() == (levels.back().object ? '}' : ']'))
            return false;
        beginElement();
        elementPending = true;
        return true;
    }

    /** Read the next member name; throws unless it is @p expected. */
    void
    key(std::string_view expected)
    {
        beginKey();
        // Fast path: the name is spelled out verbatim (no escapes).
        const size_t close = pos + 1 + expected.size();
        if (close < text.size() && text[pos] == '"' && text[close] == '"'
            && text.compare(pos + 1, expected.size(), expected) == 0)
            pos = close + 1;
        else
            keySlow(expected);
        expect(':');
        afterKey = true;
    }

    /** Read the next member name, whatever it is. */
    std::string nextKey();

    /** Kind of the next value, without consuming it. */
    Kind peekKind();

    /** An integer; a fraction or exponent must still be integral. */
    int64_t readInt();
    double readDouble();
    bool readBool();
    std::string readString();
    void readNull();
    /** Consume the next value, containers included. */
    void skipValue();

    /** Require that only whitespace follows the document. */
    void finish();

    /** Throw FatalError for @p what at the current offset. */
    [[noreturn]] void fail(std::string_view what) const;

  private:
    struct Level
    {
        bool object;
        bool started; ///< At least one element has begun.
    };

    void
    skipWhitespace()
    {
        while (pos < text.size()
               && (text[pos] == ' ' || text[pos] == '\n'
                   || text[pos] == '\t' || text[pos] == '\r'))
            ++pos;
    }

    /** Next non-whitespace character, not consumed. */
    char
    peekChar()
    {
        skipWhitespace();
        if (pos >= text.size())
            fail("unexpected end of input");
        return text[pos];
    }

    void
    expect(char wanted)
    {
        if (peekChar() != wanted)
            failExpected(wanted);
        ++pos;
    }

    /** Separator bookkeeping before an array item or object key. */
    void
    beginElement()
    {
        if (elementPending) {
            elementPending = false;
            return;
        }
        Level &level = levels.back();
        if (level.started)
            expect(',');
        level.started = true;
    }

    /** Bookkeeping before any value (checks a key preceded it). */
    void
    beginValue()
    {
        if (levels.empty())
            beginRoot();
        else if (levels.back().object)
            takeKey();
        else
            beginElement();
    }

    /** Bookkeeping before a member name; leaves the cursor on it. */
    void
    beginKey()
    {
        if (levels.empty() || !levels.back().object || afterKey)
            fail("member name out of place");
        beginElement();
        skipWhitespace();
    }

    void
    takeKey()
    {
        if (!afterKey)
            fail("expected a member name");
        afterKey = false;
    }

    void beginRoot();
    void openContainer(bool object);
    void closeContainer(bool object);
    void keySlow(std::string_view expected);
    [[noreturn]] void failExpected(char wanted) const;
    /** Scan a number token; @p integral reports no fraction/exponent. */
    std::string_view scanNumber(bool &integral);
    /** Parse a string at the cursor, appending it to @p out. */
    void parseString(std::string &out);
    void parseUnicodeEscape(std::string &out);
    uint32_t parseHex4();

    std::string_view text;
    size_t pos = 0;
    std::vector<Level> levels;
    /** `hasNext` consumed the separator of the next element. */
    bool elementPending = false;
    /** A key was read and its value has not begun yet. */
    bool afterKey = false;
    /** The top-level value has begun. */
    bool rootSeen = false;
};

} // namespace souffle
