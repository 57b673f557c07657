/**
 * @file
 * The simulator's JSON reader and its one JSON writer.
 *
 * parse() is a small recursive-descent parser for the checkpoint
 * journal, repro capsules and fleet scenarios. Numbers keep their
 * source text so 64-bit integers (seeds, fingerprints, cycle counts)
 * round trip exactly instead of passing through a double. It reads
 * tool-generated input with clear diagnostics on corruption and is not
 * a general-purpose JSON library.
 *
 * Writer emits every JSON document the simulator writes, so strings
 * are escaped one way and numbers formatted one way everywhere; its two
 * fixed layouts keep each document's bytes deterministic.
 */

#ifndef PVA_SIM_JSON_HH
#define PVA_SIM_JSON_HH

#include <charconv>
#include <concepts>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pva::json
{

/** One parsed JSON value (a tree; object keys keep source order). */
class Value
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind() const { return valueKind; }
    bool isNull() const { return valueKind == Kind::Null; }
    bool isBool() const { return valueKind == Kind::Bool; }
    bool isNumber() const { return valueKind == Kind::Number; }
    bool isString() const { return valueKind == Kind::String; }
    bool isArray() const { return valueKind == Kind::Array; }
    bool isObject() const { return valueKind == Kind::Object; }

    /** @name Typed access (meaningful only for the matching kind) @{ */
    bool boolean() const { return boolValue; }
    /** The number's source text, e.g. "50000000" or "1e-3". */
    const std::string &numberText() const { return text; }
    const std::string &string() const { return text; }
    const std::vector<Value> &array() const { return elements; }
    const std::vector<std::pair<std::string, Value>> &object() const
    {
        return members;
    }
    /** @} */

    /** Object member lookup; nullptr when absent (or not an object). */
    const Value *find(const std::string &key) const;

    /** @name Number conversions
     * Valid only for Kind::Number (asU64 additionally requires a
     * non-negative integer literal); @p ok is cleared on failure and
     * left untouched on success, so one flag can guard a whole
     * extraction sequence. @{ */
    std::uint64_t asU64(bool &ok) const;
    double asDouble(bool &ok) const;
    /** @} */

  private:
    friend class Parser;

    Kind valueKind = Kind::Null;
    bool boolValue = false;
    std::string text; ///< Number source text or string payload
    std::vector<Value> elements;
    std::vector<std::pair<std::string, Value>> members;
};

/**
 * Parse @p input as one JSON document. Trailing non-whitespace after
 * the document, like any grammar violation, fails the parse.
 *
 * @return true on success (@p out holds the document); false with a
 *         one-line position-annotated message in @p error otherwise.
 */
bool parse(const std::string &input, Value &out, std::string &error);

/** Escape @p s for embedding inside a JSON string literal (quotes not
 *  included): `"` and `\` are backslash-escaped, newline, carriage
 *  return and tab become `\n`, `\r`, `\t`, and every other control
 *  character becomes `\u00XX`. The writer-side counterpart of
 *  parse(). */
std::string escape(std::string_view s);

/**
 * Streams one JSON document into an ostream, with no intermediate
 * tree. Each container opens in one of two layouts:
 *
 * - Inline: members separated by ", " on one line.
 * - Block: each member on its own line, indented by the step times
 *   the number of open block containers; the closing bracket goes on
 *   its own line one level out. An empty container prints as [] / {}.
 *
 * Keys and strings are quoted and escaped with escape(); numbers print
 * as the stream's default `<<` does (%g with 6 digits for a double).
 * Each value goes to the stream in one write, together with the
 * separator and key before it.
 */
class Writer
{
  public:
    enum class Layout { Inline, Block };

    /** @param step block indent per level (the Chrome-trace export
     *         uses 0). */
    explicit Writer(std::ostream &os, unsigned step = 2)
        : os(os), step(step)
    {
    }

    Writer &beginObject(Layout l = Layout::Inline) { return begin('{', l); }
    Writer &endObject() { return end('}'); }
    Writer &beginArray(Layout l = Layout::Inline) { return begin('[', l); }
    Writer &endArray() { return end(']'); }

    /** The next value is the member @p name of the open object. */
    Writer &key(std::string_view name);

    Writer &value(std::string_view s);
    /** (A literal would otherwise convert to bool.) */
    Writer &value(const char *s) { return value(std::string_view(s)); }
    Writer &value(bool b) { return raw(b ? "true" : "false"); }

    template <typename Number>
        requires std::integral<Number> || std::floating_point<Number>
    Writer &
    value(Number n)
    {
        static_assert(sizeof(Number) > 1,
                      "a char type prints as text, not a number");
        char text[32];
        std::to_chars_result r;
        if constexpr (std::floating_point<Number>)
            r = std::to_chars(text, text + sizeof(text), n,
                              std::chars_format::general, 6);
        else
            r = std::to_chars(text, text + sizeof(text), n);
        return raw(std::string_view(text, r.ptr - text));
    }

    /** A value already formatted as JSON (a number or literal). */
    Writer &raw(std::string_view text);

    /** key(@p name) then value(@p v). */
    template <typename T>
    Writer &
    member(std::string_view name, const T &v)
    {
        return key(name).value(v);
    }

    /** End the line after the last value. The stat dump, sweep report
     *  and load-sweep documents always ended in a newline, also where
     *  the tool envelope embeds them, and keep it. */
    Writer &endLine() { pending += '\n'; return flush(); }

  private:
    /** Queue what precedes a value: a separator, line break and
     *  indent, or nothing right after a key. */
    void separate();
    void quote(std::string_view s);
    Writer &begin(char bracket, Layout layout);
    Writer &end(char bracket);
    void newLine();
    Writer &flush();

    std::ostream &os;
    unsigned step;
    /** Per open container: {block layout, has a member}. */
    std::vector<std::pair<bool, bool>> open;
    bool afterKey = false;
    /** Text not yet written: the separator and key of the next value. */
    std::string pending;
};

} // namespace pva::json

#endif // PVA_SIM_JSON_HH
