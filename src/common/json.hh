/**
 * @file
 * JSON for every artifact writer and reader in the tree.
 *
 * Writing: escapeJson() and jsonNumber() are the only helpers; the
 * writers (metrics registry export, span traces, BENCH_*.json,
 * manifests) assemble their own structure, which keeps the output
 * byte-stable (no map reordering, no locale surprises).
 *
 * Reading: parseJson() is the one reader (span profiles, the
 * compilation database).  It is a strict RFC 8259 parser that builds
 * a value tree in which every value and member key records its byte
 * offset, so a caller can name the byte of a value it rejects.
 */

#ifndef MNOC_COMMON_JSON_HH
#define MNOC_COMMON_JSON_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace mnoc {

/**
 * Escape @p text for embedding inside a JSON string literal: quotes
 * and backslashes are backslash-escaped, the common control
 * characters use their short forms, and every other control
 * character becomes a \\u00XX sequence.  Non-ASCII bytes pass
 * through untouched (the files are UTF-8).
 */
inline std::string
escapeJson(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char ch : text) {
        auto byte = static_cast<unsigned char>(ch);
        switch (ch) {
          case '"':
            out += "\\\"";
            continue;
          case '\\':
            out += "\\\\";
            continue;
          case '\n':
            out += "\\n";
            continue;
          case '\t':
            out += "\\t";
            continue;
          case '\r':
            out += "\\r";
            continue;
          case '\b':
            out += "\\b";
            continue;
          case '\f':
            out += "\\f";
            continue;
          default:
            break;
        }
        if (byte < 0x20) {
            const char *digits = "0123456789abcdef";
            out += "\\u00";
            out += digits[(byte >> 4) & 0xf];
            out += digits[byte & 0xf];
            continue;
        }
        out += ch;
    }
    return out;
}

/**
 * Deterministic decimal rendering of a double for JSON: 17
 * significant digits round-trip every distinct bit pattern, so two
 * runs that computed identical doubles emit identical bytes.
 */
inline std::string
jsonNumber(double value)
{
    std::ostringstream os;
    os.precision(17);
    os << value;
    return os.str();
}

/** Deepest array/object nesting parseJson() accepts; the writers in
 *  this tree nest at most four levels. */
inline constexpr int kJsonMaxDepth = 256;

struct JsonMember;

/** One parsed JSON value. */
struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    /** Byte offset of the value's first byte in the parsed text. */
    std::size_t offset = 0;
    bool boolean = false;
    /** Number: the nearest double (std::from_chars). */
    double number = 0.0;
    /** String: the decoded UTF-8 text.  Number: the token verbatim. */
    std::string text;
    std::vector<JsonValue> items;    ///< Array elements
    std::vector<JsonMember> members; ///< Object members, in file order

    /** The first member named @p key, or null (also for non-objects). */
    const JsonValue *field(std::string_view key) const;

    /**
     * A Number as an unsigned 64-bit integer, any fraction truncated:
     * exact for an integer token (std::from_chars on the token),
     * otherwise the truncated double.  Empty for a value that is not
     * a number, is negative, or is 2^64 or more.
     */
    std::optional<std::uint64_t> truncatedUint() const;
};

/** One object member: its key, the key's byte offset (its opening
 *  quote) and its value. */
struct JsonMember
{
    std::string key;
    std::size_t keyOffset = 0;
    JsonValue value;
};

/**
 * Parse @p text as one RFC 8259 JSON document.  Strict: numbers
 * follow the RFC grammar (no leading '+' or zeros, no hex, NaN or
 * Infinity) and must fit a double; the literals are exactly true,
 * false and null; strings may not hold raw control characters;
 * \uXXXX escapes decode to UTF-8, a surrogate pair as one
 * character, and a lone surrogate is an error; nesting deeper than
 * kJsonMaxDepth is an error; only whitespace may follow the root
 * value.  Bytes of 0x80 and above pass through strings unchecked.
 * Duplicate member keys are kept, in order.
 *
 * @param path Name used in diagnostics.
 * @throws FatalError reading "<path>: malformed JSON at byte N: <what>".
 */
JsonValue parseJson(std::string_view text, const std::string &path);

} // namespace mnoc

#endif // MNOC_COMMON_JSON_HH
