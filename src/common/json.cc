#include "common/json.hh"

#include <charconv>
#include <cmath>

#include "common/log.hh"

namespace mnoc {

namespace {

/** Recursive-descent reader over one document; depth is bounded by
 *  kJsonMaxDepth, so the recursion cannot exhaust the stack. */
class JsonReader
{
  public:
    JsonReader(std::string_view text, const std::string &path)
        : text_(text), path_(path)
    {}

    JsonValue
    document()
    {
        JsonValue root = value(0);
        skipSpace();
        if (at_ < text_.size())
            fail("unexpected byte after the root value");
        return root;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        failAt(at_, what);
    }

    [[noreturn]] void
    failAt(std::size_t at, const std::string &what) const
    {
        fatal(path_ + ": malformed JSON at byte " + std::to_string(at) +
              ": " + what);
    }

    void
    skipSpace()
    {
        while (at_ < text_.size() &&
               (text_[at_] == ' ' || text_[at_] == '\t' ||
                text_[at_] == '\n' || text_[at_] == '\r'))
            ++at_;
    }

    /** The next non-whitespace byte; end of input is an error. */
    char
    peek()
    {
        skipSpace();
        if (at_ >= text_.size())
            fail("unexpected end of input");
        return text_[at_];
    }

    /** Consume @p word if the input holds exactly it here. */
    bool
    literal(std::string_view word)
    {
        if (text_.substr(at_, word.size()) != word)
            return false;
        at_ += word.size();
        return true;
    }

    JsonValue
    value(int depth)
    {
        char c = peek();
        JsonValue out;
        out.offset = at_;
        if (c == '{' || c == '[') {
            if (depth >= kJsonMaxDepth)
                fail("nesting deeper than " +
                     std::to_string(kJsonMaxDepth) + " levels");
            container(out, depth + 1);
        } else if (c == '"') {
            out.kind = JsonValue::Kind::String;
            out.text = string();
        } else if (c == '-' || (c >= '0' && c <= '9')) {
            number(out);
        } else if (literal("true")) {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
        } else if (literal("false")) {
            out.kind = JsonValue::Kind::Bool;
        } else if (!literal("null")) {
            fail("expected a value");
        }
        return out;
    }

    /** An object or an array, from its opening bracket (at_). */
    void
    container(JsonValue &out, int depth)
    {
        const bool object = text_[at_++] == '{';
        const char close = object ? '}' : ']';
        out.kind = object ? JsonValue::Kind::Object : JsonValue::Kind::Array;
        if (peek() == close) {
            ++at_;
            return;
        }
        while (true) {
            if (object) {
                JsonMember member;
                if (peek() != '"')
                    fail("expected a member key");
                member.keyOffset = at_;
                member.key = string();
                if (peek() != ':')
                    fail("expected ':'");
                ++at_;
                member.value = value(depth);
                out.members.push_back(std::move(member));
            } else {
                out.items.push_back(value(depth));
            }
            char c = peek();
            if (c != ',' && c != close)
                fail(std::string("expected ',' or '") + close + "'");
            ++at_;
            if (c == close)
                return;
        }
    }

    /** Digits [0-9]* from at_; returns how many. */
    std::size_t
    digits()
    {
        std::size_t start = at_;
        while (at_ < text_.size() && text_[at_] >= '0' &&
               text_[at_] <= '9')
            ++at_;
        return at_ - start;
    }

    /** -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)? */
    void
    number(JsonValue &out)
    {
        std::size_t start = at_;
        if (text_[at_] == '-')
            ++at_;
        std::size_t int_start = at_;
        std::size_t int_digits = digits();
        if (int_digits == 0)
            fail("expected a digit");
        if (int_digits > 1 && text_[int_start] == '0')
            failAt(int_start, "number with a leading zero");
        if (literal(".") && digits() == 0)
            fail("expected a digit after the decimal point");
        if (literal("e") || literal("E")) {
            if (!literal("+"))
                literal("-");
            if (digits() == 0)
                fail("expected a digit in the exponent");
        }
        out.kind = JsonValue::Kind::Number;
        out.text = std::string(text_.substr(start, at_ - start));
        const char *end = out.text.data() + out.text.size();
        auto [stop, ec] =
            std::from_chars(out.text.data(), end, out.number);
        if (ec != std::errc() || stop != end)
            failAt(start, "number out of the range of a double");
    }

    /** The four hex digits of a \\u escape. */
    unsigned
    hex4()
    {
        if (at_ + 4 > text_.size())
            failAt(text_.size(), "unexpected end of input inside a string");
        const char *begin = text_.data() + at_;
        unsigned code = 0;
        auto [stop, ec] = std::from_chars(begin, begin + 4, code, 16);
        if (ec != std::errc() || stop != begin + 4)
            fail("expected four hex digits in a \\u escape");
        at_ += 4;
        return code;
    }

    /** Append code point @p code as UTF-8: a lead byte that counts
     *  the continuation bytes, each of which carries six bits. */
    static void
    appendUtf8(std::string &out, unsigned code)
    {
        if (code < 0x80) {
            out += static_cast<char>(code);
            return;
        }
        int extra = code < 0x800 ? 1 : code < 0x10000 ? 2 : 3;
        out += static_cast<char>(((0xff00u >> (extra + 1)) & 0xffu) |
                                 (code >> (6 * extra)));
        for (int k = extra - 1; k >= 0; --k)
            out += static_cast<char>(0x80u | ((code >> (6 * k)) & 0x3fu));
    }

    /** A string literal, from its opening quote (at_). */
    std::string
    string()
    {
        static constexpr std::string_view kEscapes = "\"\\/bfnrt";
        static constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
        ++at_;
        std::string out;
        while (true) {
            if (at_ >= text_.size())
                fail("unexpected end of input inside a string");
            char c = text_[at_];
            if (static_cast<unsigned char>(c) < 0x20)
                fail("raw control character in a string");
            ++at_;
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            std::size_t escape = at_ - 1;
            if (at_ >= text_.size())
                fail("unexpected end of input inside a string");
            char esc = text_[at_++];
            if (std::size_t k = kEscapes.find(esc);
                k != std::string_view::npos) {
                out += kDecoded[k];
                continue;
            }
            if (esc != 'u')
                failAt(escape, "invalid escape");
            unsigned code = hex4();
            if (code >= 0xdc00 && code <= 0xdfff)
                failAt(escape, "lone low surrogate");
            if (code >= 0xd800 && code <= 0xdbff) {
                if (!literal("\\u"))
                    failAt(escape, "lone high surrogate");
                unsigned low = hex4();
                if (low < 0xdc00 || low > 0xdfff)
                    failAt(escape, "lone high surrogate");
                code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
            }
            appendUtf8(out, code);
        }
    }

    std::string_view text_;
    const std::string &path_;
    std::size_t at_ = 0;
};

} // namespace

const JsonValue *
JsonValue::field(std::string_view key) const
{
    for (const JsonMember &member : members)
        if (member.key == key)
            return &member.value;
    return nullptr;
}

std::optional<std::uint64_t>
JsonValue::truncatedUint() const
{
    if (kind != Kind::Number || number < 0.0)
        return std::nullopt;
    if (text.find_first_of(".eE") == std::string::npos) {
        if (text[0] == '-') // "-0": negative numbers were excluded
            return 0;
        std::uint64_t out = 0;
        auto [stop, ec] =
            std::from_chars(text.data(), text.data() + text.size(), out);
        if (ec != std::errc())
            return std::nullopt;
        return out;
    }
    // 2^64 is exact as a double; every double below it truncates to
    // a representable integer.
    if (!(number < 18446744073709551616.0))
        return std::nullopt;
    return static_cast<std::uint64_t>(std::trunc(number));
}

JsonValue
parseJson(std::string_view text, const std::string &path)
{
    return JsonReader(text, path).document();
}

} // namespace mnoc
