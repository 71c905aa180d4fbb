#include "tools/analyze/compile_db.hh"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/log.hh"

namespace mnoc::analyze {

namespace {

namespace fs = std::filesystem;

int
hexDigitValue(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    if (c >= 'A' && c <= 'F')
        return c - 'A' + 10;
    return -1;
}

/** Minimal JSON value: only what the database needs. */
struct JsonValue
{
    enum class Kind
    {
        Null,
        Scalar, ///< number / true / false (text kept, unused)
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    std::string str;
    std::vector<JsonValue> items;
    std::vector<std::pair<std::string, JsonValue>> members;

    const JsonValue *
    field(const std::string &name) const
    {
        for (const auto &[key, value] : members)
            if (key == name)
                return &value;
        return nullptr;
    }
};

class JsonParser
{
  public:
    JsonParser(const std::string &text, const std::string &path)
        : text_(text), path_(path)
    {}

    JsonValue
    parse()
    {
        JsonValue value = parseValue();
        skipSpace();
        failIf(at_ != text_.size(), "trailing characters");
        return value;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        fatal(path_ + ": malformed JSON at byte " +
              std::to_string(at_) + ": " + what);
    }

    void
    failIf(bool cond, const std::string &what) const
    {
        if (cond)
            fail(what);
    }

    void
    skipSpace()
    {
        while (at_ < text_.size() &&
               (text_[at_] == ' ' || text_[at_] == '\t' ||
                text_[at_] == '\n' || text_[at_] == '\r'))
            ++at_;
    }

    char
    peek()
    {
        skipSpace();
        failIf(at_ >= text_.size(), "unexpected end of input");
        return text_[at_];
    }

    void
    expect(char c)
    {
        failIf(peek() != c,
               std::string("expected '") + c + "', got '" +
                   text_[at_] + "'");
        ++at_;
    }

    JsonValue
    parseValue()
    {
        char c = peek();
        if (c == '{')
            return parseObject();
        if (c == '[')
            return parseArray();
        if (c == '"') {
            JsonValue value;
            value.kind = JsonValue::Kind::String;
            value.str = parseString();
            return value;
        }
        // Scalar: number, true, false, null.
        JsonValue value;
        value.kind = JsonValue::Kind::Scalar;
        while (at_ < text_.size() &&
               std::string("-+.eE0123456789truefalsn")
                       .find(text_[at_]) != std::string::npos) {
            value.str += text_[at_];
            ++at_;
        }
        failIf(value.str.empty(), "unrecognized value");
        return value;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            failIf(at_ >= text_.size(),
                   "unterminated string literal");
            char c = text_[at_++];
            if (c == '"')
                break;
            if (c != '\\') {
                out += c;
                continue;
            }
            failIf(at_ >= text_.size(), "dangling escape");
            char esc = text_[at_++];
            switch (esc) {
              case 'n':
                out += '\n';
                break;
              case 't':
                out += '\t';
                break;
              case 'r':
                out += '\r';
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'u': {
                failIf(at_ + 4 > text_.size(),
                       "truncated \\u escape");
                // Paths in the database are ASCII; decode only the
                // low byte and pass the rest through verbatim.
                int code = 0;
                for (int k = 0; k < 4; ++k) {
                    int digit = hexDigitValue(text_[at_++]);
                    failIf(digit < 0, "bad \\u escape digit");
                    code = code * 16 + digit;
                }
                out += static_cast<char>(code & 0xff);
                break;
              }
              default:
                out += esc;
                break;
            }
        }
        return out;
    }

    JsonValue
    parseArray()
    {
        expect('[');
        JsonValue value;
        value.kind = JsonValue::Kind::Array;
        if (peek() == ']') {
            ++at_;
            return value;
        }
        while (true) {
            value.items.push_back(parseValue());
            char c = peek();
            ++at_;
            if (c == ']')
                return value;
            failIf(c != ',', "expected ',' or ']' in array");
        }
    }

    JsonValue
    parseObject()
    {
        expect('{');
        JsonValue value;
        value.kind = JsonValue::Kind::Object;
        if (peek() == '}') {
            ++at_;
            return value;
        }
        while (true) {
            std::string key = parseString();
            expect(':');
            value.members.emplace_back(key, parseValue());
            char c = peek();
            ++at_;
            if (c == '}')
                return value;
            failIf(c != ',', "expected ',' or '}' in object");
        }
    }

    const std::string &text_;
    const std::string &path_;
    std::size_t at_ = 0;
};

/** Split a "command" string on unquoted whitespace (the database
 *  CMake writes never quotes paths; a best-effort split keeps the
 *  reader dependency-free). */
std::vector<std::string>
splitCommand(const std::string &command)
{
    std::vector<std::string> out;
    std::string arg;
    char quote = '\0';
    for (char c : command) {
        if (quote != '\0') {
            if (c == quote)
                quote = '\0';
            else
                arg += c;
            continue;
        }
        if (c == '"' || c == '\'') {
            quote = c;
            continue;
        }
        if (c == ' ' || c == '\t') {
            if (!arg.empty())
                out.push_back(arg);
            arg.clear();
            continue;
        }
        arg += c;
    }
    if (!arg.empty())
        out.push_back(arg);
    return out;
}

std::string
absolutize(const std::string &path, const std::string &base)
{
    fs::path p(path);
    if (p.is_absolute())
        return p.lexically_normal().generic_string();
    return (fs::path(base) / p).lexically_normal().generic_string();
}

} // namespace

std::vector<CompileCommand>
loadCompileDb(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot open compilation database: " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (in.bad())
        fatal("read error on " + path);
    const std::string text = buffer.str();

    JsonValue root = JsonParser(text, path).parse();
    if (root.kind != JsonValue::Kind::Array)
        fatal(path + ": compilation database must be a JSON array");

    std::vector<CompileCommand> out;
    for (const JsonValue &entry : root.items) {
        if (entry.kind != JsonValue::Kind::Object)
            fatal(path + ": database entries must be objects");
        const JsonValue *file = entry.field("file");
        const JsonValue *dir = entry.field("directory");
        if (file == nullptr || file->kind != JsonValue::Kind::String)
            fatal(path + ": entry lacks a string \"file\"");
        if (dir == nullptr || dir->kind != JsonValue::Kind::String)
            fatal(path + ": entry lacks a string \"directory\"");

        CompileCommand cmd;
        cmd.directory = dir->str;
        cmd.file = absolutize(file->str, cmd.directory);

        std::vector<std::string> args;
        if (const JsonValue *argv = entry.field("arguments");
            argv != nullptr &&
            argv->kind == JsonValue::Kind::Array) {
            for (const JsonValue &arg : argv->items)
                if (arg.kind == JsonValue::Kind::String)
                    args.push_back(arg.str);
        } else if (const JsonValue *command =
                       entry.field("command");
                   command != nullptr &&
                   command->kind == JsonValue::Kind::String) {
            args = splitCommand(command->str);
        } else {
            fatal(path + ": entry for " + cmd.file +
                  " has neither \"command\" nor \"arguments\"");
        }

        for (std::size_t i = 0; i < args.size(); ++i) {
            const std::string &arg = args[i];
            if (arg == "-I" || arg == "-isystem") {
                if (i + 1 < args.size())
                    cmd.includeDirs.push_back(
                        absolutize(args[++i], cmd.directory));
            } else if (arg.size() > 2 &&
                       arg.compare(0, 2, "-I") == 0) {
                cmd.includeDirs.push_back(
                    absolutize(arg.substr(2), cmd.directory));
            }
        }
        out.push_back(std::move(cmd));
    }
    return out;
}

} // namespace mnoc::analyze
