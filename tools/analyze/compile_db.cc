#include "tools/analyze/compile_db.hh"

#include <filesystem>

#include "common/io.hh"
#include "common/json.hh"
#include "common/log.hh"

namespace mnoc::analyze {

namespace {

namespace fs = std::filesystem;

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

[[noreturn]] void
failAt(const std::string &path, const JsonValue &value,
       const std::string &what)
{
    fatal(path + ": " + what + " at byte " + std::to_string(value.offset));
}

} // namespace

std::vector<CompileCommand>
loadCompileDb(const std::string &path)
{
    const JsonValue root =
        parseJson(readWholeFile(path, "compilation database"), path);
    if (root.kind != JsonValue::Kind::Array)
        failAt(path, root, "compilation database must be a JSON array");

    std::vector<CompileCommand> out;
    for (const JsonValue &entry : root.items) {
        if (entry.kind != JsonValue::Kind::Object)
            failAt(path, entry, "database entry is not an object");
        const JsonValue *file = entry.field("file");
        const JsonValue *dir = entry.field("directory");
        if (file == nullptr || file->kind != JsonValue::Kind::String)
            failAt(path, entry, "entry lacks a string \"file\"");
        if (dir == nullptr || dir->kind != JsonValue::Kind::String)
            failAt(path, entry, "entry lacks a string \"directory\"");

        CompileCommand cmd;
        cmd.directory = dir->text;
        cmd.file = absolutize(file->text, cmd.directory);

        std::vector<std::string> args;
        if (const JsonValue *argv = entry.field("arguments");
            argv != nullptr &&
            argv->kind == JsonValue::Kind::Array) {
            for (const JsonValue &arg : argv->items)
                if (arg.kind == JsonValue::Kind::String)
                    args.push_back(arg.text);
        } else if (const JsonValue *command =
                       entry.field("command");
                   command != nullptr &&
                   command->kind == JsonValue::Kind::String) {
            args = splitCommand(command->text);
        } else {
            failAt(path, entry,
                   "entry for " + cmd.file +
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
