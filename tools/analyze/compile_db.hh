/**
 * @file
 * Reader for compile_commands.json (the compilation database CMake
 * exports via CMAKE_EXPORT_COMPILE_COMMANDS).  mnoc-analyze derives
 * its translation-unit worklist and include search path from the
 * database, so the analyzed tree is exactly the tree the compiler
 * sees -- no hand-maintained file lists.
 *
 * The file is read by the tree's one JSON reader, parseJson()
 * (common/json.hh), and both encodings of the compiler invocation
 * are understood: a single "command" string and an "arguments"
 * array.
 */

#ifndef MNOC_TOOLS_ANALYZE_COMPILE_DB_HH
#define MNOC_TOOLS_ANALYZE_COMPILE_DB_HH

#include <string>
#include <vector>

namespace mnoc::analyze {

/** One translation unit from the database. */
struct CompileCommand
{
    std::string file;      ///< absolute path of the source file
    std::string directory; ///< working directory of the compile
    std::vector<std::string> includeDirs; ///< -I paths (absolute)
};

/**
 * Parse the database at @p path.
 * @throws FatalError naming the file: when it cannot be read, and,
 *         with a byte offset, on malformed JSON or an entry without
 *         a string "file", a string "directory", or a command.
 */
std::vector<CompileCommand>
loadCompileDb(const std::string &path);

} // namespace mnoc::analyze

#endif // MNOC_TOOLS_ANALYZE_COMPILE_DB_HH
