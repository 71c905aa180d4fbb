#include <string>

namespace mnoc {

void
openInput(const std::string &path, bool opened)
{
    // Literals cost nothing; a composed message is built on failure.
    panicIf(path.empty(), "input path must "
                          "not be empty");
    fatalIf(path.size() > 4096, "input path too long");
    if (!opened)
        fatal("cannot open input: " + path);
}

} // namespace mnoc
